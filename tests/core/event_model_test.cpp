#include "core/event_model.hpp"

#include <gtest/gtest.h>

#include "core/delta_function_model.hpp"
#include "core/standard_event_model.hpp"

namespace hem {
namespace {

// A model whose delta- never grows: an unbounded burst.  eta+ must saturate
// to the infinity sentinel instead of looping forever.
class DegenerateBurstModel final : public EventModel {
 public:
  DegenerateBurstModel() : EventModel(Rate::unbounded()) {}
  [[nodiscard]] std::string describe() const override { return "burst"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count) const override { return 0; }
  [[nodiscard]] Time delta_plus_raw(Count) const override { return 0; }
};

TEST(EventModelTest, DeltaBelowTwoIsZero) {
  const auto m = StandardEventModel::periodic(50);
  EXPECT_EQ(m->delta_min(-3), 0);
  EXPECT_EQ(m->delta_min(0), 0);
  EXPECT_EQ(m->delta_min(1), 0);
  EXPECT_EQ(m->delta_plus(1), 0);
}

TEST(EventModelTest, EtaPlusOfDegenerateBurstIsInfinite) {
  const DegenerateBurstModel m;
  EXPECT_TRUE(is_infinite_count(m.eta_plus(10)));
}

TEST(EventModelTest, EtaMinusWithUnboundedGapsIsZero) {
  // delta+(2) = infinity means the stream can fall silent forever.
  DeltaFunctionModel m({100}, {kTimeInfinity}, 1, 100);
  EXPECT_EQ(m.eta_minus(1'000'000), 0);
}

TEST(EventModelTest, EtaPlusIsMonotoneInDt) {
  const auto m = StandardEventModel::sporadic(100, 120, 15);
  Count prev = 0;
  for (Time dt = 0; dt <= 2000; dt += 11) {
    const Count v = m->eta_plus(dt);
    EXPECT_GE(v, prev) << "dt=" << dt;
    prev = v;
  }
}

TEST(EventModelTest, EtaMinusNeverExceedsEtaPlus) {
  const auto m = StandardEventModel::sporadic(100, 40, 20);
  for (Time dt = 0; dt <= 2000; dt += 13) EXPECT_LE(m->eta_minus(dt), m->eta_plus(dt));
}

TEST(EventModelTest, EtaDeltaGalois) {
  // Galois-style consistency: exactly eta+(dt) events fit in strictly less
  // than dt, so delta-(eta+(dt)) < dt <= delta-(eta+(dt) + 1).
  const auto m = StandardEventModel::sporadic(70, 150, 9);
  for (Time dt = 1; dt <= 1500; dt += 17) {
    const Count n = m->eta_plus(dt);
    ASSERT_GE(n, 1);
    if (n >= 2) {
      EXPECT_LT(m->delta_min(n), dt);
    }
    EXPECT_GE(m->delta_min(n + 1), dt);
  }
}

TEST(EventModelTest, ModelsEqualComparesCurves) {
  const auto a = StandardEventModel::periodic(100);
  const auto b = StandardEventModel::periodic(100);
  const auto c = StandardEventModel::periodic_with_jitter(100, 1);
  EXPECT_TRUE(models_equal(*a, *b, 32));
  EXPECT_FALSE(models_equal(*a, *c, 32));
}

TEST(EventModelTest, CachingReturnsConsistentValues) {
  const auto m = StandardEventModel::sporadic(100, 30, 5);
  const Time first = m->delta_min(17);
  const Time second = m->delta_min(17);  // served from cache
  EXPECT_EQ(first, second);
  // Interleave large and small queries to exercise cache growth.
  const Time big = m->delta_min(5000);
  EXPECT_EQ(m->delta_min(5000), big);
  EXPECT_EQ(m->delta_min(17), first);
}

}  // namespace
}  // namespace hem
