#include "hierarchical/inner_update.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

TEST(InnerUpdateTest, MatchesDefinitionNine) {
  // delta'-(n) = max(delta-(n) - (r+ - r-) - (k-1) r-, (n-1) r-),
  // delta'+(n) = delta+(n) + (r+ - r-) + (k-1) r-.
  const auto inner = periodic(250);
  const Time rm = 4, rp = 6;
  const Count k = 2;
  const ResponseUpdatedInnerModel upd(inner, rm, rp, k);
  for (Count n = 2; n <= 20; ++n) {
    const Time shrink = (rp - rm) + (k - 1) * rm;
    EXPECT_EQ(upd.delta_min(n),
              std::max(inner->delta_min(n) - shrink, rm * (n - 1)))
        << "n=" << n;
    EXPECT_EQ(upd.delta_plus(n), inner->delta_plus(n) + shrink) << "n=" << n;
  }
}

TEST(InnerUpdateTest, KEqualsOneReducesToPlainJitterPlusSerialisation) {
  const auto inner = periodic(100);
  const ResponseUpdatedInnerModel upd(inner, 5, 12, 1);
  EXPECT_EQ(upd.delta_min(2), 100 - 7);
  EXPECT_EQ(upd.delta_plus(2), 100 + 7);
}

TEST(InnerUpdateTest, SerialisationFloorDominatesForDenseStreams) {
  const auto inner = StandardEventModel::periodic_with_jitter(50, 200);  // bursty
  const ResponseUpdatedInnerModel upd(inner, 10, 15, 3);
  for (Count n = 2; n <= 8; ++n) EXPECT_GE(upd.delta_min(n), 10 * (n - 1));
}

TEST(InnerUpdateTest, MonotoneCurves) {
  const auto inner = StandardEventModel::sporadic(100, 170, 8);
  const ResponseUpdatedInnerModel upd(inner, 3, 9, 4);
  for (Count n = 3; n <= 48; ++n) {
    EXPECT_LE(upd.delta_min(n - 1), upd.delta_min(n));
    EXPECT_LE(upd.delta_plus(n - 1), upd.delta_plus(n));
    EXPECT_LE(upd.delta_min(n), upd.delta_plus(n));
  }
}

TEST(InnerUpdateTest, InfiniteDeltaPlusStaysInfinite) {
  // Pending inner streams have delta+ = inf; the update must not turn that
  // into a finite value.
  class InfPlus final : public EventModel {
   public:
    InfPlus() : EventModel(Rate::of(1, 100)) {}
    [[nodiscard]] std::string describe() const override { return "infplus"; }

   protected:
    [[nodiscard]] Time delta_min_raw(Count n) const override { return 100 * (n - 1); }
    [[nodiscard]] Time delta_plus_raw(Count) const override { return kTimeInfinity; }
  };
  const ResponseUpdatedInnerModel upd(std::make_shared<InfPlus>(), 2, 5, 2);
  EXPECT_TRUE(is_infinite(upd.delta_plus(2)));
  EXPECT_TRUE(is_infinite(upd.delta_plus(10)));
}

TEST(InnerUpdateTest, ValidationErrors) {
  const auto inner = periodic(100);
  EXPECT_THROW(ResponseUpdatedInnerModel(nullptr, 1, 2, 1), std::invalid_argument);
  EXPECT_THROW(ResponseUpdatedInnerModel(inner, -1, 2, 1), std::invalid_argument);
  EXPECT_THROW(ResponseUpdatedInnerModel(inner, 5, 2, 1), std::invalid_argument);
  EXPECT_THROW(ResponseUpdatedInnerModel(inner, 1, 2, 0), std::invalid_argument);
  EXPECT_THROW(ResponseUpdatedInnerModel(inner, 1, kTimeInfinity, 1), std::invalid_argument);
}

TEST(PackRuleTest, DerivesKFromOuterSimultaneity) {
  // Outer with 3 simultaneous events -> k = 3 -> the inner update shrinks
  // delta- by (r+ - r-) + 2 r-.
  const auto outer = StandardEventModel::periodic_with_jitter(100, 250);
  ASSERT_EQ(outer->max_simultaneous_events(), 3);
  const auto inner = periodic(300);
  const auto rule = PackRule::instance();
  const auto upd = rule->update_inner_after_response(inner, outer, 4, 10);
  // shrink = 6 + 2*4 = 14.
  EXPECT_EQ(upd->delta_min(2), 300 - 14);
  EXPECT_EQ(upd->delta_plus(2), 300 + 14);
}

}  // namespace
}  // namespace hem
