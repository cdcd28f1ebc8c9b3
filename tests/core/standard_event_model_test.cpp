#include "core/standard_event_model.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace hem {
namespace {

TEST(StandardEventModelTest, PeriodicDeltaCurves) {
  const auto m = StandardEventModel::periodic(100);
  EXPECT_EQ(m->delta_min(0), 0);
  EXPECT_EQ(m->delta_min(1), 0);
  EXPECT_EQ(m->delta_min(2), 100);
  EXPECT_EQ(m->delta_min(5), 400);
  EXPECT_EQ(m->delta_plus(2), 100);
  EXPECT_EQ(m->delta_plus(5), 400);
}

TEST(StandardEventModelTest, PeriodicEtaPlus) {
  const auto m = StandardEventModel::periodic(100);
  EXPECT_EQ(m->eta_plus(0), 0);
  EXPECT_EQ(m->eta_plus(1), 1);
  EXPECT_EQ(m->eta_plus(100), 1);
  EXPECT_EQ(m->eta_plus(101), 2);
  EXPECT_EQ(m->eta_plus(200), 2);
  EXPECT_EQ(m->eta_plus(201), 3);
  EXPECT_EQ(m->eta_plus(1000), 10);
}

TEST(StandardEventModelTest, PeriodicEtaMinus) {
  const auto m = StandardEventModel::periodic(100);
  EXPECT_EQ(m->eta_minus(0), 0);
  EXPECT_EQ(m->eta_minus(99), 0);
  EXPECT_EQ(m->eta_minus(100), 1);
  EXPECT_EQ(m->eta_minus(199), 1);
  EXPECT_EQ(m->eta_minus(200), 2);
}

TEST(StandardEventModelTest, JitterShiftsCurves) {
  const auto m = StandardEventModel::periodic_with_jitter(100, 30);
  EXPECT_EQ(m->delta_min(2), 70);
  EXPECT_EQ(m->delta_plus(2), 130);
  EXPECT_EQ(m->delta_min(3), 170);
  EXPECT_EQ(m->delta_plus(3), 230);
}

TEST(StandardEventModelTest, BurstWhenJitterExceedsPeriod) {
  // J = 250 >= 2.5 periods: up to 3 simultaneous events.
  const auto m = StandardEventModel::periodic_with_jitter(100, 250);
  EXPECT_EQ(m->delta_min(2), 0);
  EXPECT_EQ(m->delta_min(3), 0);
  EXPECT_EQ(m->delta_min(4), 50);   // 3*100 - 250
  EXPECT_EQ(m->eta_plus(1), 3);     // three can coincide
  EXPECT_EQ(m->max_simultaneous_events(), 3);
}

TEST(StandardEventModelTest, DminLimitsBurst) {
  const auto m = StandardEventModel::sporadic(100, 250, 10);
  EXPECT_EQ(m->delta_min(2), 10);
  EXPECT_EQ(m->delta_min(3), 20);
  EXPECT_EQ(m->delta_min(4), 50);  // period term takes over
  EXPECT_EQ(m->max_simultaneous_events(), 1);
}

TEST(StandardEventModelTest, RejectsInvalidParameters) {
  EXPECT_THROW(StandardEventModel(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(StandardEventModel(-5, 0, 0), std::invalid_argument);
  EXPECT_THROW(StandardEventModel(100, -1, 0), std::invalid_argument);
  EXPECT_THROW(StandardEventModel(100, 0, -1), std::invalid_argument);
  EXPECT_THROW(StandardEventModel(100, 0, 101), std::invalid_argument);
}

TEST(StandardEventModelTest, DescribeMentionsParameters) {
  const auto m = StandardEventModel::sporadic(100, 20, 5);
  EXPECT_NE(m->describe().find("P=100"), std::string::npos);
  EXPECT_NE(m->describe().find("J=20"), std::string::npos);
  EXPECT_NE(m->describe().find("dmin=5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property sweep: the closed-form eta functions must agree with the generic
// pseudo-inversion of the delta curves (paper eqs. 1-2).  A shim exposes the
// base-class implementation.

class InversionShim final : public EventModel {
 public:
  explicit InversionShim(ModelPtr inner)
      : EventModel(inner->rate()), inner_(std::move(inner)) {}
  [[nodiscard]] std::string describe() const override { return "shim"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override { return inner_->delta_min(n); }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return inner_->delta_plus(n); }
  // Note: eta_plus_raw / eta_minus_raw intentionally NOT overridden, so the
  // generic galloping inversion runs on the SEM's delta curves.

 private:
  ModelPtr inner_;
};

using SemParams = std::tuple<Time, Time, Time>;  // P, J, dmin

class SemInversionProperty : public ::testing::TestWithParam<SemParams> {};

TEST_P(SemInversionProperty, ClosedFormMatchesGenericInversion) {
  const auto [p, j, d] = GetParam();
  const auto sem = std::make_shared<StandardEventModel>(p, j, d);
  const InversionShim generic(sem);
  for (Time dt = 0; dt <= 6 * p + 2 * j; dt += 7) {
    ASSERT_EQ(sem->eta_plus(dt), generic.eta_plus(dt))
        << "eta+ mismatch at dt=" << dt << " for " << sem->describe();
    ASSERT_EQ(sem->eta_minus(dt), generic.eta_minus(dt))
        << "eta- mismatch at dt=" << dt << " for " << sem->describe();
  }
}

TEST_P(SemInversionProperty, DeltaCurvesAreMonotone) {
  const auto [p, j, d] = GetParam();
  const StandardEventModel sem(p, j, d);
  for (Count n = 2; n <= 64; ++n) {
    ASSERT_LE(sem.delta_min(n - 1), sem.delta_min(n));
    ASSERT_LE(sem.delta_plus(n - 1), sem.delta_plus(n));
    ASSERT_LE(sem.delta_min(n), sem.delta_plus(n));
  }
}

TEST_P(SemInversionProperty, DeltaMinIsSuperadditive) {
  // For SEMs: delta-(a + b - 1) >= delta-(a) + delta-(b) (concatenating two
  // minimal windows sharing one event).
  const auto [p, j, d] = GetParam();
  const StandardEventModel sem(p, j, d);
  for (Count a = 2; a <= 12; ++a)
    for (Count b = 2; b <= 12; ++b)
      ASSERT_GE(sem.delta_min(a + b - 1), sem.delta_min(a) + sem.delta_min(b))
          << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, SemInversionProperty,
    ::testing::Values(SemParams{100, 0, 100}, SemParams{100, 0, 0}, SemParams{100, 30, 0},
                      SemParams{100, 99, 0}, SemParams{100, 100, 0}, SemParams{100, 250, 0},
                      SemParams{100, 250, 10}, SemParams{100, 1000, 7}, SemParams{1, 0, 1},
                      SemParams{1, 5, 0}, SemParams{250, 0, 250}, SemParams{450, 20, 3},
                      SemParams{1000, 999, 400}, SemParams{33, 17, 5}));

}  // namespace
}  // namespace hem
