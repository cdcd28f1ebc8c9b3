#include "core/delta_function_model.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"

namespace hem {
namespace {

TEST(DeltaFunctionModelTest, PrefixValuesAreReturnedVerbatim) {
  DeltaFunctionModel m({10, 25, 40}, {20, 50, 80}, 3, 40);
  EXPECT_EQ(m.delta_min(2), 10);
  EXPECT_EQ(m.delta_min(3), 25);
  EXPECT_EQ(m.delta_min(4), 40);
  EXPECT_EQ(m.delta_plus(2), 20);
  EXPECT_EQ(m.delta_plus(4), 80);
}

TEST(DeltaFunctionModelTest, ExtensionAddsLinearPeriods) {
  // Extension: 3 events per 40 ticks.
  DeltaFunctionModel m({10, 25, 40}, {20, 50, 80}, 3, 40);
  EXPECT_EQ(m.delta_min(5), m.delta_min(2) + 40);  // 5 = 2 + 3
  EXPECT_EQ(m.delta_min(7), m.delta_min(4) + 40);
  EXPECT_EQ(m.delta_min(10), m.delta_min(4) + 2 * 40);
  EXPECT_EQ(m.delta_plus(8), m.delta_plus(2) + 2 * 40);
}

TEST(DeltaFunctionModelTest, ExtensionBelowPrefixBaseUsesZero) {
  // n - periods*q may fall below 2; the base is then delta(n<2) = 0.
  DeltaFunctionModel m({10}, {10}, 1, 10);  // periodic-like: one stored value
  EXPECT_EQ(m.delta_min(2), 10);
  EXPECT_EQ(m.delta_min(3), 20);
  EXPECT_EQ(m.delta_min(12), 110);
}

TEST(DeltaFunctionModelTest, ValidationRejectsBadCurves) {
  EXPECT_THROW(DeltaFunctionModel({}, {}, 1, 10), std::invalid_argument);
  EXPECT_THROW(DeltaFunctionModel({10, 5}, {20, 20}, 1, 10), std::invalid_argument);  // not monotone
  EXPECT_THROW(DeltaFunctionModel({10}, {5}, 1, 10), std::invalid_argument);  // dmin > dplus
  EXPECT_THROW(DeltaFunctionModel({10}, {10, 20}, 1, 10), std::invalid_argument);  // len mismatch
  EXPECT_THROW(DeltaFunctionModel({10}, {10}, 0, 10), std::invalid_argument);  // bad ext
  EXPECT_THROW(DeltaFunctionModel({-1}, {5}, 1, 10), std::invalid_argument);   // negative
}

TEST(DeltaFunctionModelTest, ValidationRejectsNonMonotoneExtension) {
  // Stepping back 1 event adds only 1 tick but the curve grows by 30.
  EXPECT_THROW(DeltaFunctionModel({10, 40}, {10, 40}, 1, 1), std::invalid_argument);
}

TEST(PeriodicBurstTest, MatchesHandComputedPattern) {
  // Bursts of 3 events, 10 apart, every 100: events at 0,10,20, 100,110,120, ...
  const auto m = DeltaFunctionModel::periodic_burst(3, 10, 100);
  EXPECT_EQ(m->delta_min(2), 10);
  EXPECT_EQ(m->delta_min(3), 20);
  EXPECT_EQ(m->delta_min(4), 100);  // must wrap the outer period
  EXPECT_EQ(m->delta_min(5), 110);
  EXPECT_EQ(m->delta_min(7), 200);
  // Max spans: a window straddling the inter-burst gap.
  EXPECT_EQ(m->delta_plus(2), 80);   // event 20 -> event 100
  EXPECT_EQ(m->delta_plus(3), 90);   // event 10 -> event 100... spans 90? (10,20,100)
  EXPECT_EQ(m->delta_plus(4), 100);  // any 4 consecutive span exactly 100
}

TEST(PeriodicBurstTest, EtaPlusSeesTheBurst) {
  const auto m = DeltaFunctionModel::periodic_burst(3, 10, 100);
  EXPECT_EQ(m->eta_plus(1), 1);
  EXPECT_EQ(m->eta_plus(11), 2);
  EXPECT_EQ(m->eta_plus(21), 3);
  EXPECT_EQ(m->eta_plus(100), 3);
  EXPECT_EQ(m->eta_plus(101), 4);
}

TEST(PeriodicBurstTest, SemOverapproximatesTheBurst) {
  // The classic motivation for curves: any SEM covering this burst must
  // allow more events somewhere.  The burst fits SEM(P=100/3~34 would be
  // wrong); the standard fit is P=100/3 impossible with integers -> compare
  // against the jitter fit P=33, J=?  Instead check the weaker, exact
  // property: the burst's own eta+ is a lower envelope of the SEM fit
  // eta+ with P=33, J=47, dmin=10.
  const auto burst = DeltaFunctionModel::periodic_burst(3, 10, 100);
  const auto sem = StandardEventModel::sporadic(33, 47, 10);
  for (Time dt = 1; dt <= 600; dt += 3)
    EXPECT_LE(burst->eta_plus(dt), sem->eta_plus(dt)) << "dt=" << dt;
}

TEST(PeriodicBurstTest, SingleEventBurstIsPeriodic) {
  const auto m = DeltaFunctionModel::periodic_burst(1, 0, 50);
  const auto p = StandardEventModel::periodic(50);
  EXPECT_TRUE(models_equal(*m, *p, 40));
}

TEST(PeriodicBurstTest, GapShorterThanInnerDistanceBoundsDeltaMin) {
  // Bursts of 2 events 10 apart every 13 ticks: 0, 10, 13, 23, 26, ...  The
  // gap between bursts (3) is the closest pair, and the rate is 2/13.
  const auto m = DeltaFunctionModel::periodic_burst(2, 10, 13);
  EXPECT_EQ(m->delta_min(2), 3);
  EXPECT_EQ(m->delta_plus(2), 10);
  EXPECT_EQ(m->delta_min(3), 13);
  EXPECT_EQ(m->delta_min(4), 16);
  EXPECT_EQ(m->delta_plus(4), 23);
  EXPECT_EQ(m->rate(), Rate::of(2, 13));
  EXPECT_EQ(m->eta_plus(10), 2);  // e.g. {10, 13}; 13 - 0 and 23 - 10 are too wide
}

TEST(PeriodicBurstTest, RejectsOversizedBurst) {
  EXPECT_THROW(DeltaFunctionModel::periodic_burst(3, 60, 100), std::invalid_argument);
  EXPECT_THROW(DeltaFunctionModel::periodic_burst(0, 10, 100), std::invalid_argument);
}

}  // namespace
}  // namespace hem
