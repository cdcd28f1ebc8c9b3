// Boundary regressions for the Curve algebra (src/rtc/curve.hpp), whose
// GPC chains (src/rtc/gpc.hpp) lean on these exact guarantees:
//
//  * every operator (sum, clamped difference, min/max envelope, shift) is
//    exact at x = 0 and at every breakpoint of either operand — the
//    ceiling/floor interpolation only ever matters strictly between
//    breakpoints;
//  * the vertical-deviation rounding guard: two curves with identical
//    breakpoints can still differ by one unit between grid points (upper
//    rounds up, lower rounds down), which the bound must include — without
//    inflating deviations that are genuinely breakpoint-exact;
//  * constructor violations carry positioned messages naming the offending
//    index and values.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtc/curve.hpp"

namespace hem::rtc {
namespace {

/// Staircase-ish upper arrival: burst of 2, then one event per 10.
Curve upper_arrival() {
  return Curve(CurveKind::kUpper, {{0, 2}, {10, 3}, {30, 4}}, 1, 10);
}

/// Rate-latency lower service: nothing for 5, then slope 1 per 2.
Curve lower_service() { return Curve(CurveKind::kLower, {{0, 0}, {5, 0}}, 1, 2); }

std::vector<Time> probe_points(const Curve& a, const Curve& b) {
  std::vector<Time> xs{0};
  for (const auto& p : a.points()) xs.push_back(p.x);
  for (const auto& p : b.points()) xs.push_back(p.x);
  return xs;
}

TEST(CurveBoundaryTest, SumExactAtZeroAndEveryBreakpoint) {
  const Curve a = upper_arrival();
  const Curve b = Curve(CurveKind::kUpper, {{0, 1}, {7, 2}, {30, 5}}, 2, 3);
  const Curve sum = a.plus(b);
  for (const Time x : probe_points(a, b))
    EXPECT_EQ(sum.value(x), a.value(x) + b.value(x)) << "x=" << x;
  EXPECT_EQ(sum.value(0), a.value(0) + b.value(0));
}

TEST(CurveBoundaryTest, ClampedDifferenceExactAtZeroAndEveryBreakpoint) {
  const Curve beta = Curve(CurveKind::kLower, {{0, 0}, {4, 0}, {20, 8}}, 1, 2);
  const Curve demand = Curve(CurveKind::kLower, {{0, 0}, {6, 3}}, 1, 4);
  const Curve rem = beta.minus_clamped(demand);
  for (const Time x : probe_points(beta, demand)) {
    const Time expect = std::max<Time>(0, beta.value(x) - demand.value(x));
    EXPECT_EQ(rem.value(x), expect) << "x=" << x;
  }
  // The clamp itself at x = 0: demand above service must floor at zero.
  const Curve drained = demand.minus_clamped(beta);
  EXPECT_EQ(drained.value(0), 0);
}

TEST(CurveBoundaryTest, MinMaxEnvelopesExactAtZeroAndEveryBreakpoint) {
  const Curve a = upper_arrival();
  const Curve b = Curve(CurveKind::kUpper, {{0, 0}, {8, 6}}, 1, 20);
  const Curve lo = a.min_with(b);
  const Curve hi = a.max_with(b);
  for (const Time x : probe_points(a, b)) {
    EXPECT_EQ(lo.value(x), std::min(a.value(x), b.value(x))) << "x=" << x;
    EXPECT_EQ(hi.value(x), std::max(a.value(x), b.value(x))) << "x=" << x;
  }
}

TEST(CurveBoundaryTest, ShiftExactAtZeroAndEveryBreakpoint) {
  const Curve a = upper_arrival();
  const Time shift = 12;
  const Curve s = a.shifted_left(shift);
  EXPECT_EQ(s.value(0), a.value(shift));
  for (const auto& p : a.points()) {
    if (p.x < shift) continue;
    EXPECT_EQ(s.value(p.x - shift), p.y) << "breakpoint x=" << p.x;
  }
}

TEST(CurveBoundaryTest, AffineCarriesBurstAtZero) {
  EXPECT_EQ(Curve::affine(CurveKind::kUpper, 7, 1, 3).value(0), 7);
  EXPECT_EQ(Curve::affine(CurveKind::kLower, 0, 1, 3).value(0), 0);
  // First interior step still rounds by kind: ceil(1/3) vs floor(1/3).
  EXPECT_EQ(Curve::affine(CurveKind::kUpper, 0, 1, 3).value(1), 1);
  EXPECT_EQ(Curve::affine(CurveKind::kLower, 0, 1, 3).value(1), 0);
}

// ---------------------------------------------------------------------------
// Deviation bounds at and between breakpoints.
// ---------------------------------------------------------------------------

TEST(CurveBoundaryTest, DeviationsExactWithIntegerSlopes) {
  // alpha(x) = 2 + x, beta(x) = max(0, x - 3): unit slopes never round, so
  // both deviations are the textbook-exact values (no rounding guard).
  const Curve alpha = Curve::affine(CurveKind::kUpper, 2, 1, 1);
  const Curve beta = Curve::rate_latency(CurveKind::kLower, 3, 1, 1);
  EXPECT_EQ(alpha.max_vertical_deviation(beta), 5);
  EXPECT_EQ(alpha.max_horizontal_deviation(beta), 5);
}

TEST(CurveBoundaryTest, VerticalDeviationSeesBetweenBreakpointRounding) {
  // Identical breakpoints and rates, fractional slope 1/2: the upper curve
  // evaluates ceil(x/2), the lower floor(x/2), so the true sup of their
  // difference is 1 — attained only at odd x, strictly BETWEEN grid
  // points.  A breakpoint-only sweep reports 0; the rounding-aware bound
  // must report 1.
  const Curve up = Curve::affine(CurveKind::kUpper, 0, 1, 2);
  const Curve lo = Curve::affine(CurveKind::kLower, 0, 1, 2);
  EXPECT_EQ(up.value(3) - lo.value(3), 1);
  EXPECT_EQ(up.max_vertical_deviation(lo), 1);
}

TEST(CurveBoundaryTest, VerticalDeviationStaysExactWhenNothingRounds) {
  // Same shape with integer slope: no interior rounding, deviation 0.
  const Curve up = Curve::affine(CurveKind::kUpper, 0, 2, 1);
  const Curve lo = Curve::affine(CurveKind::kLower, 0, 2, 1);
  EXPECT_EQ(up.max_vertical_deviation(lo), 0);
}

TEST(CurveBoundaryTest, VerticalDeviationAtExactBreakpoint) {
  const Curve alpha = upper_arrival();
  const Curve beta = lower_service();
  // Max gap alpha - beta on this pair sits at the breakpoint x = 30:
  // alpha(30) = 4, beta(30) = 12 -> gap elsewhere; scan a window to get the
  // true sup and compare against the analytic bound.
  Time brute = 0;
  for (Time x = 0; x <= 200; ++x)
    brute = std::max(brute, alpha.value(x) - beta.value(x));
  EXPECT_EQ(alpha.max_vertical_deviation(beta), brute);
}

// ---------------------------------------------------------------------------
// Positioned constructor diagnostics.
// ---------------------------------------------------------------------------

std::string ctor_error(CurveKind kind, std::vector<Curve::Point> pts, Time dy, Time dx) {
  try {
    const Curve c(kind, std::move(pts), dy, dx);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CurveBoundaryTest, DuplicateXIsRejectedAsSuchWithPosition) {
  const std::string msg = ctor_error(CurveKind::kUpper, {{0, 0}, {5, 3}, {5, 7}}, 1, 1);
  EXPECT_NE(msg.find("duplicate x"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points[1].x = points[2].x = 5"), std::string::npos) << msg;
}

TEST(CurveBoundaryTest, DecreasingXNamesIndexAndValues) {
  const std::string msg = ctor_error(CurveKind::kUpper, {{0, 0}, {9, 1}, {2, 2}}, 1, 1);
  EXPECT_NE(msg.find("strictly increasing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points[2].x = 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points[1].x = 9"), std::string::npos) << msg;
}

TEST(CurveBoundaryTest, NonMonotoneYNamesIndexAndValues) {
  const std::string msg = ctor_error(CurveKind::kLower, {{0, 5}, {3, 2}}, 1, 1);
  EXPECT_NE(msg.find("non-decreasing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points[1].y = 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points[0].y = 5"), std::string::npos) << msg;
}

TEST(CurveBoundaryTest, NonPositiveFinalDxNamesBothSlopeComponents) {
  const std::string msg = ctor_error(CurveKind::kUpper, {{0, 0}}, 1, 0);
  EXPECT_NE(msg.find("dx > 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dy = 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dx = 0"), std::string::npos) << msg;
  EXPECT_NE(ctor_error(CurveKind::kUpper, {{0, 0}}, -1, 1).find("dy >= 0"), std::string::npos);
}

TEST(CurveBoundaryTest, FirstPointMustSitAtZero) {
  const std::string msg = ctor_error(CurveKind::kUpper, {{4, 0}}, 1, 1);
  EXPECT_NE(msg.find("x=0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points[0].x = 4"), std::string::npos) << msg;
}

TEST(CurveBoundaryTest, NegativeCoordinatesNamePoint) {
  const std::string msg = ctor_error(CurveKind::kLower, {{0, 0}, {3, -2}}, 1, 1);
  // The y-monotonicity check sees the drop first; a lone negative first
  // point hits the dedicated coordinate check.
  EXPECT_FALSE(msg.empty());
  const std::string neg = ctor_error(CurveKind::kLower, {{0, -1}}, 1, 1);
  EXPECT_NE(neg.find("negative coordinates"), std::string::npos) << neg;
  EXPECT_NE(neg.find("points[0] = (0, -1)"), std::string::npos) << neg;
}

}  // namespace
}  // namespace hem::rtc
