#include "rtc/curve.hpp"

#include <gtest/gtest.h>

#include "core/errors.hpp"
#include "core/standard_event_model.hpp"
#include "rtc/gpc.hpp"

namespace hem::rtc {
namespace {

TEST(CurveTest, AffineEvaluation) {
  // alpha(x) = 10 + x/5 (upper: ceiling interpolation on the tail).
  const Curve a = Curve::affine(CurveKind::kUpper, 10, 1, 5);
  EXPECT_EQ(a.value(0), 10);
  EXPECT_EQ(a.value(1), 11);  // ceil(1/5) = 1
  EXPECT_EQ(a.value(5), 11);
  EXPECT_EQ(a.value(6), 12);
  EXPECT_EQ(a.value(50), 20);
}

TEST(CurveTest, RateLatencyEvaluation) {
  // beta(x) = max(0, x - 20) at unit rate (lower: floor).
  const Curve b = Curve::rate_latency(CurveKind::kLower, 20, 1, 1);
  EXPECT_EQ(b.value(0), 0);
  EXPECT_EQ(b.value(20), 0);
  EXPECT_EQ(b.value(21), 1);
  EXPECT_EQ(b.value(100), 80);
}

TEST(CurveTest, InverseIsExact) {
  const Curve b = Curve::rate_latency(CurveKind::kLower, 20, 2, 3);
  for (Time y = 1; y <= 40; ++y) {
    const Time x = b.inverse(y);
    EXPECT_GE(b.value(x), y) << y;
    EXPECT_LT(b.value(x - 1), y) << y;
  }
  const Curve flat = Curve::zero(CurveKind::kLower);
  EXPECT_TRUE(is_infinite(flat.inverse(1)));
}

TEST(CurveTest, PlusAddsPointwise) {
  const Curve a = Curve::affine(CurveKind::kUpper, 5, 1, 2);
  const Curve b = Curve::affine(CurveKind::kUpper, 3, 1, 4);
  const Curve s = a.plus(b);
  for (Time x = 0; x <= 100; x += 7)
    EXPECT_NEAR(static_cast<double>(s.value(x)),
                static_cast<double>(a.value(x) + b.value(x)), 1.0)
        << x;
  EXPECT_DOUBLE_EQ(s.tail_slope(), 0.75);
}

TEST(CurveTest, MinusClampedNeverNegative) {
  const Curve beta = Curve::affine(CurveKind::kLower, 0, 1, 1);
  const Curve demand = Curve::affine(CurveKind::kLower, 30, 1, 2);
  const Curve rem = beta.minus_clamped(demand);
  for (Time x = 0; x <= 200; x += 5) {
    EXPECT_GE(rem.value(x), 0);
    // Within rounding of the analytic remainder max(0, x - 30 - x/2).
    const Time expect = std::max<Time>(0, x - 30 - x / 2);
    EXPECT_NEAR(static_cast<double>(rem.value(x)), static_cast<double>(expect), 2.0) << x;
  }
}

TEST(CurveTest, EnvelopesBracketInputs) {
  const Curve a = Curve::affine(CurveKind::kUpper, 10, 1, 5);
  const Curve b = Curve::rate_latency(CurveKind::kUpper, 4, 2, 3);
  const Curve lo = a.min_with(b);
  const Curve hi = a.max_with(b);
  for (Time x = 0; x <= 150; x += 3) {
    EXPECT_LE(lo.value(x), std::min(a.value(x), b.value(x)) + 1) << x;
    EXPECT_GE(hi.value(x), std::max(a.value(x), b.value(x)) - 1) << x;
    EXPECT_LE(lo.value(x), hi.value(x) + 1) << x;
  }
}

TEST(CurveTest, ShiftedLeft) {
  const Curve b = Curve::rate_latency(CurveKind::kLower, 20, 1, 1);
  const Curve s = b.shifted_left(5);
  for (Time x = 0; x <= 100; x += 4) EXPECT_EQ(s.value(x), b.value(x + 5)) << x;
}

TEST(CurveTest, TextbookDeviations) {
  // Token bucket alpha(x) = 10 + x/5 against rate-latency beta(x) = (x-20)+
  // at unit rate: delay = T + b/R = 30, backlog = alpha(T) = 14.
  const Curve alpha = Curve::affine(CurveKind::kUpper, 10, 1, 5);
  const Curve beta = Curve::rate_latency(CurveKind::kLower, 20, 1, 1);
  EXPECT_EQ(alpha.max_horizontal_deviation(beta), 30);
  EXPECT_EQ(alpha.max_vertical_deviation(beta), 14);
}

TEST(CurveTest, DeviationUnboundedThrows) {
  const Curve alpha = Curve::affine(CurveKind::kUpper, 1, 2, 1);  // rate 2
  const Curve beta = Curve::affine(CurveKind::kLower, 0, 1, 1);   // rate 1
  EXPECT_THROW(alpha.max_vertical_deviation(beta), AnalysisError);
  EXPECT_THROW(alpha.max_horizontal_deviation(beta), AnalysisError);
}

TEST(CurveTest, MinPlusConvOfRateLatencies) {
  // Classic identity: R(x-T1)+ conv R(x-T2)+ at equal unit rates =
  // R(x - T1 - T2)+.
  const Curve a = Curve::rate_latency(CurveKind::kLower, 10, 1, 1);
  const Curve b = Curve::rate_latency(CurveKind::kLower, 15, 1, 1);
  const Curve c = a.min_plus_conv(b);
  const Curve expect = Curve::rate_latency(CurveKind::kLower, 25, 1, 1);
  for (Time x = 0; x <= 200; x += 3)
    EXPECT_NEAR(static_cast<double>(c.value(x)), static_cast<double>(expect.value(x)), 1.0)
        << x;
}

TEST(CurveTest, MinPlusConvAgainstBruteForce) {
  const Curve a = Curve::affine(CurveKind::kLower, 5, 1, 3);
  const Curve b = Curve::rate_latency(CurveKind::kLower, 7, 2, 3);
  const Curve c = a.min_plus_conv(b);
  for (Time x = 0; x <= 120; x += 4) {
    Time brute = kTimeInfinity;
    for (Time l = 0; l <= x; ++l) brute = std::min(brute, a.value(l) + b.value(x - l));
    EXPECT_NEAR(static_cast<double>(c.value(x)), static_cast<double>(brute), 1.0) << x;
  }
}

TEST(CurveTest, DeconvolutionIsOutputArrival) {
  // alpha ⊘ beta for token bucket through rate-latency: the burst grows by
  // the backlog accumulated during the latency: alpha'(0) = alpha(T) = 14.
  const Curve alpha = Curve::affine(CurveKind::kUpper, 10, 1, 5);
  const Curve beta = Curve::rate_latency(CurveKind::kLower, 20, 1, 1);
  const Curve out = alpha.min_plus_deconv(beta);
  EXPECT_EQ(out.value(0), 14);
  // Long-run rate preserved.
  EXPECT_DOUBLE_EQ(out.tail_slope(), alpha.tail_slope());
  // Brute force cross-check.
  for (Time x = 0; x <= 100; x += 5) {
    Time brute = 0;
    for (Time l = 0; l <= 400; ++l)
      brute = std::max(brute, alpha.value(x + l) - beta.value(l));
    EXPECT_NEAR(static_cast<double>(out.value(x)), static_cast<double>(brute), 1.0) << x;
  }
}

TEST(CurveTest, DeconvolutionUnboundedThrows) {
  const Curve fast = Curve::affine(CurveKind::kUpper, 1, 2, 1);
  const Curve slow = Curve::affine(CurveKind::kLower, 0, 1, 1);
  EXPECT_THROW(fast.min_plus_deconv(slow), AnalysisError);
}

TEST(CurveTest, ValidationErrors) {
  EXPECT_THROW(Curve(CurveKind::kUpper, {}, 1, 1), std::invalid_argument);
  EXPECT_THROW(Curve(CurveKind::kUpper, {{5, 0}}, 1, 1), std::invalid_argument);
  EXPECT_THROW(Curve(CurveKind::kUpper, {{0, 3}, {0, 4}}, 1, 1), std::invalid_argument);
  EXPECT_THROW(Curve(CurveKind::kUpper, {{0, 3}, {2, 1}}, 1, 1), std::invalid_argument);
  EXPECT_THROW(Curve(CurveKind::kUpper, {{0, 3}}, 1, 0), std::invalid_argument);
  EXPECT_THROW(Curve(CurveKind::kUpper, {{0, 3}}, -1, 1), std::invalid_argument);
}

TEST(UpperArrivalFromTest, DominatesTheEventModel) {
  const auto models = {StandardEventModel::sporadic(100, 250, 10),
                       StandardEventModel::periodic(50)};
  for (const auto& m : models) {
    const Curve alpha = upper_arrival_from(*m, 48);
    for (Time dt = 1; dt <= 3000; dt += 13)
      EXPECT_GE(alpha.value(dt), m->eta_plus(dt)) << m->describe() << " dt=" << dt;
  }
}

TEST(UpperArrivalFromTest, PeriodicIsTight) {
  const auto m = StandardEventModel::periodic(100);
  const Curve alpha = upper_arrival_from(*m, 48);
  // At the breakpoints the PWL touches the staircase.
  EXPECT_EQ(alpha.value(0), 1);
  EXPECT_EQ(alpha.value(100), 2);
  EXPECT_EQ(alpha.value(1000), 11);
}

}  // namespace
}  // namespace hem::rtc
