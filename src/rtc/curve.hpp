#pragma once

/// \file curve.hpp
/// Piecewise-linear curves for Real-Time-Calculus style analysis - the
/// second compositional approach the paper discusses (Thiele et al. [11],
/// network calculus [3]).
///
/// A curve is a non-decreasing piecewise-linear function on Delta >= 0,
/// represented by breakpoints (x_i, y_i) with integer coordinates and a
/// final slope (rational, dy/dx) extending the last breakpoint to
/// infinity.  Upper curves (arrival alpha^u, service beta^u) are evaluated
/// with CEILING interpolation, lower curves (alpha^l, beta^l) with FLOOR -
/// both conservative directions.
///
/// Operations cover what the greedy-processing-component analysis needs:
/// evaluation, vertical/horizontal deviation (backlog/delay bounds),
/// curve arithmetic (sum, clamped difference), min/max envelopes, and
/// horizontal shift.

#include <string>
#include <vector>

#include "core/time.hpp"

namespace hem::rtc {

/// Interpolation/rounding direction of a curve.
enum class CurveKind { kUpper, kLower };

class Curve {
 public:
  struct Point {
    Time x;
    Time y;
  };

  /// Precondition contract (every violation throws std::invalid_argument
  /// with a POSITIONED message naming the offending index and values):
  ///
  ///   * at least one point, and points[0].x == 0;
  ///   * x strictly increasing — duplicate x is rejected as such (a jump
  ///     must be expressed by lifting the point's y, not by stacking two
  ///     points on one x);
  ///   * y non-decreasing, all coordinates non-negative and finite;
  ///   * final_dx > 0 and final_dy >= 0 (a curve extends to infinity with
  ///     a well-defined non-negative rational slope; "no growth" is
  ///     dy = 0, never dx <= 0).
  ///
  /// \param points       breakpoints, strictly increasing x, non-decreasing
  ///                     y; implicitly prefixed by (0, y0) = first point
  ///                     (whose x must be 0).
  /// \param final_dy/dx  slope after the last breakpoint (dx > 0, dy >= 0).
  Curve(CurveKind kind, std::vector<Point> points, Time final_dy, Time final_dx);

  /// The zero curve.
  [[nodiscard]] static Curve zero(CurveKind kind);

  /// Affine curve: y = burst + (dy/dx) * x for x >= 0, so value(0) ==
  /// burst (the leaky-bucket arrival curve when kind == kUpper).  The
  /// event-model convention eta(0) = 0 lives in the model layer: a Curve
  /// carries the burst at x = 0 so that evaluation stays monotone and
  /// breakpoint-exact; callers needing the eta convention query x > 0
  /// only.
  [[nodiscard]] static Curve affine(CurveKind kind, Time burst, Time dy, Time dx);

  /// Rate-latency service curve: y = max(0, (dy/dx) * (x - latency)).
  [[nodiscard]] static Curve rate_latency(CurveKind kind, Time latency, Time dy, Time dx);

  [[nodiscard]] CurveKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::vector<Point>& points() const noexcept { return points_; }
  [[nodiscard]] Time final_dy() const noexcept { return final_dy_; }
  [[nodiscard]] Time final_dx() const noexcept { return final_dx_; }

  /// Evaluate at x >= 0 (rounded according to the curve kind).
  [[nodiscard]] Time value(Time x) const;

  /// Smallest x with value(x) >= y (kTimeInfinity if never reached).
  [[nodiscard]] Time inverse(Time y) const;

  /// Slope of the final linear segment as a double (the curve's long-run
  /// rate).
  [[nodiscard]] double tail_slope() const;

  /// Point-wise sum.
  [[nodiscard]] Curve plus(const Curve& other) const;

  /// Point-wise max(0, this - other); the result is evaluated with THIS
  /// curve's kind.
  [[nodiscard]] Curve minus_clamped(const Curve& other) const;

  /// Point-wise minimum / maximum envelope.
  [[nodiscard]] Curve min_with(const Curve& other) const;
  [[nodiscard]] Curve max_with(const Curve& other) const;

  /// The curve shifted left: x -> value(x + shift) (used for output
  /// arrival bounds alpha'(D) = alpha(D + delay)).
  [[nodiscard]] Curve shifted_left(Time shift) const;

  /// Maximum vertical distance max_x (this(x) - other(x)); clamped at 0.
  /// Requires both long-run rates to make the sup finite
  /// (throws AnalysisError otherwise).  This is the BACKLOG bound when
  /// `this` is an upper arrival and `other` a lower service curve.
  /// Exact at every breakpoint; between breakpoints the ceiling/floor
  /// interpolation can lift the true difference by one unit, which the
  /// bound includes exactly when some interval can round (see the rounding
  /// guard in the implementation) — always the conservative direction.
  [[nodiscard]] Time max_vertical_deviation(const Curve& other) const;

  /// Maximum horizontal distance: sup over y of
  /// (smallest x2 with other(x2) >= y) - (smallest x1 with this(x1) >= y).
  /// This is the DELAY bound when `this` is an upper arrival curve and
  /// `other` a lower service curve.
  [[nodiscard]] Time max_horizontal_deviation(const Curve& other) const;

  /// Min-plus convolution (this ⊗ other)(x) = min_{0<=l<=x} this(l) +
  /// other(x - l).  Exact for the piecewise-linear class up to the
  /// per-evaluation rounding; breakpoints are the pairwise sums of the
  /// operands' breakpoints.
  [[nodiscard]] Curve min_plus_conv(const Curve& other) const;

  /// Min-plus deconvolution (this ⊘ other)(x) = sup_{l>=0} this(x + l) -
  /// other(l), clamped at 0.  The exact output-arrival bound of a greedy
  /// component: alpha' = alpha ⊘ beta.
  /// \throws AnalysisError when this curve's long-run rate exceeds the
  ///         other's (the sup is unbounded).
  [[nodiscard]] Curve min_plus_deconv(const Curve& other) const;

  [[nodiscard]] std::string describe() const;

 private:
  /// x-coordinates where either curve breaks (merged grid), up to and a bit
  /// beyond the last breakpoint of both.
  [[nodiscard]] std::vector<Time> merged_grid(const Curve& other) const;

  CurveKind kind_;
  std::vector<Point> points_;  ///< sorted by x, points_[0].x == 0
  Time final_dy_;
  Time final_dx_;
};

}  // namespace hem::rtc
