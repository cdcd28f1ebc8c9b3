#include "rtc/curve.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/errors.hpp"

namespace hem::rtc {

namespace {

/// Divide with the rounding direction of the curve kind.
Time rounded_div(Time num, Time den, CurveKind kind) {
  if (num <= 0) return 0;
  return kind == CurveKind::kUpper ? ceil_div(num, den) : num / den;
}

}  // namespace

namespace {

/// Positioned constructor-violation message: names the offending index and
/// values so a bad call site is identifiable from the exception alone.
[[noreturn]] void reject(const std::string& what) { throw std::invalid_argument(what); }

}  // namespace

Curve::Curve(CurveKind kind, std::vector<Point> points, Time final_dy, Time final_dx)
    : kind_(kind), points_(std::move(points)), final_dy_(final_dy), final_dx_(final_dx) {
  if (points_.empty()) reject("Curve: needs at least one point");
  if (points_.front().x != 0) {
    std::ostringstream os;
    os << "Curve: first point must be at x=0 (points[0].x = " << points_.front().x << ")";
    reject(os.str());
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].x == points_[i - 1].x) {
      std::ostringstream os;
      os << "Curve: duplicate x (points[" << i - 1 << "].x = points[" << i
         << "].x = " << points_[i].x << ")";
      reject(os.str());
    }
    if (points_[i].x < points_[i - 1].x) {
      std::ostringstream os;
      os << "Curve: x must be strictly increasing (points[" << i << "].x = " << points_[i].x
         << " < points[" << i - 1 << "].x = " << points_[i - 1].x << ")";
      reject(os.str());
    }
    if (points_[i].y < points_[i - 1].y) {
      std::ostringstream os;
      os << "Curve: y must be non-decreasing (points[" << i << "].y = " << points_[i].y
         << " < points[" << i - 1 << "].y = " << points_[i - 1].y << ")";
      reject(os.str());
    }
  }
  if (final_dx_ <= 0 || final_dy_ < 0) {
    std::ostringstream os;
    os << "Curve: final slope must be dy >= 0 over dx > 0 (got dy = " << final_dy_
       << ", dx = " << final_dx_ << ")";
    reject(os.str());
  }
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].x < 0 || points_[i].y < 0) {
      std::ostringstream os;
      os << "Curve: negative coordinates (points[" << i << "] = (" << points_[i].x << ", "
         << points_[i].y << "))";
      reject(os.str());
    }
  }
}

Curve Curve::zero(CurveKind kind) { return Curve(kind, {{0, 0}}, 0, 1); }

Curve Curve::affine(CurveKind kind, Time burst, Time dy, Time dx) {
  if (burst < 0) throw std::invalid_argument("Curve::affine: negative burst");
  return Curve(kind, {{0, burst}}, dy, dx);
}

Curve Curve::rate_latency(CurveKind kind, Time latency, Time dy, Time dx) {
  if (latency < 0) throw std::invalid_argument("Curve::rate_latency: negative latency");
  if (latency == 0) return Curve(kind, {{0, 0}}, dy, dx);
  return Curve(kind, {{0, 0}, {latency, 0}}, dy, dx);
}

Time Curve::value(Time x) const {
  if (x < 0) throw std::invalid_argument("Curve::value: negative x");
  // Find the last breakpoint with px <= x.
  std::size_t i = points_.size() - 1;
  if (x < points_.back().x) {
    // Binary search for the segment.
    std::size_t lo = 0, hi = points_.size() - 1;
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (points_[mid].x <= x)
        lo = mid;
      else
        hi = mid;
    }
    i = lo;
    const Point& a = points_[i];
    const Point& b = points_[i + 1];
    return a.y + rounded_div((x - a.x) * (b.y - a.y), b.x - a.x, kind_);
  }
  const Point& last = points_.back();
  return sat_add(last.y, rounded_div(sat_mul(final_dy_, x - last.x), final_dx_, kind_));
}

Time Curve::inverse(Time y) const {
  if (y <= points_.front().y) return 0;
  // Unreachable if the curve saturates below y.
  const Point& last = points_.back();
  if (y > last.y && final_dy_ == 0) return kTimeInfinity;
  // Galloping + binary search on the monotone value().
  Time lo = 0;
  Time hi = std::max<Time>(1, last.x);
  while (value(hi) < y) {
    lo = hi;
    hi = sat_mul(hi, 2);
    if (is_infinite(hi)) return kTimeInfinity;
  }
  while (lo + 1 < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (value(mid) < y)
      lo = mid;
    else
      hi = mid;
  }
  return value(lo) >= y ? lo : hi;
}

double Curve::tail_slope() const {
  return static_cast<double>(final_dy_) / static_cast<double>(final_dx_);
}

std::vector<Time> Curve::merged_grid(const Curve& other) const {
  std::vector<Time> xs;
  for (const auto& p : points_) xs.push_back(p.x);
  for (const auto& p : other.points_) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

namespace {

/// Build a curve through the sampled values with the combined final slope.
Curve from_samples(CurveKind kind, const std::vector<Time>& xs,
                   const std::vector<Time>& ys, Time final_dy, Time final_dx) {
  std::vector<Curve::Point> pts;
  Time prev_y = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Time y = std::max(ys[i], prev_y);  // enforce monotonicity under rounding
    pts.push_back({xs[i], y});
    prev_y = y;
  }
  return Curve(kind, std::move(pts), final_dy, final_dx);
}

/// Breakpoints of both curves plus (a - b) sign-crossing candidates, both
/// between breakpoints and in the affine tails - required so that clamped
/// differences and envelopes get a breakpoint wherever the winner changes.
std::vector<Time> refined_grid(const Curve& a, const Curve& b) {
  std::vector<Time> xs;
  for (const auto& p : a.points()) xs.push_back(p.x);
  for (const auto& p : b.points()) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  std::vector<Time> extra;
  // Interior crossings (linear estimate, bracketed by a neighbour point).
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const Time d0 = a.value(xs[i]) - b.value(xs[i]);
    const Time d1 = a.value(xs[i + 1]) - b.value(xs[i + 1]);
    if ((d0 < 0) != (d1 < 0) && xs[i + 1] - xs[i] > 1) {
      const Time span = xs[i + 1] - xs[i];
      const Time abs0 = d0 < 0 ? -d0 : d0;
      const Time abs1 = d1 < 0 ? -d1 : d1;
      const Time cross = xs[i] + span * abs0 / (abs0 + abs1);
      for (const Time c : {cross - 1, cross, cross + 1})
        if (c > xs[i] && c < xs[i + 1]) extra.push_back(c);
    }
  }
  // Tail crossing: beyond the last breakpoint both curves are affine with
  // slopes dya/dxa and dyb/dxb; insert the point where the difference
  // changes sign (if it does).
  const Time xl = xs.back();
  const Time d0 = a.value(xl) - b.value(xl);
  const Time num = a.final_dy() * b.final_dx() - b.final_dy() * a.final_dx();  // slope sign
  const Time den = a.final_dx() * b.final_dx();
  if (d0 < 0 && num > 0) {
    const Time cross = xl + ceil_div(-d0 * den, num);
    extra.push_back(cross);
    extra.push_back(cross + 1);
    if (cross > xl + 1) extra.push_back(cross - 1);
  } else if (d0 > 0 && num < 0) {
    const Time cross = xl + ceil_div(d0 * den, -num);
    extra.push_back(cross);
    extra.push_back(cross + 1);
    if (cross > xl + 1) extra.push_back(cross - 1);
  }
  xs.insert(xs.end(), extra.begin(), extra.end());
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

}  // namespace

Curve Curve::plus(const Curve& other) const {
  const auto xs = merged_grid(other);
  std::vector<Time> ys;
  for (const Time x : xs) ys.push_back(sat_add(value(x), other.value(x)));
  const Time dy = final_dy_ * other.final_dx_ + other.final_dy_ * final_dx_;
  const Time dx = final_dx_ * other.final_dx_;
  return from_samples(kind_, xs, ys, dy, dx);
}

Curve Curve::minus_clamped(const Curve& other) const {
  const auto xs = refined_grid(*this, other);
  std::vector<Time> ys;
  for (const Time x : xs) ys.push_back(std::max<Time>(0, value(x) - other.value(x)));
  const Time dy =
      std::max<Time>(0, final_dy_ * other.final_dx_ - other.final_dy_ * final_dx_);
  const Time dx = final_dx_ * other.final_dx_;
  return from_samples(kind_, xs, ys, dy, dx);
}

namespace {

Curve envelope(const Curve& a, const Curve& b, bool take_min) {
  const auto xs = refined_grid(a, b);
  std::vector<Time> ys;
  for (const Time x : xs)
    ys.push_back(take_min ? std::min(a.value(x), b.value(x))
                          : std::max(a.value(x), b.value(x)));
  // Final slope: the envelope's tail follows the smaller (min) or larger
  // (max) long-run rate.
  const Time ra = a.final_dy() * b.final_dx();
  const Time rb = b.final_dy() * a.final_dx();
  const bool use_a = take_min ? (ra <= rb) : (ra >= rb);
  const Time dy = use_a ? a.final_dy() : b.final_dy();
  const Time dx = use_a ? a.final_dx() : b.final_dx();
  std::vector<Curve::Point> pts;
  Time prev = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Time y = std::max(ys[i], prev);
    pts.push_back({xs[i], y});
    prev = y;
  }
  return Curve(a.kind(), std::move(pts), dy, dx);
}

}  // namespace

Curve Curve::min_with(const Curve& other) const { return envelope(*this, other, true); }

Curve Curve::max_with(const Curve& other) const { return envelope(*this, other, false); }

Curve Curve::shifted_left(Time shift) const {
  if (shift < 0) throw std::invalid_argument("Curve::shifted_left: negative shift");
  if (shift == 0) return *this;
  std::vector<Point> pts;
  pts.push_back({0, value(shift)});
  for (const auto& p : points_) {
    if (p.x > shift) pts.push_back({p.x - shift, std::max(p.y, pts.back().y)});
  }
  return Curve(kind_, std::move(pts), final_dy_, final_dx_);
}

namespace {

/// True when `c` interpolates with a fractional slope anywhere strictly
/// inside the interval starting at grid point `x0` — i.e. its rounded
/// evaluation there can deviate from the exact linear value.  `x0` is a
/// merged-grid point, so the interval lies within ONE segment of `c` (or
/// its affine tail).
bool rounds_inside(const Curve& c, Time x0) {
  const auto& pts = c.points();
  if (x0 >= pts.back().x) return c.final_dy() % c.final_dx() != 0;
  std::size_t lo = 0, hi = pts.size() - 1;
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (pts[mid].x <= x0)
      lo = mid;
    else
      hi = mid;
  }
  const Time dy = pts[lo + 1].y - pts[lo].y;
  const Time dx = pts[lo + 1].x - pts[lo].x;
  return dy % dx != 0;
}

}  // namespace

Time Curve::max_vertical_deviation(const Curve& other) const {
  // Finite only if our long-run rate does not exceed the other's.
  if (final_dy_ * other.final_dx_ > other.final_dy_ * final_dx_)
    throw AnalysisError("Curve: vertical deviation unbounded (rate exceeds service)");
  const auto xs = merged_grid(other);
  Time best = 0;
  for (const Time x : xs) best = std::max(best, value(x) - other.value(x));

  // Rounding sweep.  The grid difference is exact AT every breakpoint, but
  // between breakpoints (and in the affine tail) the ceiling interpolation
  // of `this` and the floor interpolation of `other` each deviate from the
  // exact linear value by strictly less than 1 — so the rounded difference
  // can exceed the grid maximum by exactly one unit (e.g. two parallel
  // curves of slope 1/2: grid difference 0, but ceil(x/2) - floor(x/2) = 1
  // at every odd x).  The old implementation probed only the grid and
  // UNDERESTIMATED the sup in such cases.  Sweep the interior of every
  // interval where either operand actually rounds; where a sweep would
  // exceed the budget, fall back to the provable +1 slack (the exact
  // linear difference never exceeds the grid maximum — linear per interval
  // with all breakpoints on the grid, non-increasing in the tail by the
  // rate check — so sup <= grid max + 1 in integers).
  constexpr Time kScanLimit = Time{1} << 16;
  bool guard = false;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const Time x0 = xs[i];
    const Time x1 = xs[i + 1];
    if (x1 - x0 <= 1) continue;  // no interior integer, rounding cannot manifest
    if (!rounds_inside(*this, x0) && !rounds_inside(other, x0)) continue;
    if (x1 - x0 - 1 > kScanLimit) {
      guard = true;
      continue;
    }
    for (Time x = x0 + 1; x < x1; ++x) best = std::max(best, value(x) - other.value(x));
  }
  const Time xl = xs.back();
  if (rounds_inside(*this, xl) || rounds_inside(other, xl)) {
    // Tail: equal long-run rates make the rounded difference periodic in
    // lcm(final_dx) (a full period scanned = exact); a strictly smaller
    // rate makes the linear difference decrease, so once the rounded
    // difference (an upper bound on the linear one) falls 2 below the
    // running max, nothing later can beat it.
    const bool equal_rates = final_dy_ * other.final_dx_ == other.final_dy_ * final_dx_;
    Time period = 0;
    if (equal_rates) {
      const Time g = std::gcd(final_dx_, other.final_dx_);
      period = final_dx_ / g * other.final_dx_;
    }
    bool settled = false;
    for (Time x = xl + 1; x <= sat_add(xl, kScanLimit); ++x) {
      const Time d = value(x) - other.value(x);
      best = std::max(best, d);
      if (equal_rates ? (x - xl >= period) : (d + 2 <= best)) {
        settled = true;
        break;
      }
    }
    if (!settled) guard = true;
  }
  return guard ? best + 1 : best;
}

Time Curve::max_horizontal_deviation(const Curve& other) const {
  if (final_dy_ * other.final_dx_ > other.final_dy_ * final_dx_)
    throw AnalysisError("Curve: horizontal deviation unbounded (rate exceeds service)");
  // Candidates: our breakpoints, x-positions where our value crosses the
  // other's breakpoint ordinates (and the level just above each — the
  // other's inverse jumps BETWEEN integer levels, so a plateau's worst
  // backlog of demand sits one event above its ordinate), and one tail
  // point.  Each candidate is probed together with both neighbours: the
  // rounded value() can step between breakpoints, so the widest horizontal
  // gap may start one step off a breakpoint.
  std::vector<Time> candidates;
  for (const auto& p : points_) candidates.push_back(p.x);
  for (const auto& p : other.points_) {
    for (const Time level : {p.y, sat_add(p.y, 1)}) {
      const Time x = inverse(level);
      if (!is_infinite(x)) candidates.push_back(x);
    }
  }
  candidates.push_back(std::max(points_.back().x, other.points_.back().x) * 2 + 1);
  const std::size_t seeded = candidates.size();
  for (std::size_t i = 0; i < seeded; ++i) {
    if (candidates[i] > 0) candidates.push_back(candidates[i] - 1);
    candidates.push_back(sat_add(candidates[i], 1));
  }
  Time best = 0;
  for (const Time x : candidates) {
    if (is_infinite(x)) continue;  // saturated +1 neighbour of the tail probe
    const Time y = value(x);
    const Time x2 = other.inverse(y);
    if (is_infinite(x2))
      throw AnalysisError("Curve: horizontal deviation unbounded (service saturates)");
    if (x2 > x) best = std::max(best, x2 - x);
  }
  return best;
}

Curve Curve::min_plus_conv(const Curve& other) const {
  // Breakpoints of the convolution are sums of operand breakpoints.
  std::vector<Time> xs;
  for (const auto& pa : points_)
    for (const auto& pb : other.points_) xs.push_back(pa.x + pb.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  // Split-candidate lambdas for a given x: own breakpoints and x minus the
  // other's breakpoints (the min of a PWL objective sits at a breakpoint of
  // either piece).
  const auto conv_at = [&](Time x) {
    Time best = kTimeInfinity;
    for (const auto& pa : points_) {
      if (pa.x > x) break;
      best = std::min(best, sat_add(value(pa.x), other.value(x - pa.x)));
    }
    for (const auto& pb : other.points_) {
      if (pb.x > x) break;
      best = std::min(best, sat_add(value(x - pb.x), other.value(pb.x)));
    }
    return best;
  };

  std::vector<Time> ys;
  for (const Time x : xs) ys.push_back(conv_at(x));
  // Tail: the flatter operand wins.
  const bool use_self = final_dy_ * other.final_dx_ <= other.final_dy_ * final_dx_;
  const Time dy = use_self ? final_dy_ : other.final_dy_;
  const Time dx = use_self ? final_dx_ : other.final_dx_;
  return from_samples(kind_, xs, ys, dy, dx);
}

Curve Curve::min_plus_deconv(const Curve& other) const {
  if (final_dy_ * other.final_dx_ > other.final_dy_ * final_dx_)
    throw AnalysisError("Curve: deconvolution unbounded (rate exceeds the deconvolver's)");
  // Output breakpoints: our breakpoints shifted by the other's breakpoints.
  std::vector<Time> xs{0};
  for (const auto& pa : points_) {
    xs.push_back(pa.x);
    for (const auto& pb : other.points_)
      if (pa.x > pb.x) xs.push_back(pa.x - pb.x);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  // Supremum candidates: the other's breakpoints, our breakpoints shifted
  // back, and one tail sample (the sup of an eventually-non-increasing PWL
  // objective sits at such a point).
  const Time tail = std::max(points_.back().x, other.points_.back().x) * 2 + 1;
  const auto deconv_at = [&](Time x) {
    Time best = 0;
    const auto probe = [&](Time l) {
      if (l < 0) return;
      best = std::max(best, value(sat_add(x, l)) - other.value(l));
    };
    for (const auto& pb : other.points_) probe(pb.x);
    for (const auto& pa : points_) probe(pa.x - x);
    probe(tail);
    return best;
  };

  std::vector<Time> ys;
  for (const Time x : xs) ys.push_back(deconv_at(x));
  return from_samples(kind_, xs, ys, final_dy_, final_dx_);
}

std::string Curve::describe() const {
  std::ostringstream os;
  os << (kind_ == CurveKind::kUpper ? "upper" : "lower") << "PWL(" << points_.size()
     << " pts, tail " << final_dy_ << "/" << final_dx_ << ")";
  return os.str();
}

}  // namespace hem::rtc
