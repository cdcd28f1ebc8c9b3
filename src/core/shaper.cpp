#include "core/shaper.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/errors.hpp"

namespace hem {

MinDistanceShaper::MinDistanceShaper(ModelPtr input, Time distance, Count horizon)
    : EventModel(std::min(rate_of(input), Rate::of(1, distance))),
      input_(std::move(input)),
      distance_(distance) {
  if (!input_) throw std::invalid_argument("MinDistanceShaper: null input model");
  if (distance <= 0) throw std::invalid_argument("MinDistanceShaper: distance must be > 0");
  if (horizon < 2) throw std::invalid_argument("MinDistanceShaper: horizon must be >= 2");
  // Delay bound: the i-th event of a maximal burst leaves at (i-1)*d after
  // the burst head but may arrive as early as delta-(i) after it.
  Time best = 0;
  Count best_n = 1;
  for (Count n = 2; n <= horizon; ++n) {
    const Time dmin = input_->delta_min(n);
    if (is_infinite(dmin)) break;  // stream exhausted; delay cannot grow further
    const Time lag = sat_mul(distance_, n - 1) - dmin;
    if (lag > best) {
      best = lag;
      best_n = n;
    }
  }
  if (best_n == horizon)
    throw AnalysisError(
        "MinDistanceShaper: delay bound still growing at the scan horizon; the input's "
        "long-run rate exceeds the shaper rate (input " +
        input_->describe() + ", d=" + std::to_string(distance) + ")");
  delay_bound_ = best;
}

Time MinDistanceShaper::delta_min_raw(Count n) const {
  // Max-plus convolution of the input curve with the shaping curve
  // (k = n gives delta-(n), k = 1 gives (n-1)*d; interior splits tighten).
  Time best = 0;
  for (Count k = 1; k <= n; ++k)
    best = std::max(best, sat_add(input_->delta_min(k), sat_mul(distance_, n - k)));
  return best;
}

Time MinDistanceShaper::delta_plus_raw(Count n) const {
  return sat_add(input_->delta_plus(n), delay_bound_);
}

std::string MinDistanceShaper::describe() const {
  std::ostringstream os;
  os << "Shaper(d=" << distance_ << ", D=" << delay_bound_ << ", " << input_->describe() << ")";
  return os.str();
}

}  // namespace hem
