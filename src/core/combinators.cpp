#include "core/combinators.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/standard_event_model.hpp"

namespace hem {

OrModel::OrModel(ModelPtr left, ModelPtr right)
    : EventModel(rate_of(left) + rate_of(right)),
      left_(std::move(left)),
      right_(std::move(right)) {
  if (!left_ || !right_) throw std::invalid_argument("OrModel: null input model");
}

Time OrModel::delta_min_raw(Count n) const {
  // eq. (3): min over k + (n - k) splits of max(delta-_l(k), delta-_r(n-k)).
  // a(k) = delta-_l(k) is non-decreasing and b(k) = delta-_r(n-k) is
  // non-increasing, so max(a, b) is valley-shaped; the minimum sits at the
  // crossing point, found by binary search in O(log n) child evaluations.
  const auto a = [&](Count k) { return left_->delta_min(k); };
  const auto b = [&](Count k) { return right_->delta_min(n - k); };
  // Smallest k in [0, n] with a(k) >= b(k); k = n always qualifies
  // (b(n) = delta-_r(0) = 0).
  Count lo = 0, hi = n;
  while (lo < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (a(mid) >= b(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  Time best = a(lo);                                  // k >= k*: max = a(k), min at k*
  if (lo > 0) best = std::min(best, b(lo - 1));       // k <  k*: max = b(k), min at k*-1
  return best;
}

Time OrModel::delta_plus_raw(Count n) const {
  // eq. (4): max over k_l + k_r = n - 2 of min(delta+_l(k_l + 2),
  // delta+_r(k_r + 2)).  A(k) = delta+_l(k+2) is non-decreasing and
  // B(k) = delta+_r(n-k) is non-increasing, so min(A, B) is hill-shaped;
  // binary search for the crossing point.
  const auto A = [&](Count k) { return left_->delta_plus(k + 2); };
  const auto B = [&](Count k) { return right_->delta_plus(n - k); };
  const Count k_max = n - 2;
  // Smallest k in [0, k_max] with A(k) >= B(k), or k_max + 1 if none.
  Count lo = 0, hi = k_max + 1;
  while (lo < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (mid <= k_max && A(mid) >= B(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  Time best = 0;
  if (lo <= k_max) best = std::max(best, B(lo));       // k >= k*: min = B(k), max at k*
  if (lo > 0) best = std::max(best, A(lo - 1));        // k <  k*: min = A(k), max at k*-1
  return best;
}

std::string OrModel::describe() const {
  std::ostringstream os;
  os << "OR(" << left_->describe() << ", " << right_->describe() << ")";
  return os.str();
}

ModelPtr or_combine(std::span<const ModelPtr> inputs) {
  if (inputs.empty()) throw std::invalid_argument("or_combine: no inputs");
  ModelPtr acc = inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i)
    acc = std::make_shared<OrModel>(acc, inputs[i]);
  return acc;
}

ModelPtr and_combine(std::span<const ModelPtr> inputs) {
  if (inputs.empty()) throw std::invalid_argument("and_combine: no inputs");
  Time period = -1;
  Time jitter = 0;
  Time d_min = kTimeInfinity;
  for (const ModelPtr& m : inputs) {
    const auto* sem = dynamic_cast<const StandardEventModel*>(m.get());
    if (sem == nullptr)
      throw std::invalid_argument(
          "and_combine: AND-activation requires standard event models (got " + m->describe() +
          ")");
    if (period == -1) period = sem->period();
    if (sem->period() != period)
      throw std::invalid_argument(
          "and_combine: AND-activation requires a common period (token buffers would grow "
          "without bound otherwise)");
    jitter = std::max(jitter, sem->jitter());
    d_min = std::min(d_min, sem->d_min());
  }
  return std::make_shared<StandardEventModel>(period, jitter, d_min);
}

}  // namespace hem
