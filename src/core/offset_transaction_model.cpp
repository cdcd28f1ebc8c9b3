#include "core/offset_transaction_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hem {

OffsetTransactionModel::OffsetTransactionModel(Time period, std::vector<Time> offsets,
                                               Time jitter)
    : EventModel(Rate::of(static_cast<Count>(offsets.size()), period)),
      period_(period),
      offsets_(std::move(offsets)),
      jitter_(jitter) {
  if (period <= 0) throw std::invalid_argument("OffsetTransactionModel: period must be > 0");
  if (offsets_.empty())
    throw std::invalid_argument("OffsetTransactionModel: needs at least one offset");
  if (jitter < 0) throw std::invalid_argument("OffsetTransactionModel: negative jitter");
  std::sort(offsets_.begin(), offsets_.end());
  for (const Time o : offsets_) {
    if (o < 0 || o >= period)
      throw std::invalid_argument("OffsetTransactionModel: offsets must lie in [0, period)");
  }
  // Order stability: jitter must not exceed the smallest inter-offset gap
  // (including the wrap-around gap).
  Time min_gap = kTimeInfinity;
  for (std::size_t i = 0; i + 1 < offsets_.size(); ++i)
    min_gap = std::min(min_gap, offsets_[i + 1] - offsets_[i]);
  min_gap = std::min(min_gap, period_ - offsets_.back() + offsets_.front());
  if (jitter_ > 0 && jitter_ > min_gap)
    throw std::invalid_argument(
        "OffsetTransactionModel: jitter exceeds the smallest inter-offset gap; event order "
        "would not be stable (use a StandardEventModel over-approximation instead)");
}

Time OffsetTransactionModel::nominal_span(std::size_t i, Count steps) const {
  const auto k = static_cast<Count>(offsets_.size());
  const Count target = static_cast<Count>(i) + steps;
  const Count wraps = target / k;
  const auto idx = static_cast<std::size_t>(target % k);
  return sat_add(sat_mul(period_, wraps), offsets_[idx] - offsets_[i]);
}

Time OffsetTransactionModel::delta_min_raw(Count n) const {
  Time best = kTimeInfinity;
  for (std::size_t i = 0; i < offsets_.size(); ++i)
    best = std::min(best, nominal_span(i, n - 1));
  return std::max<Time>(0, sat_sub(best, jitter_));
}

Time OffsetTransactionModel::delta_plus_raw(Count n) const {
  Time worst = 0;
  for (std::size_t i = 0; i < offsets_.size(); ++i)
    worst = std::max(worst, nominal_span(i, n - 1));
  return sat_add(worst, jitter_);
}

std::string OffsetTransactionModel::describe() const {
  std::ostringstream os;
  os << "Offsets(T=" << period_ << ", k=" << offsets_.size() << ", J=" << jitter_ << ")";
  return os.str();
}

}  // namespace hem
