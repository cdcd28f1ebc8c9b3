#include "core/trace_model.hpp"

#include <algorithm>
#include <sstream>

namespace hem {

// A trace is a finite stream: eta+ saturates at its length, so its slope is
// zero.
TraceModel::TraceModel(std::vector<Time> timestamps)
    : EventModel(Rate{}), times_(std::move(timestamps)) {
  std::sort(times_.begin(), times_.end());
}

Time TraceModel::delta_min_raw(Count n) const {
  if (n > length()) return kTimeInfinity;
  Time best = kTimeInfinity;
  const auto span = static_cast<std::size_t>(n - 1);
  for (std::size_t i = 0; i + span < times_.size(); ++i)
    best = std::min(best, times_[i + span] - times_[i]);
  return best;
}

Time TraceModel::delta_plus_raw(Count n) const {
  if (n > length()) return kTimeInfinity;
  Time best = 0;
  const auto span = static_cast<std::size_t>(n - 1);
  for (std::size_t i = 0; i + span < times_.size(); ++i)
    best = std::max(best, times_[i + span] - times_[i]);
  return best;
}

Count TraceModel::max_events_in_window(Time dt) const {
  if (dt <= 0 || times_.empty()) return 0;
  Count best = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < times_.size(); ++hi) {
    while (times_[hi] - times_[lo] >= dt) ++lo;
    best = std::max(best, static_cast<Count>(hi - lo + 1));
  }
  return best;
}

std::string TraceModel::describe() const {
  std::ostringstream os;
  os << "Trace(" << times_.size() << " events";
  if (!times_.empty()) os << ", [" << times_.front() << ", " << times_.back() << "]";
  os << ")";
  return os.str();
}

}  // namespace hem
