#include "core/delta_function_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hem {

namespace {

void check_monotone(const std::vector<Time>& v, const char* name) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1])
      throw std::invalid_argument(std::string("DeltaFunctionModel: ") + name +
                                  " must be non-decreasing");
  }
}

/// q events per extension time p; zero when delta- reaches infinity (the
/// stream is finite), unbounded when p == 0 (delta- stops growing).
Rate extension_rate(const std::vector<Time>& dmin, Count events, Time time) {
  if (dmin.empty() || is_infinite(dmin.back()) || is_infinite(time)) return Rate{};
  return Rate::of(events, time);
}

}  // namespace

DeltaFunctionModel::DeltaFunctionModel(std::vector<Time> dmin_prefix,
                                       std::vector<Time> dplus_prefix, Count extension_events,
                                       Time extension_time)
    : EventModel(extension_rate(dmin_prefix, extension_events, extension_time)),
      dmin_(std::move(dmin_prefix)),
      dplus_(std::move(dplus_prefix)),
      ext_events_(extension_events),
      ext_time_(extension_time) {
  if (dmin_.empty()) throw std::invalid_argument("DeltaFunctionModel: empty dmin prefix");
  if (dmin_.size() != dplus_.size())
    throw std::invalid_argument("DeltaFunctionModel: prefix length mismatch");
  if (ext_events_ < 1)
    throw std::invalid_argument("DeltaFunctionModel: extension_events must be >= 1");
  if (ext_time_ < 0)
    throw std::invalid_argument("DeltaFunctionModel: extension_time must be >= 0");
  check_monotone(dmin_, "dmin");
  check_monotone(dplus_, "dplus");
  for (std::size_t i = 0; i < dmin_.size(); ++i) {
    if (dmin_[i] < 0) throw std::invalid_argument("DeltaFunctionModel: negative distance");
    if (dmin_[i] > dplus_[i])
      throw std::invalid_argument("DeltaFunctionModel: dmin must not exceed dplus");
  }
  // Extension must keep the curves non-decreasing: stepping back q events and
  // adding p must not drop below the last prefix value.
  if (static_cast<Count>(dmin_.size()) > ext_events_) {
    const std::size_t last = dmin_.size() - 1;
    const std::size_t back = last - static_cast<std::size_t>(ext_events_);
    if (sat_add(dmin_[back], ext_time_) < dmin_[last] ||
        sat_add(dplus_[back], ext_time_) < dplus_[last])
      throw std::invalid_argument("DeltaFunctionModel: extension breaks monotonicity");
  }
}

ModelPtr DeltaFunctionModel::periodic_burst(Count burst_size, Time inner_distance,
                                            Time outer_period) {
  if (burst_size < 1) throw std::invalid_argument("periodic_burst: burst_size must be >= 1");
  if (inner_distance < 0 || outer_period <= 0)
    throw std::invalid_argument("periodic_burst: invalid distances");
  if (sat_mul(inner_distance, burst_size - 1) >= outer_period)
    throw std::invalid_argument("periodic_burst: burst does not fit into the outer period");
  // Exact distances within one hyper-period of burst_size events (the
  // pattern is strictly periodic, so one period of values suffices).  A
  // window of n <= B events either stays inside one burst, spanning
  // (n-1)*d, or straddles the gap between bursts exactly once, spanning
  // (n-1)*d + (gap - d) wherever it starts; the gap may be shorter than d.
  // n == B + 1 events always span exactly one outer period.
  const Time gap = outer_period - inner_distance * (burst_size - 1);
  std::vector<Time> dmin;
  std::vector<Time> dplus;
  for (Count n = 2; n <= burst_size + 1; ++n) {
    if (n > burst_size) {
      dmin.push_back(outer_period);
      dplus.push_back(outer_period);
      continue;
    }
    const Time inside = inner_distance * (n - 1);
    const Time straddling = inside + gap - inner_distance;
    dmin.push_back(std::min(inside, straddling));
    dplus.push_back(std::max(inside, straddling));
  }
  auto model = std::make_shared<DeltaFunctionModel>(std::move(dmin), std::move(dplus),
                                                    burst_size, outer_period);
  model->burst_size_ = burst_size;
  model->burst_inner_ = inner_distance;
  model->burst_outer_ = outer_period;
  return model;
}

Time DeltaFunctionModel::eval(const std::vector<Time>& prefix, Count n) const {
  const Count last_n = static_cast<Count>(prefix.size()) + 1;  // prefix covers n in [2, last_n]
  if (n <= last_n) return prefix[static_cast<std::size_t>(n - 2)];
  const Count overflow = n - last_n;
  const Count periods = (overflow + ext_events_ - 1) / ext_events_;
  const Count base_n = n - periods * ext_events_;
  const Time base = base_n < 2 ? 0 : prefix[static_cast<std::size_t>(base_n - 2)];
  return sat_add(base, sat_mul(ext_time_, periods));
}

Time DeltaFunctionModel::delta_min_raw(Count n) const { return eval(dmin_, n); }

Time DeltaFunctionModel::delta_plus_raw(Count n) const { return eval(dplus_, n); }

std::string DeltaFunctionModel::describe() const {
  std::ostringstream os;
  os << "DeltaCurves(prefix=" << dmin_.size() << ", ext=" << ext_events_ << "ev/" << ext_time_
     << "t)";
  return os.str();
}

}  // namespace hem
