#include "sched/resource_server.hpp"

#include <algorithm>

namespace hem::sched {

PeriodicServer::PeriodicServer(Time pi, Time theta) : pi_(pi), theta_(theta) {
  if (pi <= 0) throw std::invalid_argument("PeriodicServer: Pi must be positive");
  if (theta <= 0 || theta > pi)
    throw std::invalid_argument("PeriodicServer: need 0 < Theta <= Pi");
}

Time PeriodicServer::sbf(Time t) const {
  const Time gap = pi_ - theta_;
  const Time tp = t - gap;
  if (tp <= 0) return 0;
  const Time k = tp / pi_;
  const Time rem = tp - k * pi_;
  return k * theta_ + std::max<Time>(0, rem - gap);
}

Time PeriodicServer::sbf_inverse(Time demand) const {
  if (demand <= 0) return 0;
  const Time gap = pi_ - theta_;
  // demand = k * Theta + rem with rem in (0, Theta].
  const Time k = (demand - 1) / theta_;
  const Time rem = demand - k * theta_;
  // Initial blackout gap, k whole periods, another gap inside the period,
  // then rem ticks of supply.
  return gap + k * pi_ + gap + rem;
}

BoundedDelayServer::BoundedDelayServer(Time delay, Time rate_num, Time rate_den)
    : delay_(delay), num_(rate_num), den_(rate_den) {
  if (delay < 0) throw std::invalid_argument("BoundedDelayServer: negative delay");
  if (rate_num <= 0 || rate_den <= 0 || rate_num > rate_den)
    throw std::invalid_argument("BoundedDelayServer: need 0 < rate <= 1");
}

Time BoundedDelayServer::sbf(Time t) const {
  if (t <= delay_) return 0;
  return (t - delay_) * num_ / den_;
}

Time BoundedDelayServer::sbf_inverse(Time demand) const {
  if (demand <= 0) return 0;
  // Smallest t with (t - delay) * num / den >= demand.
  return delay_ + ceil_div(demand * den_, num_);
}

std::string BoundedDelayServer::describe() const {
  return "BoundedDelay(Delta=" + std::to_string(delay_) + ", rate=" + std::to_string(num_) +
         "/" + std::to_string(den_) + ")";
}

BoundedDelayServer BoundedDelayServer::from_periodic(const PeriodicServer& server) {
  return BoundedDelayServer(2 * (server.pi() - server.theta()), server.theta(), server.pi());
}

std::string PeriodicServer::describe() const {
  return "PeriodicServer(Pi=" + std::to_string(pi_) + ", Theta=" + std::to_string(theta_) + ")";
}

ServerSppAnalysis::ServerSppAnalysis(SupplyPtr supply, std::vector<TaskParams> tasks,
                                     FixpointLimits limits)
    : supply_(std::move(supply)), tasks_(std::move(tasks)), limits_(limits) {
  if (!supply_) throw std::invalid_argument("ServerSppAnalysis: null supply model");
  validate_priority_task_set(tasks_, "ServerSppAnalysis");
}

ServerSppAnalysis::ServerSppAnalysis(const PeriodicServer& server,
                                     std::vector<TaskParams> tasks, FixpointLimits limits)
    : ServerSppAnalysis(std::make_shared<PeriodicServer>(server), std::move(tasks), limits) {}

ResponseResult ServerSppAnalysis::analyze(std::size_t index) const {
  const TaskParams& self = tasks_.at(index);
  HigherPriorityDemand interference(tasks_, self, "ServerSppAnalysis");
  EtaPlusCursor own(*self.activation);

  // Closed-window interference (+1), matching the SPP convention.
  const auto demand = [&](Time w, Count q) {
    return sat_add(sat_mul(self.cet.worst, q), interference(w));
  };

  // Busy period in physical time: smallest t with sbf(t) >= level-i demand.
  const Time busy = least_fixpoint(
      [&](Time w) {
        const Count n = bounded_eta_plus(own, w, "ServerSppAnalysis", self.name);
        return supply_->sbf_inverse(demand(w, std::max<Count>(1, n)));
      },
      supply_->sbf_inverse(self.cet.worst), limits_,
      [&] { return "ServerSppAnalysis(" + self.name + ") busy period"; });

  const Count q_max = std::max<Count>(1, own.at(busy));

  ResponseResult res;
  res.name = self.name;
  res.busy_period = busy;
  res.activations = q_max;
  // Best case: full supply available immediately and no interference.
  res.bcrt = self.cet.best;

  Time w_prev = 0;
  for (Count q = 1; q <= q_max; ++q) {
    const Time w = least_fixpoint(
        [&](Time w_cur) { return supply_->sbf_inverse(demand(w_cur, q)); },
        std::max(w_prev, supply_->sbf_inverse(sat_mul(self.cet.worst, q))), limits_,
        [&] { return "ServerSppAnalysis(" + self.name + ") q=" + std::to_string(q); });
    w_prev = w;
    res.wcrt = std::max(res.wcrt, w - self.activation->delta_min(q));
  }
  return res;
}

std::vector<ResponseResult> ServerSppAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
