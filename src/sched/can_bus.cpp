#include "sched/can_bus.hpp"

#include <algorithm>

namespace hem::sched {

CanBusAnalysis::CanBusAnalysis(std::vector<TaskParams> frames, FixpointLimits limits)
    : frames_(std::move(frames)), limits_(limits) {
  validate_priority_task_set(frames_, "CanBusAnalysis");
}

Time CanBusAnalysis::blocking(std::size_t index) const {
  const TaskParams& self = frames_.at(index);
  Time b = 0;
  for (const auto& f : frames_)
    if (f.priority > self.priority) b = std::max(b, f.cet.worst);
  return b;
}

ResponseResult CanBusAnalysis::analyze(std::size_t index) const {
  const TaskParams& self = frames_.at(index);
  const Time block = blocking(index);
  HigherPriorityDemand interference(frames_, self, "CanBusAnalysis");
  EtaPlusCursor own(*self.activation);

  const Time busy = least_fixpoint(
      [&](Time w) {
        const Time demand =
            sat_mul(self.cet.worst, bounded_eta_plus(own, w, "CanBusAnalysis", self.name));
        return sat_add(block, sat_add(demand, interference(w)));
      },
      sat_add(block, self.cet.worst), limits_,
      [&] { return "CanBusAnalysis(" + self.name + ") busy period"; });

  const Count q_max = std::max<Count>(1, own.at(busy));

  ResponseResult res;
  res.name = self.name;
  res.bcrt = self.cet.best;
  res.busy_period = busy;
  res.activations = q_max;

  Time w_prev = 0;
  std::vector<Time> completions;
  completions.reserve(static_cast<std::size_t>(q_max));
  for (Count q = 1; q <= q_max; ++q) {
    const Time base = sat_add(block, sat_mul(self.cet.worst, q - 1));
    const Time w = least_fixpoint(
        [&](Time w_cur) { return sat_add(base, interference(w_cur)); }, std::max(w_prev, base),
        limits_, [&] { return "CanBusAnalysis(" + self.name + ") q=" + std::to_string(q); });
    w_prev = w;
    completions.push_back(w + self.cet.worst);
    const Time response = w + self.cet.worst - self.activation->delta_min(q);
    res.wcrt = std::max(res.wcrt, response);
  }
  res.backlog = backlog_bound(*self.activation, completions);
  return res;
}

std::vector<ResponseResult> CanBusAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(frames_.size());
  for (std::size_t i = 0; i < frames_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
