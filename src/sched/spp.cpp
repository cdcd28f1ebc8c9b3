#include "sched/spp.hpp"

#include <algorithm>

namespace hem::sched {

SppAnalysis::SppAnalysis(std::vector<TaskParams> tasks, FixpointLimits limits)
    : tasks_(std::move(tasks)), limits_(limits) {
  validate_priority_task_set(tasks_, "SppAnalysis");
}

ResponseResult SppAnalysis::analyze(std::size_t index) const {
  const TaskParams& self = tasks_.at(index);
  HigherPriorityDemand interference(tasks_, self, "SppAnalysis");
  EtaPlusCursor own(*self.activation);

  // Maximal level-i busy period.
  const Time busy = least_fixpoint(
      [&](Time w) {
        const Time demand =
            sat_mul(self.cet.worst, bounded_eta_plus(own, w, "SppAnalysis", self.name));
        return sat_add(demand, interference(w));
      },
      self.cet.worst, limits_, [&] { return "SppAnalysis(" + self.name + ") busy period"; });

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
    const Time w = least_fixpoint(
        [&](Time w_cur) { return sat_add(sat_mul(self.cet.worst, q), interference(w_cur)); },
        std::max(w_prev, sat_mul(self.cet.worst, q)), limits_,
        [&] { return "SppAnalysis(" + self.name + ") q=" + std::to_string(q); });
    w_prev = w;
    completions.push_back(w);
    const Time response = w - self.activation->delta_min(q);
    res.wcrt = std::max(res.wcrt, response);
  }
  res.backlog = backlog_bound(*self.activation, completions);
  return res;
}

std::vector<ResponseResult> SppAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
