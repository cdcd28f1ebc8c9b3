#include "sched/flexray_static.hpp"

#include <algorithm>

namespace hem::sched {

FlexRayStaticAnalysis::FlexRayStaticAnalysis(std::vector<FlexRayFrame> frames, Time cycle,
                                             Time slot_length, FixpointLimits limits)
    : frames_(std::move(frames)), cycle_(cycle), slot_length_(slot_length), limits_(limits) {
  if (frames_.empty()) throw std::invalid_argument("FlexRayStaticAnalysis: no frames");
  if (cycle <= 0 || slot_length <= 0 || slot_length > cycle)
    throw std::invalid_argument("FlexRayStaticAnalysis: need 0 < slot_length <= cycle");
  for (const auto& f : frames_) {
    if (!f.params.activation)
      throw std::invalid_argument("FlexRayStaticAnalysis: frame '" + f.params.name +
                                  "' has no activation model");
    if (f.params.cet.worst > slot_length)
      throw std::invalid_argument("FlexRayStaticAnalysis: frame '" + f.params.name +
                                  "' does not fit its slot");
  }
}

ResponseResult FlexRayStaticAnalysis::analyze(std::size_t index) const {
  const FlexRayFrame& self = frames_.at(index);
  const Time c = self.params.cet.worst;

  // Busy period: one slot per cycle serves the backlog.
  EtaPlusCursor own(*self.params.activation);
  const Time busy = least_fixpoint(
      [&](Time w) {
        const Count n = bounded_eta_plus(own, w, "FlexRayStaticAnalysis", self.params.name);
        return sat_add(sat_mul(cycle_, std::max<Count>(1, n)), c);
      },
      sat_add(cycle_, c), limits_,
      [&] { return "FlexRayStaticAnalysis(" + self.params.name + ") busy period"; });

  const Count q_max = std::max<Count>(1, own.at(busy));

  ResponseResult res;
  res.name = self.params.name;
  res.busy_period = busy;
  res.activations = q_max;
  // Best case: the slot starts right away.
  res.bcrt = self.params.cet.best;

  std::vector<Time> completions;
  completions.reserve(static_cast<std::size_t>(q_max));
  for (Count q = 1; q <= q_max; ++q) {
    const Time completion = sat_add(sat_mul(cycle_, q), c);
    completions.push_back(completion);
    res.wcrt = std::max(res.wcrt, completion - self.params.activation->delta_min(q));
  }
  res.backlog = backlog_bound(*self.params.activation, completions);
  return res;
}

std::vector<ResponseResult> FlexRayStaticAnalysis::analyze_all() const {
  std::vector<ResponseResult> out;
  out.reserve(frames_.size());
  for (std::size_t i = 0; i < frames_.size(); ++i) out.push_back(analyze(i));
  return out;
}

}  // namespace hem::sched
