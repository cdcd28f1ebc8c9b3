#include "model/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hem::cpa {

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* to_string(DiagCode c) noexcept {
  switch (c) {
    case DiagCode::kResourceOverload: return "resource-overload";
    case DiagCode::kBusyWindowDivergence: return "busy-window-divergence";
    case DiagCode::kBusyWindowBudget: return "busy-window-budget";
    case DiagCode::kGlobalIterationLimit: return "global-iteration-limit";
    case DiagCode::kWallClockBudget: return "wall-clock-budget";
    case DiagCode::kUnresolvedActivation: return "unresolved-activation";
    case DiagCode::kInnerUpdateUnbounded: return "inner-update-unbounded";
    case DiagCode::kDegradedUpstream: return "degraded-upstream";
  }
  return "?";
}

void DiagnosticSink::report(Diagnostic d) {
  const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const Diagnostic& e) {
    return e.code == d.code && e.entity == d.entity;
  });
  if (it != entries_.end())
    *it = std::move(d);
  else
    entries_.push_back(std::move(d));
}

std::size_t DiagnosticSink::count(Severity s) const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(), [s](const Diagnostic& d) { return d.severity == s; }));
}

std::string DiagnosticSink::format() const {
  std::ostringstream os;
  for (const Diagnostic& d : entries_) {
    os << "[" << to_string(d.severity) << "] " << to_string(d.code) << " '" << d.entity
       << "' (iteration " << d.iteration << "): " << d.detail << '\n';
  }
  return os.str();
}

SporadicEnvelopeModel::SporadicEnvelopeModel(Time spacing)
    : EventModel(Rate::of(1, spacing)), spacing_(spacing) {
  if (spacing < 0 || is_infinite(spacing))
    throw std::invalid_argument("SporadicEnvelopeModel: need 0 <= spacing < infinity");
}

Time SporadicEnvelopeModel::delta_min_raw(Count n) const { return sat_mul(spacing_, n - 1); }

Time SporadicEnvelopeModel::delta_plus_raw(Count) const { return kTimeInfinity; }

std::string SporadicEnvelopeModel::describe() const {
  std::ostringstream os;
  os << "SporadicEnvelope(dmin=" << spacing_ << ", delta+=inf)";
  return os.str();
}

Time utilization_wcrt_envelope(const std::vector<EnvelopeTask>& tasks, Time horizon) {
  if (horizon <= 0) throw std::invalid_argument("utilization_wcrt_envelope: need horizon > 0");
  double demand = 0.0;  // D = sum C+_i * eta+_i(H)
  for (const EnvelopeTask& t : tasks) {
    if (!t.activation) continue;
    const Count events = t.activation->eta_plus(horizon);
    if (is_infinite_count(events)) return kTimeInfinity;
    demand += static_cast<double>(t.wcet) * static_cast<double>(events);
  }
  const double h = static_cast<double>(horizon);
  if (demand >= h) return kTimeInfinity;  // sampled utilisation >= 1
  const double bound = std::ceil(demand * h / (h - demand));
  if (bound >= static_cast<double>(kTimeInfinity)) return kTimeInfinity;
  return static_cast<Time>(bound);
}

}  // namespace hem::cpa
