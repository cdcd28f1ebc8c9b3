#include "sched/busy_window.hpp"

#include <algorithm>
#include <set>

#include "obs/obs.hpp"

namespace hem::sched {

namespace {

// Fixpoint probes: one least_fixpoint call per busy-window / completion-time
// candidate, so `candidates` counts the w(q) evaluations of a run and the
// histogram shows how many demand-function steps each needed.
obs::Counter& g_fixpoint_candidates = obs::registry().counter("sched.busy_window.candidates");
obs::Counter& g_fixpoint_steps = obs::registry().counter("sched.busy_window.fixpoint_steps");
obs::Histogram& g_fixpoint_hist =
    obs::registry().histogram("sched.busy_window.steps_per_fixpoint");

}  // namespace

namespace detail {

std::optional<FixpointFailure> fixpoint_interrupted(const FixpointLimits& limits) {
  if (limits.cancel != nullptr && limits.cancel->cancelled()) return FixpointFailure::kCancelled;
  if (limits.deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= limits.deadline)
    return FixpointFailure::kTimeBudget;
  return std::nullopt;
}

void throw_fixpoint_failure(FixpointFailure failure, const std::string& what, long steps,
                            const FixpointLimits& limits) {
  switch (failure) {
    case FixpointFailure::kCancelled:
      throw AnalysisError(what + ": cancelled (" +
                              std::string(exec::to_string(limits.cancel->reason())) +
                              ") after " + std::to_string(steps) + " fixpoint steps",
                          ErrorCode::kCancelled);
    case FixpointFailure::kTimeBudget:
      throw AnalysisError(what + ": wall-clock budget exhausted after " +
                              std::to_string(steps) + " fixpoint steps",
                          ErrorCode::kTimeBudget);
    case FixpointFailure::kNotMonotone:
      throw AnalysisError(what + ": demand function is not monotone (internal error)");
    case FixpointFailure::kWindowLimit:
      throw AnalysisError(what + ": busy window exceeds limit (" +
                              std::to_string(limits.max_window) +
                              " ticks) - resource overloaded?",
                          ErrorCode::kWindowLimit);
    case FixpointFailure::kIterationLimit:
      break;
  }
  throw AnalysisError(what + ": fixpoint iteration did not converge within " +
                          std::to_string(limits.max_iterations) + " steps",
                      ErrorCode::kIterationLimit);
}

void record_fixpoint(long steps) {
  if (!obs::counting()) return;
  g_fixpoint_candidates.add(1);
  g_fixpoint_steps.add(steps);
  g_fixpoint_hist.record(steps);
}

}  // namespace detail

Count backlog_bound(const EventModel& activation, const std::vector<Time>& completion_times) {
  // backlog(q) = q - #{p | w(p) <= delta-(q)}.  Over the sorted completion
  // times that count is a pointer following delta-(q): forward while it
  // grows (always, for a well-formed model), backward should it shrink.
  std::vector<Time> sorted;
  const std::vector<Time>* w = &completion_times;
  if (!std::is_sorted(completion_times.begin(), completion_times.end())) {
    sorted = completion_times;
    std::sort(sorted.begin(), sorted.end());
    w = &sorted;
  }
  const std::size_t size = w->size();
  Count worst = 0;
  std::size_t completed = 0;
  for (std::size_t q = 1; q <= size; ++q) {
    const Time arrival = activation.delta_min(static_cast<Count>(q));
    while (completed < size && (*w)[completed] <= arrival) ++completed;
    while (completed > 0 && (*w)[completed - 1] > arrival) --completed;
    worst = std::max(worst, static_cast<Count>(q - completed));
  }
  return worst;
}

void throw_unbounded_burst(std::string_view analysis, const std::string& task) {
  throw AnalysisError(std::string(analysis) + ": unbounded burst from '" + task + "'");
}

HigherPriorityDemand::HigherPriorityDemand(const std::vector<TaskParams>& tasks,
                                           const TaskParams& self, std::string_view analysis)
    : analysis_(analysis) {
  for (const auto& t : tasks)
    if (t.priority < self.priority) hp_.push_back({&t, EtaPlusCursor(*t.activation)});
}

void validate_priority_task_set(const std::vector<TaskParams>& tasks, const std::string& what) {
  if (tasks.empty()) throw std::invalid_argument(what + ": empty task set");
  std::set<int> prios;
  for (const auto& t : tasks) {
    if (t.name.empty()) throw std::invalid_argument(what + ": task with empty name");
    if (!t.activation)
      throw std::invalid_argument(what + ": task '" + t.name + "' has no activation model");
    if (!prios.insert(t.priority).second)
      throw std::invalid_argument(what + ": duplicate priority " + std::to_string(t.priority) +
                                  " (task '" + t.name + "')");
  }
}

}  // namespace hem::sched
