#pragma once

/// \file busy_window.hpp
/// Shared types and fixpoint machinery for busy-window local analyses
/// (Lehoczky's technique, as used at the component level of compositional
/// scheduling analysis).
///
/// All local analyses in this library follow the same scheme: determine the
/// length L of the maximal level-i busy period, the number Q of activations
/// of the task under analysis inside it, compute per-activation completion
/// times w(q) as least fixpoints of a demand equation, and report
///
///     R+ = max_{q in 1..Q} ( w(q) - delta-(q) )
///
/// where delta-(q) is the earliest arrival of the q-th activation relative
/// to the critical instant.

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/event_model.hpp"
#include "core/errors.hpp"
#include "exec/cancel.hpp"

namespace hem::sched {

/// Best-case / worst-case execution (or transmission) time interval [C-, C+].
struct ExecutionTime {
  Time best;
  Time worst;

  ExecutionTime(Time b, Time w) : best(b), worst(w) {
    if (b < 0 || w < b) throw std::invalid_argument("ExecutionTime: need 0 <= C- <= C+");
  }
  /// Deterministic execution time [c, c].
  explicit ExecutionTime(Time c) : ExecutionTime(c, c) {}
};

/// A task (or bus frame) as seen by a local analysis.
struct TaskParams {
  std::string name;
  int priority;  ///< numerically smaller value = higher priority
  ExecutionTime cet;
  ModelPtr activation;  ///< activation event model (outer stream for HEMs)
};

/// Result of a local response-time analysis for one task.
struct ResponseResult {
  std::string name;
  Time bcrt = 0;         ///< best-case response time r-
  Time wcrt = 0;         ///< worst-case response time r+
  Count activations = 0; ///< activations examined in the busy period
  Time busy_period = 0;  ///< length of the maximal level-i busy period
  Count backlog = 0;     ///< max simultaneously pending activations (buffer bound)
};

/// Maximum number of simultaneously pending activations within a busy
/// period, given the earliest arrival curve and the per-activation
/// completion times w(1..Q): when the q-th activation arrives at
/// delta-(q), exactly those p with w(p) <= delta-(q) have completed.
/// Sizing the activation queue to this bound guarantees no overflow.
[[nodiscard]] Count backlog_bound(const EventModel& activation,
                                  const std::vector<Time>& completion_times);

/// Iteration limits for all fixpoint computations.  A busy window that grows
/// beyond `max_window` or needs more than `max_iterations` steps indicates
/// an overloaded resource; the analyses then throw AnalysisError.
struct FixpointLimits {
  /// Busy windows beyond this length indicate an overloaded resource in any
  /// realistic tick granularity; keeping the cap moderate also bounds the
  /// memory of lazily materialised output-stream recursions during
  /// divergence.  Raise it for very fine-grained tick units.
  Time max_window = Time{1} << 28;
  long max_iterations = 1'000'000;
  /// Wall-clock deadline shared by every fixpoint computation of one
  /// analysis run (the global engine derives it from its own budget).
  /// Checked coarsely (every few thousand steps); exceeding it throws
  /// AnalysisError with ErrorCode::kTimeBudget.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Optional cooperative cancellation token, polled at the same coarse
  /// checkpoints as the deadline.  When it fires, the fixpoint throws
  /// AnalysisError with ErrorCode::kCancelled — which graceful mode does
  /// NOT degrade away (the engine rethrows it).  Not owned.
  const exec::CancelToken* cancel = nullptr;
};

namespace detail {

/// Failure kinds of `least_fixpoint`; each maps to one error text.
enum class FixpointFailure { kCancelled, kTimeBudget, kNotMonotone, kWindowLimit, kIterationLimit };

/// The interruption pending at a checkpoint (cancel token, then deadline).
[[nodiscard]] std::optional<FixpointFailure> fixpoint_interrupted(const FixpointLimits& limits);

/// Throw the AnalysisError for `failure` after `steps` steps of the fixpoint
/// named `what`.
[[noreturn]] void throw_fixpoint_failure(FixpointFailure failure, const std::string& what,
                                         long steps, const FixpointLimits& limits);

/// Record one converged fixpoint and its step count in the obs probes.
void record_fixpoint(long steps);

template <class Label>
[[nodiscard]] std::string render_label(const Label& what) {
  if constexpr (std::is_invocable_v<const Label&>)
    return std::string(what());
  else
    return std::string(what);
}

}  // namespace detail

/// Least fixpoint of the monotone demand function `f`, starting from
/// `start`:  w_{k+1} = f(w_k) until w stabilises.  `what` names the fixpoint
/// in error messages: a string, or a callable returning one, which is only
/// invoked when the fixpoint fails.  Nothing is allocated on success.
/// \throws AnalysisError when limits are exceeded.
template <class F, class Label>
[[nodiscard]] Time least_fixpoint(F&& f, Time start, const FixpointLimits& limits,
                                  const Label& what) {
  using detail::FixpointFailure;
  using detail::render_label;
  using detail::throw_fixpoint_failure;
  Time w = start;
  for (long it = 0; it < limits.max_iterations; ++it) {
    if ((it & 4095) == 0) {
      if (const auto interrupted = detail::fixpoint_interrupted(limits))
        throw_fixpoint_failure(*interrupted, render_label(what), it, limits);
    }
    const Time next = f(w);
    if (next < w)
      throw_fixpoint_failure(FixpointFailure::kNotMonotone, render_label(what), it, limits);
    if (next == w) {
      detail::record_fixpoint(it + 1);
      return w;
    }
    if (next > limits.max_window)
      throw_fixpoint_failure(FixpointFailure::kWindowLimit, render_label(what), it, limits);
    w = next;
  }
  throw_fixpoint_failure(FixpointFailure::kIterationLimit, render_label(what),
                         limits.max_iterations, limits);
}

/// Throw "<analysis>: unbounded burst from '<task>'" (AnalysisError).
[[noreturn]] void throw_unbounded_burst(std::string_view analysis, const std::string& task);

/// eta+(dt) through `cursor`; throws `throw_unbounded_burst` when infinite.
[[nodiscard]] inline Count bounded_eta_plus(EtaPlusCursor& cursor, Time dt,
                                            std::string_view analysis, const std::string& task) {
  const Count n = cursor.at(dt);
  if (is_infinite_count(n)) throw_unbounded_burst(analysis, task);
  return n;
}

/// Demand of the tasks with a higher priority than `self` in the CLOSED
/// window [0, w]: sum_j C+_j * eta+_j(w + 1).  A higher-priority job released
/// at the very completion instant still preempts under tie-breaking-by-
/// priority semantics (eta+ uses strict inequalities, hence the +1).  Holds
/// one eta+ cursor per interferer, so the growing windows of a busy period,
/// and then of the q loop, resume each search where the last one ended.
class HigherPriorityDemand {
 public:
  HigherPriorityDemand(const std::vector<TaskParams>& tasks, const TaskParams& self,
                       std::string_view analysis);

  [[nodiscard]] Time operator()(Time w) {
    Time sum = 0;
    for (Interferer& j : hp_)
      sum = sat_add(sum, sat_mul(j.task->cet.worst,
                                 bounded_eta_plus(j.eta, sat_add(w, 1), analysis_, j.task->name)));
    return sum;
  }

 private:
  struct Interferer {
    const TaskParams* task;
    EtaPlusCursor eta;
  };
  std::vector<Interferer> hp_;
  std::string_view analysis_;
};

/// Validate a task set for priority-based analyses: non-empty names,
/// pairwise distinct priorities, non-null activation models.
void validate_priority_task_set(const std::vector<TaskParams>& tasks, const std::string& what);

}  // namespace hem::sched
