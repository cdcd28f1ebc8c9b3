#pragma once

/// \file analysis_report.hpp
/// Results of a compositional system analysis run.

#include <optional>
#include <string>
#include <vector>

#include "core/event_model.hpp"
#include "hierarchical/hierarchical_event_model.hpp"
#include "model/diagnostics.hpp"

namespace hem::cpa {

/// Outcome class of one task's local analysis within the global run.
enum class TaskStatus {
  kConverged,         ///< exact bounds from a reached fixpoint
  kOverloaded,        ///< resource load > 1 (or busy window diverged); bounds are fallbacks
  kDiverged,          ///< global iteration found no fixpoint for this task
  kBudgetExhausted,   ///< iteration or wall-clock budget ran out; bounds are fallbacks
  kDegradedUpstream,  ///< own analysis fine, but a producer's bounds are fallbacks
};

[[nodiscard]] const char* to_string(TaskStatus s) noexcept;

/// Per-task outcome of the global analysis.
struct TaskResult {
  std::string name;
  std::string resource;
  Time bcrt = 0;
  Time wcrt = 0;
  Count activations_in_busy_period = 0;
  Time busy_period = 0;
  Count backlog = 0;  ///< activation-queue bound from the local analysis
  ModelPtr activation;   ///< flat activation model used by the local analysis
  ModelPtr output;       ///< flat output stream (Theta_tau applied)
  HemPtr hem_output;     ///< hierarchical output, for frame tasks only
  double utilization = 0.0;  ///< long-run load this task puts on its resource
  TaskStatus status = TaskStatus::kConverged;

  /// True when the bounds are conservative fallbacks rather than exact.
  [[nodiscard]] bool degraded() const noexcept { return status != TaskStatus::kConverged; }
};

/// Work counters of one CpaEngine run.  The incremental engine skips local
/// analyses whose inputs are unchanged and reuses event-model DAG nodes
/// (keeping their memoisation caches warm) across global iterations; these
/// counters quantify how much work that saved (see docs/performance.md).
/// The work counters are deterministic: they depend only on the system and
/// the engine options, never on the number of worker threads.  The
/// `cache_*`/`rec_extends` block is the exception — it mirrors the
/// process-wide lock-free model-cache probes (`engine.cache.*`), which are
/// only collected while obs counting is enabled and whose race counters
/// legitimately vary with thread interleaving.
struct EngineStats {
  long local_analyses_run = 0;      ///< resource-level local analyses executed
  long local_analyses_skipped = 0;  ///< clean resources that reused prior results
  long models_reused = 0;           ///< activation/output nodes reused across iterations
  long models_rebuilt = 0;          ///< activation/output nodes newly constructed
  long models_compiled = 0;         ///< nodes lowered to the flat compiled form
  long warm_seeded = 0;             ///< tasks pre-seeded from an EngineSnapshot
  int jobs = 1;                     ///< worker threads used by the run

  // engine.cache.* deltas over this run (zero unless obs::counting() was on
  // for the duration; best-effort when other engines run in-process).
  // The delta-memo and OutputModel-recursion race counters are reported
  // separately: they instrument different structures (per-sample slot
  // exchanges vs prefix-length CAS retries), and lumping the recursion
  // races into `cache_publish_races` — as earlier revisions did —
  // attributed OutputModel arena traffic to the curve caches.
  long cache_hits = 0;            ///< delta-curve samples served from a memo slot
  long cache_misses = 0;          ///< samples computed fresh (and then published)
  long cache_publish_races = 0;   ///< two workers computed the same delta sample
  long cache_segment_allocs = 0;  ///< lazy memo-segment allocations
  long rec_extends = 0;           ///< OutputModel recursion-prefix extensions
  long rec_publish_races = 0;     ///< OutputModel prefix-length CAS retries

  /// Fraction of resource-iteration slots served from the previous
  /// iteration's results instead of a fresh local analysis.
  [[nodiscard]] double analysis_cache_hit_rate() const noexcept {
    const long total = local_analyses_run + local_analyses_skipped;
    return total == 0 ? 0.0 : static_cast<double>(local_analyses_skipped) / total;
  }

  /// Fraction of per-iteration model-node demands served by reuse.
  [[nodiscard]] double node_reuse_rate() const noexcept {
    const long total = models_reused + models_rebuilt;
    return total == 0 ? 0.0 : static_cast<double>(models_reused) / total;
  }

  /// Fraction of delta-curve queries served from the lock-free memo
  /// (0 when obs counting was disabled and nothing was recorded).
  [[nodiscard]] double curve_cache_hit_rate() const noexcept {
    const long total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

/// Full report of a CpaEngine run.
struct AnalysisReport {
  std::vector<TaskResult> tasks;
  int iterations = 0;
  bool converged = false;
  EngineStats stats;           ///< work counters of the run
  DiagnosticSink diagnostics;  ///< structured findings of the run

  /// Lookup by task name; throws std::invalid_argument if absent.
  [[nodiscard]] const TaskResult& task(std::string_view name) const;

  /// True when any task carries fallback (non-exact) bounds.
  [[nodiscard]] bool degraded() const;

  /// Aligned text table of all task results.
  [[nodiscard]] std::string format() const;
};

}  // namespace hem::cpa
