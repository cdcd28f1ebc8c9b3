#pragma once

/// \file cpa_engine.hpp
/// Global compositional analysis: iterate between local scheduling analysis
/// and output event-stream calculation until the system reaches a fixpoint.
///
/// Each global iteration (paper section 1):
///   1. resolve every task's activation stream from the current output
///      streams of its producers (external models, OR-combinations, packed
///      hierarchical models, unpacked inner streams);
///   2. run the local analysis of every resource whose tasks are all
///      resolved, obtaining response-time intervals [r-, r+];
///   3. compute output streams: Theta_tau on flat streams, outer output +
///      inner update on hierarchical streams.
/// Convergence is detected by comparing response times and sampled
/// activation curves between consecutive iterations.
///
/// The engine is INCREMENTAL and PARALLEL:
///   * Dirty-set scheduling - every model node carries a stable identity
///     (nodes are immutable), so an activation whose producer nodes did not
///     change between iterations is provably unchanged.  Resources whose
///     complete input set is clean skip their local analysis and keep the
///     prior ResponseResults; see AnalysisReport::stats for the counters.
///   * Node reuse - resolve/output steps return the previous DAG node
///     (keeping its warm delta-curve memoisation) when all inputs are
///     pointer-identical, instead of reconstructing OrModel/OutputModel/
///     pack nodes every round.
///   * Worker pool - each iteration flattens the dirty resources into
///     per-TASK work units (one busy-window analysis each) and fans them
///     onto a persistent work-stealing pool of `EngineOptions::jobs`
///     threads, so even a single wide resource parallelises.  Results,
///     diagnostics, and their order are bit-identical for every job count:
///     units write disjoint per-index slots, and the reduction (recording
///     results, emitting diagnostics, picking which error wins) happens
///     serially in resource/task order after the batch completes.
///
/// Failure handling comes in two modes:
///   * graceful (default): a failing local analysis (overload, busy-window
///     divergence, exhausted budget) is recorded as a Diagnostic, the
///     affected tasks receive conservative fallback bounds (utilisation
///     envelope or infinity, sporadic-envelope output streams), downstream
///     tasks are tainted as degraded, and the run completes with a full
///     AnalysisReport carrying per-task statuses;
///   * strict: the first failure throws AnalysisError (the classic
///     all-or-nothing behaviour, useful in tests and schedulability
///     oracles).  With jobs > 1 the failure of the lowest-numbered dirty
///     resource is rethrown, matching the serial engine.

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "model/analysis_report.hpp"
#include "model/diagnostics.hpp"
#include "model/system.hpp"

namespace hem::exec {
class WorkPool;
}

namespace hem::cpa {

struct EngineSnapshot;

struct EngineOptions {
  int max_iterations = 64;
  Count compare_horizon = 64;  ///< delta-curve samples used for convergence
  sched::FixpointLimits fixpoint_limits{};
  bool check_overload = true;  ///< detect resource load > 1 before local analysis
  /// Classic SymTA/S-style propagation: re-fit every output stream to a
  /// standard event model instead of propagating exact curves.  Lossy but
  /// keeps the representation closed; exposed for the A4 ablation and for
  /// users reproducing parameter-based tool results.
  bool propagate_fitted_sem = false;
  /// Throw AnalysisError on the first overload/divergence instead of
  /// degrading to conservative fallback bounds.
  bool strict = false;
  /// Wall-clock budget for the whole run in milliseconds (0 = unlimited).
  /// Propagated into every busy-window fixpoint via FixpointLimits; on
  /// exhaustion remaining tasks are reported as BudgetExhausted.
  long wall_clock_budget_ms = 0;
  /// Worker threads for the per-iteration local analyses: 1 = serial,
  /// 0 = one per hardware thread.  Results are bit-identical for every
  /// value (modulo wall-clock budgets, which are inherently timing
  /// dependent).
  int jobs = 1;
  /// Re-analyse only resources whose activation inputs changed since their
  /// last local analysis and reuse event-model nodes (with their warm
  /// memoisation caches) across iterations.  Disable to force the classic
  /// full re-evaluation every round (benchmark baseline).
  bool incremental = true;
  /// Lower stable model nodes to the flat compiled form (rtc/compile.hpp):
  /// an activation node that survived its last local analysis unchanged is
  /// frozen into dense delta-sample arrays plus an arrival-curve pair, so
  /// busy-window fixpoints answer delta/eta queries with a branch-free
  /// binary search instead of virtual DAG dispatch and atomic memo traffic.
  /// After convergence every task's activation and output node is compiled
  /// for report consumers (hemlint rate propagation, ModelChecker sweeps).
  /// Queries beyond the compiled horizon fall back to the lazy DAG, so
  /// results are bit-identical with the flag off (see docs/compilation.md);
  /// disable to benchmark the pure-lazy baseline.
  bool compile_curves = true;
  /// Optional cooperative cancellation token (not owned).  Polled once per
  /// global iteration and, via FixpointLimits, every few thousand
  /// busy-window fixpoint steps.  When it fires, run() throws
  /// AnalysisError(ErrorCode::kCancelled) in BOTH graceful and strict mode:
  /// a cancelled run must not masquerade as a degraded-but-valid report.
  const exec::CancelToken* cancel = nullptr;
  /// Warm-start snapshot from a previous converged run (not owned; must
  /// outlive the engine).  Tasks that provably have the same local-analysis
  /// input as in the snapshot run — matching structural signature,
  /// pointer-identical external nodes (see intern_external_models), an
  /// unchanged resource mate set — start in the analysed/converged state,
  /// so only the changed delta is recomputed.  Results are bit-identical to
  /// a cold run; EngineStats::warm_seeded counts the seeded tasks.
  const EngineSnapshot* warm = nullptr;
};

class CpaEngine {
 public:
  explicit CpaEngine(const System& system, EngineOptions options = {});
  ~CpaEngine();  // out-of-line: WorkPool is incomplete here

  /// Run the global iteration.  In graceful mode (default) always returns a
  /// report; per-task statuses and `report.diagnostics` describe any
  /// degradation.  In strict mode throws AnalysisError on divergence or
  /// overload.
  [[nodiscard]] AnalysisReport run();

  /// Capture the converged per-task state of the last run() for cross-run
  /// warm starting (EngineOptions::warm).  Only converged tasks of a
  /// converged run are captured — their bounds are fixpoints and therefore
  /// budget-independent; an empty snapshot (valid() == false) comes back
  /// when the last run did not converge or run() was never called.
  [[nodiscard]] EngineSnapshot make_snapshot() const;

 private:
  struct TaskState {
    ModelPtr act_flat;   ///< resolved flat activation (outer for HEMs)
    HemPtr act_hem;      ///< packed activation, if any
    ModelPtr out_flat;   ///< flat output after local analysis
    HemPtr out_hem;      ///< hierarchical output, frame tasks only
    bool analyzed = false;
    Time bcrt = 0;
    Time wcrt = 0;
    Count q_max = 0;
    Count backlog = 0;
    Time busy = 0;
    TaskStatus status = TaskStatus::kConverged;
    bool has_diag = false;      ///< `diag` carries a valid analysis record
    Diagnostic diag{};          ///< local-analysis failure/degradation record
    bool out_has_diag = false;  ///< `out_diag` carries a valid output record
    Diagnostic out_diag{};      ///< inner-update degradation record
    bool hem_degraded = false;  ///< inner streams replaced by fallback envelopes

    // Incremental bookkeeping.  Event-model nodes are immutable, so the raw
    // pointer of a node is a version stamp: identical pointer == identical
    // stream.
    std::vector<const void*> act_key;    ///< producer nodes act_flat was built from
    const void* analyzed_act = nullptr;  ///< activation node of the last local analysis
    const void* out_key_act = nullptr;   ///< inputs the current outputs were built from
    const void* out_key_hem = nullptr;
    Time out_key_bcrt = -1;
    Time out_key_wcrt = -1;

    // Convergence bookkeeping: previous iteration's observable state.
    ModelPtr prev_act;
    bool prev_analyzed = false;
    Time prev_bcrt = -1;
    Time prev_wcrt = -1;
  };

  void resolve_activations();
  void check_resource_load();
  void analyze_resources();

  /// Analyse-one-task closure for a resource's local analysis: calling it
  /// with task slot i (index into `ids`) returns that task's
  /// ResponseResult.  The underlying policy analysis object is shared and
  /// immutable after construction, so different slots may be evaluated
  /// concurrently from different threads.
  using LocalAnalyzeFn = std::function<sched::ResponseResult(std::size_t)>;
  [[nodiscard]] LocalAnalyzeFn make_local_analysis(ResourceId r,
                                                   const std::vector<TaskId>& ids) const;
  void compute_outputs();

  /// Compare this iteration's per-task state (analysed flag, response
  /// bounds, activation curves up to compare_horizon) against the previous
  /// iteration, recording per-task change flags for divergence handling.
  /// Early-exits per task: pointer-identical activation nodes are equal by
  /// construction, rebuilt nodes are sampled against the memoised previous
  /// curves only until the first mismatch.
  [[nodiscard]] bool update_convergence();

  [[nodiscard]] int effective_jobs() const;
  void seed_from_warm();

  void apply_resource_fallback(ResourceId r, const std::vector<TaskId>& ids,
                               TaskStatus status, DiagCode code, const std::string& detail);
  void finalize_divergence(bool budget_hit);
  void taint_downstream();
  [[nodiscard]] AnalysisReport assemble_report(int iterations, bool converged);

  const System& system_;
  EngineOptions options_;
  sched::FixpointLimits limits_;  ///< fixpoint limits incl. derived deadline
  std::vector<TaskState> state_;
  std::vector<char> resource_overloaded_;      ///< per-resource flag, this iteration
  std::map<ResourceId, Diagnostic> resource_diag_;
  std::vector<char> changed_;  ///< per-task: iteration N differs from N-1
  bool have_prev_ = false;     ///< at least one full iteration completed
  EngineStats stats_;
  /// Persistent worker pool for the per-task local-analysis units; created
  /// lazily on the first parallel batch (effective_jobs() > 1) and reused
  /// across global iterations so `--jobs` never pays per-iteration thread
  /// spawns.  Thread count is auto-capped to the system's task count — the
  /// maximum number of work units any batch can carry.
  std::unique_ptr<exec::WorkPool> pool_;
  int current_iteration_ = 0;
  long warm_seeded_ = 0;        ///< tasks seeded from EngineOptions::warm
  bool last_converged_ = false; ///< last run() reached the global fixpoint
};

}  // namespace hem::cpa
