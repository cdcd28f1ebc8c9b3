#pragma once

/// \file engine_snapshot.hpp
/// Cross-run warm start for the CPA engine: a snapshot of one *converged*
/// run's per-task state, usable to seed a later run of the same or a
/// tweaked system so only the changed delta is re-analysed.
///
/// This makes the incremental engine's intra-run reuse (dirty-set
/// scheduling + node identity, see cpa_engine.hpp) work *across* engine
/// instances — the daemon (`hemcpad`) keeps snapshots alive in its warm
/// model cache keyed by config fingerprint, so resubmitting a variant of
/// an analysed configuration pays only its incremental cost.
///
/// Soundness model: the engine's dirty tracking is pointer-based, so warm
/// seeding only has to guarantee that a task seeded as "already analysed"
/// truly had an identical local-analysis input in the snapshot run.  That
/// holds when (a) the task's structural signature (resource spec, priority,
/// execution times, slot, deadline, activation shape) is unchanged, (b) its
/// external model nodes are pointer-identical (interning takes care of
/// that), (c) the full set of resource mates is unchanged (interference is
/// an input too), and (d) the snapshot task converged — converged bounds
/// are fixpoints and therefore independent of iteration/step budgets.
/// Everything not matching these rules simply starts cold: the result is
/// bit-identical to a cold run either way, only the work differs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/event_model.hpp"
#include "hierarchical/hierarchical_event_model.hpp"
#include "model/system.hpp"

namespace hem::cpa {

/// Converged per-task state captured by CpaEngine::make_snapshot().
struct EngineSnapshot {
  struct TaskSnap {
    std::string name;
    std::string resource;   ///< resource name (mate-set check)
    std::string signature;  ///< task_signature() at capture time
    ModelPtr act_flat;      ///< resolved activation node (keeps memoisation warm)
    HemPtr act_hem;         ///< packed activation, frame tasks only
    ModelPtr out_flat;      ///< output node after the local analysis
    HemPtr out_hem;         ///< hierarchical output, frame tasks only
    std::vector<const void*> act_key;  ///< producer nodes act_flat was built from
    Time bcrt = 0;
    Time wcrt = 0;
    Count q_max = 0;
    Count backlog = 0;
    Time busy = 0;
    // External nodes referenced by the activation spec, for interning.
    ModelPtr external;                  ///< ExternalActivation model, if any
    std::vector<ModelPtr> pack_sources;  ///< per packed input; null for task outputs
    ModelPtr pack_timer;                 ///< packed send timer, if any
  };

  // Result-relevant engine options of the snapshot run; seeding requires an
  // exact match (a snapshot from a fitted-SEM run must not seed an exact
  // run and vice versa).
  bool propagate_fitted_sem = false;
  bool check_overload = true;
  Count compare_horizon = 64;

  std::vector<TaskSnap> tasks;  ///< converged tasks only

  [[nodiscard]] bool valid() const noexcept { return !tasks.empty(); }
  [[nodiscard]] const TaskSnap* find(const std::string& name) const;

  /// Approximate resident size: struct, string, and vector storage plus a
  /// fixed per-node estimate for each *distinct* model node reachable from
  /// the snapshot (nodes shared between tasks are counted once).  A cheap
  /// heuristic for the daemon's warm-cache byte cap, not an exact census —
  /// it deliberately does not walk into the model DAG's internals.
  [[nodiscard]] std::size_t approx_bytes() const;
};

/// Structural signature of one task: everything its local analysis consumes
/// except the event streams themselves (which are compared by node
/// identity).  Two tasks with equal signatures and pointer-identical
/// activation inputs have identical local-analysis inputs.
[[nodiscard]] std::string task_signature(const System& system, TaskId t);

/// True when `a` and `b` are interchangeable external sources: same dynamic
/// type with an exactly parameter-describing `describe()`.  Conservative —
/// trace models (whose describe is lossy) and unknown types never match.
[[nodiscard]] bool same_external_model(const EventModel& a, const EventModel& b);

/// Re-point the external event-model nodes of `system` (external
/// activations, packed ModelPtr sources, pack timers) at the snapshot's
/// nodes wherever `same_external_model` holds for the same task name.
/// Afterwards unchanged externals are pointer-identical to the snapshot
/// run, which is what lets warm seeding recognise them.  Returns the
/// number of nodes interned.
int intern_external_models(System& system, const EngineSnapshot& snapshot);

}  // namespace hem::cpa
