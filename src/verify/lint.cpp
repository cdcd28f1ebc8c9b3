#include "verify/lint.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <variant>

#include "daemon/protocol.hpp"
#include "model/system.hpp"
#include "model/textual_config.hpp"

namespace hem::verify {

namespace {

using cpa::ActivationSpec;
using cpa::ParsedSystem;
using cpa::SourceLoc;
using cpa::TaskId;

std::string fixed2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

/// All tasks whose *analysis results* a task's activation needs: the CPA
/// engine resolves an activation only once every referenced task (including
/// pending-coupled pack inputs and the unpack frame) has an output model.
std::vector<TaskId> referenced_tasks(const ActivationSpec& spec) {
  std::vector<TaskId> refs;
  if (const auto* out = std::get_if<cpa::TaskOutputActivation>(&spec)) {
    refs = out->producers;
  } else if (const auto* land = std::get_if<cpa::AndActivation>(&spec)) {
    refs = land->producers;
  } else if (const auto* packed = std::get_if<cpa::PackedActivation>(&spec)) {
    for (const auto& in : packed->inputs)
      if (const auto* task = std::get_if<TaskId>(&in.source)) refs.push_back(*task);
  } else if (const auto* unpack = std::get_if<cpa::UnpackedActivation>(&spec)) {
    refs.push_back(unpack->frame_task);
  }
  return refs;
}

class Linter {
 public:
  Linter(const ParsedSystem& parsed, std::vector<Diagnostic>& out)
      : parsed_(parsed), out_(out), tasks_(parsed.system.tasks()) {}

  void run() {
    check_unreferenced_sources();   // HL005
    check_activation_graph();       // HL006 + HL007
    check_pack_constructors();      // HL008
    check_utilization();            // HL001 (needs the graph's rates)
    check_duplicate_priorities();   // HL002
    check_strict_with_faults();     // HL009
    check_deadlines();              // HL010
  }

 private:
  void emit(LintSeverity severity, SourceLoc loc, const char* code, std::string message) {
    out_.push_back({severity, loc.line, loc.col, code, std::move(message)});
  }

  [[nodiscard]] SourceLoc task_loc(TaskId t) const {
    const auto it = parsed_.index.tasks.find(tasks_[t].name);
    return it == parsed_.index.tasks.end() ? SourceLoc{} : it->second;
  }

  // ---- HL005 --------------------------------------------------------------
  void check_unreferenced_sources() {
    for (const auto& [name, uses] : parsed_.index.source_refs) {
      if (uses > 0) continue;
      const auto loc = parsed_.index.sources.find(name);
      emit(LintSeverity::kWarning, loc == parsed_.index.sources.end() ? SourceLoc{} : loc->second,
           "HL005", "source '" + name + "' is declared but never referenced");
    }
  }

  // ---- HL006 / HL007 ------------------------------------------------------
  // The engine resolves a task's activation only after every referenced task
  // has been analysed, so any dependency cycle (which no member can enter
  // first) never bootstraps, and everything downstream of it starves too.
  void check_activation_graph() {
    const std::size_t n = tasks_.size();
    std::vector<std::vector<TaskId>> refs(n);
    for (TaskId t = 0; t < n; ++t) refs[t] = referenced_tasks(parsed_.system.activation(t));

    std::vector<bool> resolvable(n, false);
    for (bool changed = true; changed;) {
      changed = false;
      for (TaskId t = 0; t < n; ++t) {
        if (resolvable[t]) continue;
        const bool ok = std::all_of(refs[t].begin(), refs[t].end(),
                                    [&](TaskId d) { return resolvable[d]; });
        if (ok) {
          resolvable[t] = true;
          changed = true;
        }
      }
    }

    // Among the unresolvable tasks, cycle members are exactly those that can
    // reach themselves; mutual reachability groups them into components.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (TaskId t = 0; t < n; ++t) {
      if (resolvable[t]) continue;
      std::vector<TaskId> stack{t};
      while (!stack.empty()) {
        const TaskId u = stack.back();
        stack.pop_back();
        for (const TaskId d : refs[u])
          if (!resolvable[d] && !reach[t][d]) {
            reach[t][d] = true;
            stack.push_back(d);
          }
      }
    }

    std::vector<bool> reported(n, false);
    for (TaskId t = 0; t < n; ++t) {
      if (resolvable[t] || reported[t] || !reach[t][t]) continue;
      std::vector<std::string> members;
      for (TaskId u = 0; u < n; ++u)
        if (!resolvable[u] && reach[t][u] && reach[u][t]) {
          reported[u] = true;
          members.push_back(tasks_[u].name);
        }
      std::string list;
      for (const auto& m : members) list += (list.empty() ? "" : " -> ") + m;
      emit(LintSeverity::kError, task_loc(t), "HL007",
           "activation dependency cycle {" + list +
               "} has no external stimulus and can never bootstrap");
    }
    for (TaskId t = 0; t < n; ++t) {
      if (resolvable[t] || reach[t][t]) continue;  // cycle members got HL007
      emit(LintSeverity::kError, task_loc(t), "HL006",
           "task '" + tasks_[t].name +
               "' is unreachable: its activation depends (transitively) on a dependency "
               "cycle that never produces events");
    }
  }

  // ---- HL008 --------------------------------------------------------------
  void check_pack_constructors() {
    for (TaskId t = 0; t < tasks_.size(); ++t) {
      const auto* packed = std::get_if<cpa::PackedActivation>(&parsed_.system.activation(t));
      if (packed == nullptr || packed->timer) continue;
      const bool has_trigger =
          std::any_of(packed->inputs.begin(), packed->inputs.end(), [](const auto& in) {
            return in.coupling == SignalCoupling::kTriggering;
          });
      if (has_trigger) continue;
      emit(LintSeverity::kError, task_loc(t), "HL008",
           "frame task '" + tasks_[t].name +
               "' has no timer and no triggering input: the frame is never sent and its "
               "pending signals can never be flushed");
    }
  }

  // ---- HL001 --------------------------------------------------------------
  // Long-run activation rates propagate through the graph without running
  // the engine, by the closed forms the event models fix at construction
  // (EventModel::rate): a source or timer has its own rate, a task's output
  // keeps its activation rate (Theta_tau), OR sums, AND fires once per
  // common period, a packed frame once per triggering event or timer tick,
  // and a pending inner stream at most at min(signal, frame) (Psi_pa).  The
  // sum of C+ * r per resource is compared with 1 exactly, as the engine's
  // overload pre-check does.
  void check_utilization() {
    const std::size_t n = tasks_.size();
    std::vector<std::optional<Rate>> rate(n);
    for (std::size_t round = 0; round <= n; ++round) {
      for (TaskId t = 0; t < n; ++t) {
        if (rate[t].has_value()) continue;
        rate[t] = activation_rate(t, rate);
      }
    }

    for (std::size_t r = 0; r < parsed_.system.resources().size(); ++r) {
      Rate load;
      bool complete = true;
      for (TaskId t = 0; t < n; ++t) {
        if (tasks_[t].resource != r) continue;
        if (!rate[t].has_value()) {
          complete = false;  // cycle upstream; HL006/HL007 already fired
          break;
        }
        load = load + *rate[t] * tasks_[t].cet.worst;
      }
      if (!complete || load <= Rate::of(1, 1)) continue;
      const std::string& name = parsed_.system.resources()[r].name;
      const auto loc = parsed_.index.resources.find(name);
      emit(LintSeverity::kError,
           loc == parsed_.index.resources.end() ? SourceLoc{} : loc->second, "HL001",
           "resource '" + name + "' long-run utilization " + fixed2(load.to_double()) + " (" +
               load.str() +
               ") exceeds 1: the busy window diverges and no response-time bound exists");
    }
  }

  [[nodiscard]] std::optional<Rate> activation_rate(
      TaskId t, const std::vector<std::optional<Rate>>& rate) const {
    const ActivationSpec& spec = parsed_.system.activation(t);
    if (const auto* ext = std::get_if<cpa::ExternalActivation>(&spec))
      return ext->model->rate();
    if (const auto* out = std::get_if<cpa::TaskOutputActivation>(&spec)) {
      Rate sum;
      for (const TaskId p : out->producers) {
        if (!rate[p].has_value()) return std::nullopt;
        sum = sum + *rate[p];
      }
      return sum;
    }
    if (const auto* land = std::get_if<cpa::AndActivation>(&spec))
      return land->period > 0 ? std::optional<Rate>(Rate::of(1, land->period)) : std::nullopt;
    if (const auto* packed = std::get_if<cpa::PackedActivation>(&spec)) {
      Rate sum = packed->timer ? packed->timer->rate() : Rate{};
      for (const auto& in : packed->inputs) {
        if (in.coupling != SignalCoupling::kTriggering) continue;
        const std::optional<Rate> signal = input_rate(in.source, rate);
        if (!signal.has_value()) return std::nullopt;
        sum = sum + *signal;
      }
      return sum;
    }
    if (const auto* unpack = std::get_if<cpa::UnpackedActivation>(&spec)) {
      const auto* frame =
          std::get_if<cpa::PackedActivation>(&parsed_.system.activation(unpack->frame_task));
      if (frame == nullptr || unpack->index >= frame->inputs.size()) return std::nullopt;
      if (!rate[unpack->frame_task].has_value()) return std::nullopt;
      const auto& in = frame->inputs[unpack->index];
      const std::optional<Rate> signal = input_rate(in.source, rate);
      if (!signal.has_value()) return std::nullopt;
      // A triggering signal's inner stream is the signal itself; a pending
      // signal is carried at most once per frame.
      return in.coupling == SignalCoupling::kTriggering
                 ? *signal
                 : std::min(*signal, *rate[unpack->frame_task]);
    }
    return std::nullopt;
  }

  /// Rate of a pack input: a task's activation rate, or a source's own.
  [[nodiscard]] static std::optional<Rate> input_rate(
      const std::variant<TaskId, ModelPtr>& source,
      const std::vector<std::optional<Rate>>& rate) {
    if (const auto* task = std::get_if<TaskId>(&source)) return rate[*task];
    return std::get<ModelPtr>(source)->rate();
  }

  // ---- HL002 --------------------------------------------------------------
  void check_duplicate_priorities() {
    for (std::size_t r = 0; r < parsed_.system.resources().size(); ++r) {
      const cpa::Policy policy = parsed_.system.resources()[r].policy;
      if (policy != cpa::Policy::kSppPreemptive && policy != cpa::Policy::kSpnpCan) continue;
      std::map<int, std::string> seen;
      for (TaskId t = 0; t < tasks_.size(); ++t) {
        if (tasks_[t].resource != r) continue;
        const auto [it, inserted] = seen.emplace(tasks_[t].priority, tasks_[t].name);
        if (inserted) continue;
        emit(LintSeverity::kWarning, task_loc(t), "HL002",
             "task '" + tasks_[t].name + "' duplicates priority " +
                 std::to_string(tasks_[t].priority) + " of task '" + it->second +
                 "' on resource '" + parsed_.system.resources()[r].name +
                 "' (tie-breaking is analysis-dependent" +
                 (policy == cpa::Policy::kSpnpCan ? "; identical CAN identifiers are illegal on "
                                                    "a real bus"
                                                  : "") +
                 ")");
      }
    }
  }

  // ---- HL009 --------------------------------------------------------------
  void check_strict_with_faults() {
    if (!parsed_.strict) return;
    if (parsed_.sim_drop <= 0.0 && parsed_.sim_jitter <= 0 && parsed_.sim_burst <= 1) return;
    const auto loc = parsed_.index.options.find("strict");
    emit(LintSeverity::kWarning,
         loc == parsed_.index.options.end() ? SourceLoc{} : loc->second, "HL009",
         "option strict=on combined with sim fault injection: injected faults intentionally "
         "violate the analysed bounds, so strict simulation runs are expected to fail");
  }

  // ---- HL010 --------------------------------------------------------------
  void check_deadlines() {
    for (const auto& [name, deadline] : parsed_.deadlines) {
      const TaskId t = parsed_.system.task_id(name);
      if (deadline >= tasks_[t].cet.worst) continue;
      const auto loc = parsed_.index.deadlines.find(name);
      emit(LintSeverity::kError,
           loc == parsed_.index.deadlines.end() ? SourceLoc{} : loc->second, "HL010",
           "deadline " + std::to_string(deadline) + " of task '" + name +
               "' is below its worst-case execution time " + std::to_string(tasks_[t].cet.worst) +
               " and can never be met");
    }
    for (TaskId t = 0; t < tasks_.size(); ++t) {
      if (tasks_[t].deadline <= 0 || tasks_[t].deadline >= tasks_[t].cet.worst) continue;
      emit(LintSeverity::kError, task_loc(t), "HL010",
           "deadline " + std::to_string(tasks_[t].deadline) + " of task '" + tasks_[t].name +
               "' is below its worst-case execution time " +
               std::to_string(tasks_[t].cet.worst) + " and can never be met");
    }
  }

  const ParsedSystem& parsed_;
  std::vector<Diagnostic>& out_;
  const std::vector<cpa::TaskSpec>& tasks_;
};

}  // namespace

std::size_t LintResult::count(LintSeverity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

bool LintResult::fails(bool werror) const {
  if (werror) return !diagnostics.empty();
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) { return d.is_error(); });
}

LintResult lint_config(std::istream& in) {
  LintResult result;
  ParsedSystem parsed;
  try {
    parsed = cpa::parse_system_config(in, &result.diagnostics);
  } catch (const std::exception&) {
    // Positioned diagnostics (incl. the failure itself) are already in
    // result.diagnostics; graph checks need a parsed system, so stop here.
    result.parse_ok = false;
    return result;
  }
  result.parse_ok = true;
  Linter(parsed, result.diagnostics).run();
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line != b.line ? a.line < b.line : a.col < b.col;
                   });
  return result;
}

int lint_exit_code(const LintResult& result, bool werror) {
  return result.fails(werror) ? 1 : 0;
}

std::string write_lint_json(const LintResult& result, const std::string& file, bool werror) {
  std::string diags = "[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    if (i > 0) diags += ',';
    diags += daemon::JsonWriter()
                 .add("file", file)
                 .add("line", static_cast<long>(d.line))
                 .add("col", static_cast<long>(d.col))
                 .add("severity", to_string(d.severity))
                 .add("code", d.code)
                 .add("message", d.message)
                 .str();
  }
  diags += ']';
  return daemon::JsonWriter()
      .add("file", file)
      .add("parse_ok", result.parse_ok)
      .add("rejected", result.fails(werror))
      .add("warnings", static_cast<long>(result.count(LintSeverity::kWarning)))
      .add("errors", static_cast<long>(result.count(LintSeverity::kError)))
      .add_raw("diagnostics", diags)
      .str();
}

}  // namespace hem::verify
