#pragma once

/// \file workloads.hpp
/// The three workloads and the traced per-layer replays they share.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "model/cpa_engine.hpp"

namespace hembench {

/// Set-ups per run; setup_s is their median.  A set-up is input generation,
/// references, the Table 3 check, the daemon start and warm-up.  The
/// simulator's dominance gate runs once per run outside them: it is the
/// benchmark's own check, and inside them its simulation moved setup_s by
/// 1.31x between two back-to-back sets of runs on a shared 4-vCPU host,
/// where the operations moved 1.15x.
inline constexpr int kSetupRepeats = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string hemcpad;   ///< path of the hemcpad binary (daemon_edit)
  std::string workdir;   ///< scratch directory inside the checkout, owned by this run
  bool corrupt_reference = false;  ///< gate self-check: corrupt one reference row
  int width = 4;         ///< threads / workers / connections: nproc capped at 4
  int setup_repeats = kSetupRepeats;
};

[[nodiscard]] RunResult run_wide_hier(const Options& o);
[[nodiscard]] RunResult run_daemon_edit(const Options& o);
[[nodiscard]] RunResult run_batch_fleet(const Options& o);

/// Engine options for a parsed config: `jobs` plus whatever the config's
/// options map onto (overload check), copied only while both sides have it.
[[nodiscard]] hem::cpa::EngineOptions engine_options(const hem::cpa::ParsedSystem& parsed, int jobs);

/// Record every model/sched/core/hierarchical/rtc/obs per-layer metric by
/// replaying `configs` in-process: parse, analyse at `jobs` and at 1, with
/// the overload check off, with the program's trace sink on, then the
/// public scheduling and hierarchical classes on the converged models.
void replay_model_layers(const std::vector<std::string>& configs, int jobs, int reps,
                         RunResult& r);

/// exec.worker_rtt_ms: fork + frame round trip of a no-op isolated attempt.
void probe_worker_rtt(RunResult& r);

/// exec.journal_add_ms / exec.journal_bytes: time Journal::add on a copy of
/// `journal_path` (the end-of-run journal), leaving the original untouched.
void probe_journal(const std::string& journal_path, const std::string& scratch_copy,
                   RunResult& r);

/// Share of each operation span covered by its child spans (≥ 0.95 wanted),
/// recorded as bench.span_coverage_min, plus self times logged to stderr
/// and the spans written to `trace_path`.
void finish_spans(const Spans& spans, const char* op, const std::string& trace_path,
                  RunResult& r);

}  // namespace hembench
