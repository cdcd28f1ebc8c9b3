#pragma once

/// \file bench.hpp
/// Shared pieces of hembench, the hem-cpa benchmark program: the run result and its
/// metrics, the benchmark's own span recorder, lookups of unstable program
/// internals, process accounting and the correctness gate.
///
/// hembench reaches the program only through its stable surfaces: config
/// text, `AnalysisReport` rows, `exec::BatchRunner`, the `hemcpad` wire
/// protocol via `daemon::Client`, and the public scheduling/hierarchical
/// classes.  Internal counters (`EngineStats` fields, `stats`-verb keys,
/// `EngineOptions` beyond `jobs`) go through `HB_FIELD` / `stats_key` so a
/// later change that deletes one reports the metric as absent instead of
/// breaking the build.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/textual_config.hpp"

namespace hem::cpa {
struct AnalysisReport;
}

namespace hembench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile with linear interpolation between order statistics (q in
/// [0,1]); 0 on empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Quantile of durations truncated to whole milliseconds, interpolated by
/// rank inside each 1 ms bin (grouped-data quantile), so it is not stuck on
/// whole milliseconds.
[[nodiscard]] double binned_quantile(std::vector<long> whole_ms, double q);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string absent;  ///< non-empty: not measured, and why (logged, not printed)
};

/// Everything one run reports.  `failed` counts every failed, rejected,
/// timed-out or wrong-result operation; `correct` is false when any timed
/// result differed from its reference or a gate check fired.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  void absent(const std::string& name, const std::string& unit, const std::string& why);
  /// Set from an optional lookup: absent with `why` when it came back empty.
  void set_or_absent(const std::string& name, const std::optional<double>& v,
                     const std::string& unit, const std::string& why);
  void fail(const std::string& why);  ///< correctness failure (also logged)
  [[nodiscard]] std::string json() const;
};

/// Log a line to stderr with the `[hembench]` prefix.
void note(const std::string& line);

// ---------------------------------------------------------------------------
// Lookups of unstable internals
// ---------------------------------------------------------------------------

template <class T, class Get>
[[nodiscard]] std::optional<double> field_or_absent(const T& obj, Get get) {
  if constexpr (std::is_invocable_v<Get, const T&>) {
    return static_cast<double>(get(obj));
  } else {
    (void)obj;
    return std::nullopt;
  }
}

/// `HB_FIELD(stats, models_compiled)` is the member's value, or nullopt when
/// the type no longer has it.  Works for calls too: `HB_FIELD(s, rate())`.
#define HB_FIELD(obj, member)                                                            \
  ::hembench::field_or_absent(obj, [](const auto& o_) -> decltype(static_cast<double>(o_.member)) { \
    return static_cast<double>(o_.member);                                               \
  })

template <class D, class S, class Copy>
bool copy_if_present(D& dst, const S& src, Copy copy) {
  if constexpr (std::is_invocable_v<Copy, D&, const S&>) {
    copy(dst, src);
    return true;
  } else {
    (void)dst;
    (void)src;
    return false;
  }
}

/// `HB_COPY(opts, check_overload, parsed, check_overload)`: copy the member
/// when both types still have it; returns whether it did.
#define HB_COPY(dst, dmember, src, smember)                                             \
  ::hembench::copy_if_present(dst, src, [](auto& d_, const auto& s_)                    \
                                            -> decltype(void(d_.dmember = s_.smember)) { \
                                          d_.dmember = s_.smember;                      \
                                        })

/// Numeric value of a `hemcpad stats` key; nullopt when the key is missing.
[[nodiscard]] std::optional<double> stats_key(const std::string& stats_json, const std::string& key);

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------

/// In-memory span recorder.  Every operation gets a request id; a span has a
/// name, start, end and parent.  Disabled recorders cost one branch.
class Spans {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span; returns its index (or kNoParent when disabled).
  std::int64_t add(const char* name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent, std::uint64_t req);
  /// Open a span now; close it with end().
  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t req);
  void end(std::int64_t id);

  /// Per-name self time (span minus the time its children cover), in ms,
  /// summed over all spans of that name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_name() const;
  /// For every span named `op`: share of its duration covered by children.
  [[nodiscard]] std::vector<double> child_coverage(const char* op) const;
  /// Write all spans as Chrome trace_event JSON.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
    std::uint64_t req;
  };
  [[nodiscard]] std::uint64_t ns(Clock::time_point t) const;
  [[nodiscard]] std::vector<std::vector<std::size_t>> children() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a no-op when the recorder is disabled.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name, std::int64_t parent, std::uint64_t req)
      : s_(s), id_(s.begin(name, parent, req)) {}
  ~SpanScope() { s_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Spans& s_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

/// User+system CPU of this process plus its reaped children, in ms.
[[nodiscard]] double self_and_children_cpu_ms();
/// User+system CPU of `pid` plus its reaped children (from /proc), in ms.
[[nodiscard]] double proc_cpu_ms(pid_t pid);
/// Reset this process's peak-RSS watermark (Linux clear_refs); false when
/// the kernel refuses, in which case the peak includes set-up.
bool reset_peak_rss();
/// Peak resident set of this process since the last reset, in MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Largest peak resident set of any reaped child, in MiB.
[[nodiscard]] double children_peak_rss_mb();

// ---------------------------------------------------------------------------
// Inputs and the correctness gate
// ---------------------------------------------------------------------------

[[nodiscard]] hem::cpa::ParsedSystem parse_text(const std::string& text);

/// Report rows exactly as the batch runner and daemon emit them: the
/// `AnalysisReport` CSV with `label` as the leading config column.
[[nodiscard]] std::vector<std::string> report_rows(const std::string& label,
                                                   const hem::cpa::AnalysisReport& report);

/// In-process jobs=1 reference through the same firewalled attempt the
/// batch and daemon paths use.
struct Reference {
  std::vector<std::string> rows;
  bool degraded = false;
};
[[nodiscard]] Reference reference_for(const std::string& config_text, const std::string& label);

/// The paper system (Fig. 2, Tables 1-2) as config text.
[[nodiscard]] const std::string& paper_system_text();
/// Check the paper-system rows against Table 3: T1/T2/T3 R+ = 24/56/96,
/// F1 R = [4:10], F2 R = [2:10].  Returns an empty string or the mismatch.
[[nodiscard]] std::string check_table3(const std::vector<std::string>& rows);

/// Dominance of the analysis over simulation: for SPP/CAN systems, every
/// observed response time must stay within its analytic bound.  Systems
/// with other resource kinds are counted as skipped.
struct Dominance {
  long systems_checked = 0;
  long systems_skipped = 0;
  long tasks_checked = 0;
  long violations = 0;
  std::string first_violation;
};
void check_dominance(const std::string& config_text, Dominance& acc);

/// Copy of `rows` with one digit of the first row changed.  The gate
/// self-check (`--corrupt-reference`) plants it in a real reference, and the
/// run must then report a wrong result.
[[nodiscard]] std::vector<std::string> corrupted(std::vector<std::string> rows);

/// The same system with its statements reordered: lines are shuffled within
/// each run of one statement kind (resources, sources, tasks, activations,
/// ...), which renumbers resources and tasks without changing any bound.
[[nodiscard]] std::string shuffle_statements(const std::string& text, std::uint64_t seed);

/// Edit one parameter of a config: the first task (from a seeded start)
/// whose worst-case execution time can shrink by one tick gets
/// `cet=min(best,w-1):w-1`.  Returns the text unchanged when none can.
[[nodiscard]] std::string edit_one_parameter(const std::string& text, std::mt19937_64& rng);

}  // namespace hembench
