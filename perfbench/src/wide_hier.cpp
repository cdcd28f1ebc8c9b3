// wide_hier: closed loop, one caller.  Each operation parses and analyses one
// wide synth system (100 resources, 1000 tasks, 30% of CAN tasks packed into
// frames) at engine jobs = nproc capped at 4, and emits its report rows.
// Engine-bound; the daemon, exec and journal layers are not used.
//
// The system is synth seed 1 (the synth_r100_t1000_s1 row of the engine
// benchmarks); the workload seed reorders its statements.  Analysis cost
// differs by up to 1.7x between synth seeds, so seeding the system itself
// would make the run-to-run spread a property of the seed, not of the code.

#include "model/analysis_report.hpp"
#include "scenarios/synth.hpp"
#include "workloads.hpp"

namespace hembench {

namespace {

constexpr const char* kLabel = "wide_hier";

struct Loop {
  std::vector<double> latency_ms;  ///< every operation
  std::vector<double> traced_ms;   ///< operations that recorded spans
  std::vector<double> plain_ms;    ///< operations that did not
  double wall_ms = 0.0;
  long failed = 0;
};

/// Closed loop until `seconds` have passed; every result is compared with
/// the jobs=1 reference.  With an enabled recorder every other operation
/// records spans, so traced and untraced ones share the same stretch of
/// the run.
Loop run_loop(const std::string& text, const std::vector<std::string>& ref, int jobs,
              double seconds, Spans& recorder, RunResult& r) {
  Loop loop;
  Spans off(false);
  std::uint64_t req = 0;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    ++req;
    const bool traced = recorder.enabled() && req % 2 == 0;
    Spans& spans = traced ? recorder : off;
    std::vector<std::string> rows;
    const auto t0 = Clock::now();
    {
      SpanScope op(spans, "wide_hier.op", Spans::kNoParent, req);
      hem::cpa::ParsedSystem parsed;
      hem::cpa::AnalysisReport report;
      {
        SpanScope s(spans, "model.parse", op.id(), req);
        parsed = parse_text(text);
      }
      {
        SpanScope s(spans, "model.engine", op.id(), req);
        hem::cpa::CpaEngine engine(parsed.system, engine_options(parsed, jobs));
        report = engine.run();
      }
      {
        SpanScope s(spans, "model.report_rows", op.id(), req);
        rows = report_rows(kLabel, report);
      }
      SpanScope s(spans, "model.release", op.id(), req);
      report = {};
      parsed = {};
    }
    const double ms = ms_between(t0, Clock::now());
    loop.latency_ms.push_back(ms);
    (traced ? loop.traced_ms : loop.plain_ms).push_back(ms);
    if (rows != ref) {
      ++loop.failed;
      r.fail("wide_hier result " + std::to_string(req) + " differs from the jobs=1 reference");
    }
  }
  loop.wall_ms = ms_between(start, Clock::now());
  return loop;
}

}  // namespace

RunResult run_wide_hier(const Options& o) {
  RunResult r;
  std::string text;
  std::vector<std::string> ref;
  std::vector<double> setup_s;
  Dominance dom;
  std::string table3;
  for (int k = 0; k < o.setup_repeats; ++k) {
    const auto t0 = Clock::now();
    hem::scenarios::SynthParams p;
    p.resources = 100;
    p.tasks = 1000;
    p.seed = 1;
    p.packed_permille = 300;
    text = shuffle_statements(hem::scenarios::to_config_text(hem::scenarios::build_synth_system(p)), o.seed);
    ref = reference_for(text, kLabel).rows;
    table3 = check_table3(reference_for(paper_system_text(), "paper").rows);
    // Warm-up: one untimed operation at the measured width.
    const hem::cpa::ParsedSystem parsed = parse_text(text);
    hem::cpa::CpaEngine engine(parsed.system, engine_options(parsed, o.width));
    (void)engine.run();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // The simulator's dominance gate runs once, untimed (see kSetupRepeats).
  check_dominance(text, dom);
  check_dominance(paper_system_text(), dom);
  if (!table3.empty()) r.fail(table3);
  if (dom.violations != 0) r.fail("simulation exceeded an analytic bound: " + dom.first_violation);
  note("dominance: " + std::to_string(dom.systems_checked) + " system(s), " +
       std::to_string(dom.tasks_checked) + " task(s) checked, " +
       std::to_string(dom.violations) + " violation(s), " + std::to_string(dom.systems_skipped) +
       " skipped");
  if (o.corrupt_reference) ref = corrupted(ref);

  if (!o.trace) {
    Spans off(false);
    if (!reset_peak_rss()) note("peak RSS could not be reset; it includes set-up");
    const double cpu0 = self_and_children_cpu_ms();
    const Loop loop = run_loop(text, ref, o.width, o.seconds, off, r);
    const double cpu = self_and_children_cpu_ms() - cpu0;
    const auto n = static_cast<double>(loop.latency_ms.size());
    r.attempted = static_cast<long>(loop.latency_ms.size());
    r.failed = loop.failed;
    if (loop.latency_ms.size() < 100)
      note("only " + std::to_string(loop.latency_ms.size()) + " operations; p90 rests on fewer than 10 samples");
    r.set("setup_s", median(setup_s), "s");
    r.set("latency_ms_p50", quantile(loop.latency_ms, 0.5), "ms");
    r.set("latency_ms_p90", quantile(loop.latency_ms, 0.9), "ms");
    r.set("throughput_per_s", n / (loop.wall_ms / 1e3), "1/s");
    r.set("cpu_ms_per_op", cpu / n, "ms");
    r.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    r.set("success_rate", (n - static_cast<double>(loop.failed)) / n, "fraction");
    return r;
  }

  // Traced run: every other operation records the benchmark's spans, so the
  // difference of the two medians is the tracing overhead; then the layer
  // replays.
  Spans on(true);
  const Loop loop = run_loop(text, ref, o.width, o.seconds, on, r);
  r.attempted = static_cast<long>(loop.latency_ms.size());
  r.failed = loop.failed;
  r.set("bench.trace_delta_frac", median(loop.traced_ms) / median(loop.plain_ms) - 1.0, "fraction");
  replay_model_layers({text}, o.width, 3, r);
  probe_worker_rtt(r);
  finish_spans(on, "wide_hier.op", o.workdir + "/trace-wide_hier.json", r);
  return r;
}

}  // namespace hembench
