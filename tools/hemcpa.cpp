// hemcpa — command-line compositional analysis.
//
// Usage:
//   hemcpa <config> [options]
//   hemcpa --batch <dir|manifest> [batch options]
//
// Options:
//   --eta <task> <dt_max> <step>   print the eta+ table of a task's activation
//   --delta <task> <n_max>         print delta-/delta+ curves of a task's activation
//   --csv                          append the report as CSV (incl. per-task status)
//   --sim <horizon> <seed>         execute the system with the discrete-event
//                                  simulator (earliest-burst stimulus) and compare
//                                  observed vs analytic worst-case responses
//   --sim-drop <rate>              fault injection: drop each stimulus with
//                                  probability <rate> in [0,1] (requires --sim)
//   --sim-jitter <time>            fault injection: extra uniform arrival delay
//   --sim-burst <count>            fault injection: replicate each arrival
//   --strict                       fail (exit 2) on the first overload/divergence
//                                  instead of degrading to fallback bounds;
//                                  also settable as `option strict=on`
//   --diagnostics                  print the structured diagnostic records
//                                  and any positioned configuration warnings
//   --verify                       after convergence, run the model-algebra
//                                  axiom checker (docs/linting.md) over every
//                                  resolved activation/output model; exit 4
//                                  on any axiom violation
//   --jobs <n>                     worker threads for the per-iteration local
//                                  analyses (>= 1; 0 is rejected); overrides
//                                  `option jobs=<n>` from the configuration.
//                                  Results are identical for every job count.
//   --trace-out <file>             record the analysis as Chrome trace_event
//                                  JSON (open in about:tracing / Perfetto);
//                                  overrides `option trace=<file>`.  The
//                                  analysis results are bit-identical with
//                                  and without tracing.
//   --metrics                      print the observability counter/histogram
//                                  dump (delta-cache hits, busy-window
//                                  fixpoint steps, engine work counters)
//                                  after the report
//
// Batch options (fleet execution; see docs/robustness.md):
//   --out <file>                   merged CSV output (default batch_report.csv);
//                                  the checkpoint journal is <out>.journal
//   --batch-jobs <n>               configs analysed concurrently (default 1)
//   --jobs <n>                     CpaEngine worker threads per job
//   --job-budget-ms <ms>           watchdog wall-clock budget per job
//                                  (soft-cancel; 0 = none)
//   --grace-ms <ms>                soft-cancel -> hard-abandon escalation
//                                  delay (default 2000)
//   --retries <n>                  extra attempts for transient failures
//                                  (default 1)
//   --retry-backoff-ms <ms>        base retry backoff (default 100)
//   --max-iterations <n>           global engine iterations per attempt
//                                  (default 64; raised x4 per retry)
//   --engine-budget-ms <ms>        per-attempt engine wall-clock budget
//   --fixpoint-steps <n>           busy-window fixpoint step limit override
//   --fixpoint-window <ticks>      busy-window length limit override
//   --resume                       skip configs already terminal in the
//                                  journal (byte-identical merged CSV)
//   --strict                       force strict mode on every job
//   --isolate / --no-isolate       run every attempt in a forked, rlimit-
//                                  capped worker process (default ON where
//                                  supported): a crashing config becomes a
//                                  journaled `crashed`/`poisoned` record,
//                                  never the death of the batch
//   --worker-memory-mb <n>         RLIMIT_AS cap per worker process (MiB;
//                                  0 = inherit)
//   --worker-stack-mb <n>          RLIMIT_STACK cap per worker process
//                                  (MiB; 0 = inherit)
//   --crash-backoff-ms <ms>        respawn delay after a worker crash
//                                  (default 250; doubles per crash)
//   --trace-out <file> / --metrics observability, as in single-run mode
//
// Reads a system description (see src/model/textual_config.hpp for the
// format), runs the global analysis, prints the report, and evaluates any
// `deadline` constraints from the file.  `deadline` statements are only
// evaluated in single-run mode; batch mode reports per-task statuses in
// the merged CSV instead.
//
// Exit status — ONE precedence order, shared with hemlint (which uses the
// 0/1/3 subset) and asserted by tests/integration/batch_shutdown_test.cpp.
// Single run, strongest first: 3 > 2 > 1 > 4 > 0.  Batch run: 3 > 6 > 5 >
// 4 > 0.
//   0  analysis converged, all deadlines met (batch: every job done, exact)
//   1  deadline missed (or unverifiable because its task's bound degraded)
//   2  analysis failed (strict-mode divergence, simulation violation, ...)
//   3  usage or configuration error (including an unwritable --trace-out
//      file or a corrupt --resume journal)
//   4  degraded-but-bounded: no deadline violated, but at least one task
//      carries conservative fallback bounds (see --diagnostics), or
//      --verify found a model-algebra axiom violation; batch: every job
//      done but some carry fallback bounds
//   5  batch only: at least one job failed, was watchdog-cancelled, was
//      abandoned, crashed its worker process, or was poisoned (crashed
//      twice and quarantined; the merged CSV carries a placeholder row
//      for each)
//   6  batch only: interrupted by SIGINT/SIGTERM after draining in-flight
//      jobs; the journal is flushed and `--resume` continues the batch

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/model_io.hpp"
#include "exec/batch_runner.hpp"
#include "io/csv.hpp"
#include "model/cpa_engine.hpp"
#include "model/textual_config.hpp"
#include "obs/exporters.hpp"
#include "obs/obs.hpp"
#include "sim/system_simulator.hpp"
#include "verify/model_checker.hpp"

namespace {

int usage() {
  std::cerr << "usage: hemcpa <config> [--eta <task> <dt_max> <step>] "
               "[--delta <task> <n_max>] [--csv]\n"
               "              [--sim <horizon> <seed>] [--sim-drop <rate>] "
               "[--sim-jitter <time>] [--sim-burst <count>]\n"
               "              [--strict] [--diagnostics] [--verify] [--jobs <n>] "
               "[--trace-out <file>] [--metrics]\n"
               "       hemcpa --batch <dir|manifest> [batch options]\n";
  return 3;
}

/// Parse a decimal integer argument; malformed input is a usage error (exit
/// code 3), never an uncaught std::stol crash.
bool parse_ll(const char* arg, long long& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(arg, &pos);
    return pos == std::strlen(arg);
  } catch (...) {
    return false;
  }
}

bool parse_double(const char* arg, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(arg, &pos);
    return pos == std::strlen(arg);
  } catch (...) {
    return false;
  }
}

int bad_number(const std::string& flag, const char* arg) {
  std::cerr << "error: argument to " << flag << " is not a number: '" << arg << "'\n";
  return 3;
}

struct EtaRequest {
  std::string task;
  hem::Time dt_max = 0;
  hem::Time step = 0;
};

struct DeltaRequest {
  std::string task;
  hem::Count n_max = 0;
};

// ---- batch mode -----------------------------------------------------------

volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void handle_shutdown(int /*signum*/) { g_shutdown = 1; }

int batch_usage() {
  std::cerr << "usage: hemcpa --batch <dir|manifest> [--out <file>] [--batch-jobs <n>] "
               "[--jobs <n>]\n"
               "              [--job-budget-ms <ms>] [--grace-ms <ms>] [--retries <n>] "
               "[--retry-backoff-ms <ms>]\n"
               "              [--max-iterations <n>] [--engine-budget-ms <ms>] "
               "[--fixpoint-steps <n>] [--fixpoint-window <ticks>]\n"
               "              [--isolate|--no-isolate] [--worker-memory-mb <n>] "
               "[--worker-stack-mb <n>] [--crash-backoff-ms <ms>]\n"
               "              [--resume] [--strict] [--trace-out <file>] [--metrics]\n";
  return 3;
}

int run_batch(int argc, char** argv) {
  using namespace hem;
  if (argc < 3 || argv[2][0] == '\0') return batch_usage();
  const std::string operand = argv[2];

  exec::BatchOptions bopts;
  std::string out_csv = "batch_report.csv";
  std::string trace_out;
  bool want_metrics = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    long long v = 0;
    const auto take_count = [&](long long min_value, long long& slot) {
      if (i + 1 >= argc) return false;
      if (!parse_ll(argv[i + 1], v) || v < min_value) return false;
      slot = v;
      i += 1;
      return true;
    };
    long long slot = 0;
    if (flag == "--out" && i + 1 < argc && argv[i + 1][0] != '\0') {
      out_csv = argv[++i];
    } else if (flag == "--batch-jobs") {
      if (!take_count(1, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.parallel_jobs = static_cast<int>(slot);
    } else if (flag == "--jobs") {
      if (!take_count(1, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.engine_jobs = static_cast<int>(slot);
    } else if (flag == "--job-budget-ms") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.job_budget_ms = slot;
    } else if (flag == "--grace-ms") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.grace_ms = slot;
    } else if (flag == "--retries") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.max_retries = static_cast<int>(slot);
    } else if (flag == "--retry-backoff-ms") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.retry_backoff_ms = slot;
    } else if (flag == "--max-iterations") {
      if (!take_count(1, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.max_iterations = static_cast<int>(slot);
    } else if (flag == "--engine-budget-ms") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.engine_budget_ms = slot;
    } else if (flag == "--fixpoint-steps") {
      if (!take_count(1, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.fixpoint_max_iterations = slot;
    } else if (flag == "--fixpoint-window") {
      if (!take_count(1, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.fixpoint_max_window = slot;
    } else if (flag == "--isolate") {
      bopts.isolate = true;
    } else if (flag == "--no-isolate") {
      bopts.isolate = false;
    } else if (flag == "--worker-memory-mb") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.worker_memory_mb = slot;
    } else if (flag == "--worker-stack-mb") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.worker_stack_mb = slot;
    } else if (flag == "--crash-backoff-ms") {
      if (!take_count(0, slot)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      bopts.crash_backoff_ms = slot;
    } else if (flag == "--resume") {
      bopts.resume = true;
    } else if (flag == "--strict") {
      bopts.strict = true;
    } else if (flag == "--trace-out" && i + 1 < argc && argv[i + 1][0] != '\0') {
      trace_out = argv[++i];
    } else if (flag == "--metrics") {
      want_metrics = true;
    } else {
      std::cerr << "error: unknown or incomplete batch flag '" << flag << "'\n";
      return batch_usage();
    }
  }
  bopts.journal_path = out_csv + ".journal";

  std::vector<std::string> configs;
  try {
    configs = exec::BatchRunner::collect_configs(operand);
  } catch (const std::invalid_argument& e) {
    std::cerr << "batch error: " << e.what() << "\n";
    return 3;
  }

  // Heap-allocated so it can be leaked when a worker thread was hard-
  // abandoned (--no-isolate legacy escalation): such a thread may finish a
  // span long after this function returns, and the sink it pinned must
  // stay valid.  Leaking a tracer at exit is cheaper than std::_Exit.
  auto* tracer = new obs::Tracer;
  if (!trace_out.empty()) obs::set_tracer(tracer);
  if (want_metrics) obs::set_counting(true);

  // Drain gracefully on SIGINT/SIGTERM: the scheduler polls the flag,
  // cancels in-flight jobs, flushes the journal, and we exit with 6.
  std::signal(SIGINT, handle_shutdown);
  std::signal(SIGTERM, handle_shutdown);

  exec::BatchReport report;
  try {
    report = exec::BatchRunner(std::move(configs), bopts).run(&g_shutdown, &std::cerr);
  } catch (const std::exception& e) {
    // Corrupt --resume journal or unwritable journal location.
    std::cerr << "batch error: " << e.what() << "\n";
    return 3;
  }

  report.write_summary(std::cout);

  if (!report.interrupted) {
    // The merged CSV is written atomically (temp + rename) so readers and
    // an interrupting signal can never observe a partial line.
    const std::string tmp = out_csv + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (out) report.write_csv(out);
      out.flush();
      if (!out) {
        std::cerr << "error: cannot write batch report '" << tmp << "'\n";
        return 3;
      }
    }
    if (std::rename(tmp.c_str(), out_csv.c_str()) != 0) {
      std::remove(tmp.c_str());
      std::cerr << "error: cannot atomically replace batch report '" << out_csv << "'\n";
      return 3;
    }
    std::cout << "merged report: " << out_csv << " (journal: " << bopts.journal_path << ")\n";
  } else {
    std::cout << "interrupted: merged report not written; journal " << bopts.journal_path
              << " is complete - continue with --resume\n";
  }

  if (want_metrics) {
    std::cout << "\nmetrics:\n";
    obs::write_metrics_text(std::cout, obs::registry());
  }
  if (!trace_out.empty()) {
    std::ofstream trace_file(trace_out);
    if (!trace_file) {
      std::cerr << "error: cannot open trace output file '" << trace_out << "'\n";
      return 3;
    }
    obs::write_chrome_trace(trace_file, *tracer, obs::registry());
  }

  // A hard-abandoned worker thread (legacy --no-isolate escalation) may
  // still be wedged inside an uncancellable analysis, but a normal return
  // is safe even then: the only shared state such a thread touches on its
  // way out is the obs registry (a deliberately leaked singleton, see
  // obs.cpp) and the tracer, which we leak here for exactly that case.
  // No std::_Exit: static destruction has nothing left to race.
  obs::set_tracer(nullptr);
  if (report.abandoned == 0) delete tracer;
  return report.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hem;

  if (argc < 2) return usage();
  if (std::string(argv[1]) == "--batch") return run_batch(argc, argv);

  // ---- phase 1: parse ALL flags up front (usage errors exit 3 before any
  // analysis work happens) -------------------------------------------------
  std::vector<EtaRequest> eta_requests;
  std::vector<DeltaRequest> delta_requests;
  bool want_csv = false;
  bool want_diagnostics = false;
  bool want_verify = false;
  bool strict = false;
  bool want_sim = false;
  bool cli_sim_drop = false;  // whether the CLI set each fault-injection
  bool cli_sim_jitter = false;  // field ('option sim_*=' supplies defaults,
  bool cli_sim_burst = false;   // the CLI wins)
  long long cli_jobs = 0;  // 0 = not given on the command line
  std::string cli_trace_out;
  bool cli_metrics = false;
  sim::SystemSimulator::Options sim_opts;
  sim_opts.mode = sim::GenMode::kEarliest;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    long long v = 0;
    if (flag == "--eta" && i + 3 < argc) {
      EtaRequest req;
      req.task = argv[i + 1];
      if (!parse_ll(argv[i + 2], v)) return bad_number(flag, argv[i + 2]);
      req.dt_max = v;
      if (!parse_ll(argv[i + 3], v)) return bad_number(flag, argv[i + 3]);
      req.step = v;
      eta_requests.push_back(std::move(req));
      i += 3;
    } else if (flag == "--delta" && i + 2 < argc) {
      DeltaRequest req;
      req.task = argv[i + 1];
      if (!parse_ll(argv[i + 2], v)) return bad_number(flag, argv[i + 2]);
      req.n_max = v;
      delta_requests.push_back(std::move(req));
      i += 2;
    } else if (flag == "--csv") {
      want_csv = true;
    } else if (flag == "--sim" && i + 2 < argc) {
      if (!parse_ll(argv[i + 1], v)) return bad_number(flag, argv[i + 1]);
      sim_opts.horizon = v;
      if (!parse_ll(argv[i + 2], v)) return bad_number(flag, argv[i + 2]);
      sim_opts.seed = static_cast<std::uint64_t>(v);
      want_sim = true;
      i += 2;
    } else if (flag == "--sim-drop" && i + 1 < argc) {
      double rate = 0.0;
      if (!parse_double(argv[i + 1], rate)) return bad_number(flag, argv[i + 1]);
      sim_opts.faults.drop_rate = rate;
      cli_sim_drop = true;
      i += 1;
    } else if (flag == "--sim-jitter" && i + 1 < argc) {
      if (!parse_ll(argv[i + 1], v)) return bad_number(flag, argv[i + 1]);
      sim_opts.faults.extra_jitter = v;
      cli_sim_jitter = true;
      i += 1;
    } else if (flag == "--sim-burst" && i + 1 < argc) {
      if (!parse_ll(argv[i + 1], v)) return bad_number(flag, argv[i + 1]);
      sim_opts.faults.burst = v;
      cli_sim_burst = true;
      i += 1;
    } else if (flag == "--jobs" && i + 1 < argc) {
      if (!parse_ll(argv[i + 1], v)) return bad_number(flag, argv[i + 1]);
      if (v < 1) {
        std::cerr << "error: --jobs needs a thread count >= 1, got " << v << "\n";
        return 3;
      }
      cli_jobs = v;
      i += 1;
    } else if (flag == "--trace-out" && i + 1 < argc) {
      cli_trace_out = argv[i + 1];
      if (cli_trace_out.empty()) {
        std::cerr << "error: --trace-out needs a non-empty file name\n";
        return 3;
      }
      i += 1;
    } else if (flag == "--metrics") {
      cli_metrics = true;
    } else if (flag == "--strict") {
      strict = true;
    } else if (flag == "--diagnostics") {
      want_diagnostics = true;
    } else if (flag == "--verify") {
      want_verify = true;
    } else {
      std::cerr << "error: unknown or incomplete flag '" << flag << "'\n";
      return usage();
    }
  }

  // ---- phase 2: configuration --------------------------------------------
  cpa::ParsedSystem parsed;
  try {
    parsed = cpa::parse_system_config_file(argv[1]);
  } catch (const std::invalid_argument& e) {
    std::cerr << "configuration error: " << e.what() << "\n";
    return 3;
  }

  // Positioned parser warnings (e.g. jitter > period) surface under
  // --diagnostics; hemlint reports the same records with more checks.
  if (want_diagnostics && !parsed.warnings.empty()) {
    std::cout << "configuration warnings:\n";
    for (const auto& w : parsed.warnings)
      std::cout << "  " << argv[1] << ":" << verify::format(w) << "\n";
    std::cout << "\n";
  }

  // ---- phase 3: analysis --------------------------------------------------
  cpa::EngineOptions eopts;
  // `option strict=on` from the configuration file; the CLI can only add
  // strictness, not remove it.
  eopts.strict = strict || parsed.strict;
  // `option overload_check=off` (expert): skip the load>1 pre-check, so
  // genuinely divergent systems iterate to their busy-window limits.
  eopts.check_overload = parsed.check_overload;
  // Fault-injection defaults from `option sim_*=`; CLI flags win per field.
  if (!cli_sim_drop) sim_opts.faults.drop_rate = parsed.sim_drop;
  if (!cli_sim_jitter) sim_opts.faults.extra_jitter = parsed.sim_jitter;
  if (!cli_sim_burst) sim_opts.faults.burst = parsed.sim_burst;
  // CLI flag wins over `option jobs=<n>` from the configuration file.
  if (cli_jobs > 0)
    eopts.jobs = static_cast<int>(cli_jobs);
  else if (parsed.jobs > 0)
    eopts.jobs = parsed.jobs;

  // Same precedence for the observability options: the CLI wins over
  // `option trace=` / `option metrics=` from the configuration file.
  const std::string trace_out = !cli_trace_out.empty() ? cli_trace_out : parsed.trace_out;
  const bool want_metrics = cli_metrics || parsed.metrics;
  obs::Tracer tracer;
  if (!trace_out.empty()) obs::set_tracer(&tracer);
  if (want_metrics) obs::set_counting(true);

  cpa::AnalysisReport report;
  try {
    report = cpa::CpaEngine(parsed.system, eopts).run();
  } catch (const std::exception& e) {
    std::cerr << "analysis error: " << e.what() << "\n";
    return 2;
  }

  std::cout << report.format();

  if (want_diagnostics) {
    // The records themselves are part of report.format(); add the tally only.
    std::cout << "\ndiagnostic records: " << report.diagnostics.entries().size() << " ("
              << report.diagnostics.count(cpa::Severity::kError) << " errors, "
              << report.diagnostics.count(cpa::Severity::kWarning) << " warnings)\n";
  }

  // ---- phase 4: auxiliary outputs ----------------------------------------
  try {
    for (const EtaRequest& req : eta_requests) {
      const auto& model = report.task(req.task).activation;
      std::cout << "\neta+ of '" << req.task << "' activation:\n"
                << format_eta_table({sample_eta_plus(*model, req.task, req.dt_max, req.step)});
    }
    for (const DeltaRequest& req : delta_requests) {
      const auto& model = report.task(req.task).activation;
      std::cout << "\ndelta curves of '" << req.task << "' activation:\n"
                << format_delta_table(*model, req.n_max);
    }
    if (want_csv) {
      std::cout << "\n";
      io::write_report_csv(std::cout, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }

  if (want_metrics) {
    std::cout << "\nmetrics:\n";
    obs::write_metrics_text(std::cout, obs::registry());
  }

  if (!trace_out.empty()) {
    std::ofstream trace_file(trace_out);
    if (!trace_file) {
      std::cerr << "error: cannot open trace output file '" << trace_out << "'\n";
      return 3;
    }
    obs::write_chrome_trace(trace_file, tracer, obs::registry());
    trace_file.flush();
    if (!trace_file) {
      std::cerr << "error: failed writing trace output file '" << trace_out << "'\n";
      return 3;
    }
  }

  bool sim_violation = false;
  if (want_sim) {
    try {
      const auto simres = sim::SystemSimulator(parsed.system, sim_opts).run();
      std::cout << "\nsimulation (earliest-burst stimulus, horizon " << sim_opts.horizon;
      if (sim_opts.faults.drop_rate > 0.0)
        std::cout << ", drop " << sim_opts.faults.drop_rate;
      if (sim_opts.faults.extra_jitter > 0)
        std::cout << ", jitter +" << sim_opts.faults.extra_jitter;
      if (sim_opts.faults.burst > 1) std::cout << ", burst x" << sim_opts.faults.burst;
      std::cout << "):\n";
      for (const auto& t : report.tasks) {
        const auto& stats = simres.tasks.at(t.name);
        const bool violated = stats.wcrt > t.wcrt;
        sim_violation = sim_violation || violated;
        std::cout << "  " << t.name << ": observed " << stats.wcrt << " / bound "
                  << (is_infinite(t.wcrt) ? "inf" : std::to_string(t.wcrt)) << " ("
                  << stats.responses.size() << " jobs)" << (violated ? "  **VIOLATION**" : "")
                  << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "simulation error: " << e.what() << "\n";
      return 2;
    }
  }

  // ---- phase 4.5: model-algebra verification ------------------------------
  bool verify_failed = false;
  if (want_verify) {
    verify::ModelChecker checker;
    for (const auto& t : report.tasks) {
      if (t.activation) checker.check_model(*t.activation, t.name + ".activation");
      if (t.output) checker.check_model(*t.output, t.name + ".output");
      // after_response() outputs: per-model axioms + the Def.-9 floor are
      // checked; Def.-8 outer-bounds-inners only holds for fresh pack
      // outputs, not for updated HEMs (see model_checker.hpp).
      if (t.hem_output)
        checker.check_hierarchical(*t.hem_output, t.name + ".hem_output",
                                   /*outer_bounds_inner=*/false);
    }
    if (!checker.ok()) {
      verify_failed = true;
      std::cout << "\nmodel verification: " << checker.violations().size()
                << " axiom violation(s)\n";
      for (const auto& v : checker.violations()) std::cout << "  " << v.format() << "\n";
    } else {
      std::cout << "\nmodel verification: all axioms hold on " << report.tasks.size()
                << " task(s)\n";
    }
  }

  // ---- phase 5: verdict ---------------------------------------------------
  if (sim_violation) {
    std::cout << "\nSIMULATION VIOLATION: observed response above analytic bound\n";
    return 2;
  }

  if (!parsed.deadlines.empty()) {
    std::string violation;
    for (const auto& [task, deadline] : parsed.deadlines) {
      const Time wcrt = report.task(task).wcrt;
      if (wcrt > deadline) {
        violation = "task '" + task + "' misses its deadline (" +
                    (is_infinite(wcrt) ? "inf" : std::to_string(wcrt)) + " > " +
                    std::to_string(deadline) + ")";
        break;
      }
    }
    if (!violation.empty()) {
      std::cout << "\nDEADLINE VIOLATION: " << violation << "\n";
      return 1;
    }
    std::cout << "\nall deadlines met\n";
  }

  if (verify_failed) {
    std::cout << "\nMODEL VERIFICATION FAILED: axiom violation in a resolved model\n";
    return 4;
  }

  if (report.degraded()) {
    std::cout << "\nanalysis DEGRADED: conservative fallback bounds in effect"
              << (want_diagnostics ? "" : " (re-run with --diagnostics for details)") << "\n";
    return 4;
  }
  return 0;
}
