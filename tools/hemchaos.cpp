// hemchaos — chaos harness for the crash-only analysis pipeline.
//
// Usage:
//   hemchaos [--scenario all|kill-storm|alloc-storm|torn-journal|daemon-smoke]
//            [--configs N] [--crashers K] [--seed S] [--batch-jobs N]
//            [--kill-interval-ms M] [--out-dir D] [--keep]
//
// Each scenario injects one class of real-world failure into a live run and
// checks the crash-only invariants the batch runner and the daemon promise:
//
//   kill-storm    SIGKILLs random live worker processes while a fleet runs.
//                 Invariants: the scheduler survives every kill, the journal
//                 stays loadable, every job reaches a terminal state, and
//                 the merged-CSV rows of jobs that still completed are
//                 bit-identical to an undisturbed baseline run.
//
//   alloc-storm   mixes allocation-bomb configs (`option inject_fault=oom`)
//                 into the fleet under a tight per-worker RLIMIT_AS.
//                 Invariants: the bombs die in their own processes and end
//                 quarantined (`poisoned`), clean jobs finish with baseline
//                 rows, exit-code precedence holds.
//
//   torn-journal  truncates a real journal at every byte offset, and
//                 replays every state an interrupted append of its last
//                 record can leave (a prefix of record + `end` written
//                 over the old trailer).
//                 Invariants: Journal::load() recovers the complete-record
//                 prefix at every cut and every append state (never throws,
//                 quarantines the torn tail, keeps the appended record
//                 exactly when it is complete), and a --resume from any
//                 of them reproduces the baseline CSV byte-for-byte.
//
//   daemon-smoke  boots an in-process hemcpad server, SIGKILLs a worker
//                 mid-drain. Invariants: the daemon keeps serving, drains
//                 to exit 0, and its journal replays.
//
// Exit status (unified table, docs/robustness.md):
//   0  every invariant held
//   1  at least one invariant violated
//   3  usage error
//
// The harness runs everything in-process (forking workers like the real
// tools do), so an ASan/UBSan build of hemchaos checks the supervision
// paths for leaks and UB under fire — that is what CI's chaos-robustness
// job does.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "exec/batch_runner.hpp"
#include "exec/journal.hpp"
#include "exec/worker_process.hpp"
#include "scenarios/synth.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/types.h>
#include <unistd.h>
#define HEMCHAOS_POSIX 1
#else
#define HEMCHAOS_POSIX 0
#endif

namespace {

namespace fs = std::filesystem;

struct Args {
  std::string scenario = "all";
  int configs = 30;
  int crashers = 3;
  std::uint64_t seed = 1;
  int batch_jobs = 4;
  long kill_interval_ms = 25;
  std::string out_dir;
  bool keep = false;
};

int usage() {
  std::cerr << "usage: hemchaos [--scenario all|kill-storm|alloc-storm|torn-journal|"
               "daemon-smoke]\n"
               "                [--configs N] [--crashers K] [--seed S] [--batch-jobs N]\n"
               "                [--kill-interval-ms M] [--out-dir D] [--keep]\n";
  return 3;
}

int g_violations = 0;

/// Invariant check: prints PASS/FAIL and tallies failures for the exit code.
void check(bool ok, const std::string& what) {
  if (ok) {
    std::cout << "  ok    " << what << "\n";
  } else {
    ++g_violations;
    std::cout << "  FAIL  " << what << "\n";
  }
}

/// Small, fast, deterministic per-index analysis config.
std::string quick_config(std::uint64_t seed, int index) {
  // A synthesised multi-resource system keeps the analysis non-trivial
  // (layered gateway chains) while staying fast; seed+index makes every
  // config distinct so journal fingerprints never collide.
  hem::scenarios::SynthParams p;
  p.seed = seed * 1000 + static_cast<std::uint64_t>(index);
  p.resources = 3 + index % 4;
  p.tasks = p.resources * 3;
  p.layers = 1 + index % 3;
  p.utilization = 0.35;
  return hem::scenarios::to_config_text(hem::scenarios::build_synth_system(p));
}

/// Slow config: the EDF offset scan pairs every activation of one task in
/// the busy period with every deadline of the other, and the busy period
/// grows with the jitter, so analysis time grows with its square (about
/// 15 ms at jitter 5e5 and 0.3 s at 2e6 in a RelWithDebInfo build on a
/// 4-core x86 host) and workers live long enough to be murdered.  Distinct
/// jitters give distinct fingerprints and results.
std::string slow_config(long jitter) {
  return "resource R edf\n"
         "source s sem period=6000 jitter=" + std::to_string(jitter) + "\n"
         "source t periodic period=6000\n"
         "task H resource=R priority=1 cet=2700 deadline=600000\n"
         "task L resource=R priority=2 cet=2400 deadline=300000\n"
         "activate H from=s\n"
         "activate L from=t\n"
         "option overload_check=off\n";
}

std::string crasher_config(const std::string& fault) {
  return "option inject_fault=" + fault +
         "\n"
         "resource CPU1 spp\n"
         "source s1 periodic period=250\n"
         "task T1 resource=CPU1 priority=1 cet=24\n"
         "activate T1 from=s1\n";
}

/// Write a fleet of `n` configs, the first `crashers` of them carrying the
/// injected fault, and return their paths in manifest order.
std::vector<std::string> write_fleet(const fs::path& dir, const Args& args,
                                     const std::string& fault, bool slow = false) {
  fs::create_directories(dir);
  std::vector<std::string> configs;
  for (int i = 0; i < args.configs; ++i) {
    const bool crash = i < args.crashers;
    std::ostringstream name;
    name << (i < 10 ? "0" : "") << i << (crash ? "_crash" : "_ok") << ".hemcpa";
    const fs::path p = dir / name.str();
    std::ofstream out(p, std::ios::binary);
    out << (crash  ? crasher_config(fault)
            : slow ? slow_config(500'000 + 1'000 * i)
                   : quick_config(args.seed, i));
    configs.push_back(p.string());
  }
  return configs;
}

hem::exec::BatchOptions batch_options(const Args& args, const std::string& journal) {
  hem::exec::BatchOptions opt;
  opt.parallel_jobs = args.batch_jobs;
  opt.journal_path = journal;
  opt.crash_backoff_ms = 5;  // chaos runs should not sleep through the storm
  return opt;
}

std::string csv_of(const hem::exec::BatchReport& report) {
  std::ostringstream os;
  report.write_csv(os);
  return os.str();
}

/// Per-config CSV rows of the jobs that completed.
std::map<std::string, std::vector<std::string>> done_rows(const hem::exec::BatchReport& r) {
  std::map<std::string, std::vector<std::string>> rows;
  for (const hem::exec::JobResult& j : r.jobs)
    if (j.state == hem::exec::JobState::kDone) rows[j.path] = j.rows;
  return rows;
}

bool all_terminal(const hem::exec::BatchReport& r) {
  for (const hem::exec::JobResult& j : r.jobs)
    if (j.state == hem::exec::JobState::kQueued || j.state == hem::exec::JobState::kRunning)
      return false;
  return true;
}

// ---- kill-storm ----------------------------------------------------------

int scenario_kill_storm(const Args& args, const fs::path& dir) {
  std::cout << "scenario kill-storm: " << args.configs << " configs, "
            << args.crashers << " crashers, SIGKILL every " << args.kill_interval_ms
            << " ms\n";
  const auto configs = write_fleet(dir / "fleet", args, "segv", /*slow=*/true);

  // Baseline: no storm.  Crashers poison deterministically; everything
  // else completes.
  hem::exec::BatchReport baseline =
      hem::exec::BatchRunner(configs, batch_options(args, (dir / "baseline.journal").string()))
          .run();
  const auto baseline_rows = done_rows(baseline);
  check(static_cast<int>(baseline_rows.size()) == args.configs - args.crashers,
        "baseline: every clean config completed");

#if HEMCHAOS_POSIX
  // Storm run: a chaos thread SIGKILLs one live worker at a fixed cadence.
  // The kernel-style kill is indistinguishable from an OOM kill, so the
  // supervisor classifies it as resource exhaustion and respawns/poisons.
  std::atomic<bool> storming{true};
  long kills = 0;
  std::thread chaos([&] {
    while (storming.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(args.kill_interval_ms));
      const std::vector<int> pids = hem::exec::WorkerProcess::live_pids();
      if (!pids.empty()) {
        ::kill(static_cast<pid_t>(pids[kills % static_cast<long>(pids.size())]), SIGKILL);
        ++kills;
      }
    }
  });
  hem::exec::BatchReport stormed =
      hem::exec::BatchRunner(configs, batch_options(args, (dir / "storm.journal").string()))
          .run();
  storming.store(false);
  chaos.join();
  std::cout << "  (storm delivered " << kills << " SIGKILLs)\n";

  check(all_terminal(stormed), "storm: every job reached a terminal state");
  // Jobs that completed despite the storm carry bit-identical rows.
  bool rows_match = true;
  for (const auto& [path, rows] : done_rows(stormed)) {
    const auto base = baseline_rows.find(path);
    if (base == baseline_rows.end() || base->second != rows) rows_match = false;
  }
  check(rows_match, "storm: surviving jobs' rows are bit-identical to baseline");
  hem::exec::Journal journal((dir / "storm.journal").string());
  bool loadable = true;
  try {
    (void)journal.load();
  } catch (const std::exception&) {
    loadable = false;
  }
  check(loadable, "storm: journal stays loadable");
  check(!journal.entries().empty(), "storm: journal carries terminal records");
#else
  std::cout << "  (no POSIX process isolation: storm skipped)\n";
#endif
  return 0;
}

// ---- alloc-storm -----------------------------------------------------------

int scenario_alloc_storm(const Args& args, const fs::path& dir) {
  std::cout << "scenario alloc-storm: " << args.crashers
            << " allocation bombs under a 256 MiB worker cap\n";
  const auto configs = write_fleet(dir / "fleet", args, "oom");

  hem::exec::BatchOptions opt = batch_options(args, (dir / "alloc.journal").string());
  opt.worker_memory_mb = 256;  // the bomb dies on RLIMIT_AS, not the host
  hem::exec::BatchReport report = hem::exec::BatchRunner(configs, opt).run();

  check(all_terminal(report), "alloc: every job reached a terminal state");
  int poisoned = 0;
  int done = 0;
  for (const hem::exec::JobResult& j : report.jobs) {
    if (j.state == hem::exec::JobState::kPoisoned) ++poisoned;
    if (j.state == hem::exec::JobState::kDone) ++done;
  }
  check(poisoned == args.crashers, "alloc: every allocation bomb was quarantined");
  check(done == args.configs - args.crashers, "alloc: every clean config completed");
  check(report.exit_code() == 5, "alloc: poisoned jobs dominate the exit code");
  return 0;
}

// ---- torn-journal ----------------------------------------------------------

int scenario_torn_journal(const Args& args, const fs::path& dir) {
  // A small fleet is enough: the sweep cost is offsets x load, and the
  // resume equivalence check re-runs the batch per sampled offset.
  Args small = args;
  small.configs = std::min(args.configs, 6);
  small.crashers = 0;
  std::cout << "scenario torn-journal: " << small.configs
            << " configs, truncating at every byte offset\n";
  const auto configs = write_fleet(dir / "fleet", small, "segv");

  const std::string journal_path = (dir / "torn.journal").string();
  hem::exec::BatchReport baseline =
      hem::exec::BatchRunner(configs, batch_options(small, journal_path)).run();
  const std::string baseline_csv = csv_of(baseline);

  std::ifstream in(journal_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  in.close();

  bool all_recover = true;
  bool prefix_exact = true;
  std::vector<std::size_t> resume_cuts;
  std::size_t last_kept = static_cast<std::size_t>(-1);
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    const fs::path torn = dir / "cut.journal";
    {
      std::ofstream out(torn, std::ios::binary | std::ios::trunc);
      out << text.substr(0, cut);
    }
    hem::exec::Journal j(torn.string());
    try {
      (void)j.load();
    } catch (const std::exception&) {
      all_recover = false;
      break;
    }
    const auto& rec = j.last_recovery();
    if (rec.valid_bytes > cut) prefix_exact = false;
    // Sample one cut per distinct salvaged-prefix size for the (expensive)
    // resume equivalence check below.
    if (j.entries().size() != last_kept) {
      last_kept = j.entries().size();
      resume_cuts.push_back(cut);
    }
    fs::remove(torn);
    fs::remove(torn.string() + ".torn");
  }
  check(all_recover, "torn: Journal::load() recovers at every byte offset");
  check(prefix_exact, "torn: recovery never claims bytes past the cut");

  const auto resumes_to_baseline = [&](const std::string& journal_text) {
    const std::string resumed_journal = (dir / "resume.journal").string();
    {
      std::ofstream out(resumed_journal, std::ios::binary | std::ios::trunc);
      out << journal_text;
    }
    hem::exec::BatchOptions opt = batch_options(small, resumed_journal);
    opt.resume = true;
    hem::exec::BatchReport resumed = hem::exec::BatchRunner(configs, opt).run();
    fs::remove(resumed_journal);
    fs::remove(resumed_journal + ".torn");
    return csv_of(resumed) == baseline_csv;
  };

  bool resume_identical = true;
  for (const std::size_t cut : resume_cuts)
    if (!resumes_to_baseline(text.substr(0, cut))) resume_identical = false;
  std::cout << "  (" << resume_cuts.size() << " distinct salvage points resumed)\n";
  check(resume_identical, "torn: --resume from any tear reproduces the baseline CSV");

  // Interrupted append: Journal::add() writes `record + "end\n"` over the
  // old trailer, so a kill leaves the journal as it stood before the last
  // add() with the first k bytes of that write laid over its trailer.
  const std::size_t start = text.rfind("\njob ") + 1;
  const std::string before = text.substr(0, start) + "end\n";
  const std::string appended = text.substr(start);
  const std::size_t record = appended.size() - 4;
  const std::size_t earlier = hem::exec::Journal::parse(before).size();
  std::cout << "  replaying " << appended.size() + 1 << " interrupted-append states of a "
            << record << "-byte record\n";
  bool append_recovers = true;
  bool append_keeps_exact = true;
  bool append_resume_identical = true;
  for (std::size_t k = 0; k <= appended.size(); ++k) {
    std::string state = before;
    state.resize(std::max(state.size(), start + k));
    state.replace(start, k, appended, 0, k);
    const fs::path torn = dir / "append.journal";
    {
      std::ofstream out(torn, std::ios::binary | std::ios::trunc);
      out << state;
    }
    hem::exec::Journal j(torn.string());
    try {
      (void)j.load();
    } catch (const std::exception&) {
      append_recovers = false;
      break;
    }
    if (j.entries().size() != earlier + (k >= record ? 1 : 0)) append_keeps_exact = false;
    fs::remove(torn);
    fs::remove(torn.string() + ".torn");
    // Resume from the trailer-overlap states and both sides of the
    // record's last newline; each costs a batch run.
    if (k <= 4 || k + 1 == record || k == record || k == appended.size())
      if (!resumes_to_baseline(state)) append_resume_identical = false;
  }
  check(append_recovers, "torn: Journal::load() recovers every interrupted-append state");
  check(append_keeps_exact,
        "torn: an interrupted append keeps every earlier record, and its own once complete");
  check(append_resume_identical,
        "torn: --resume from an interrupted append reproduces the baseline CSV");
  return 0;
}

// ---- daemon-smoke ----------------------------------------------------------

int scenario_daemon_smoke(const Args& args, const fs::path& dir) {
  (void)args;
#if HEMCHAOS_POSIX
  std::cout << "scenario daemon-smoke: SIGKILL a worker mid-drain\n";
  fs::create_directories(dir);
  hem::daemon::ServerOptions opts;
  opts.socket_path = (dir / ("chaos." + std::to_string(::getpid()) + ".sock")).string();
  opts.journal_path = (dir / "daemon.journal").string();
  opts.pool_width = 2;
  opts.default_budget_ms = 30'000;
  hem::daemon::Server server(opts);
  server.start();
  {
    hem::daemon::Client client(server.socket_path(), /*io_timeout_ms=*/30'000);

    // A handful of slow jobs (analysis time grows with jitter) keeps
    // workers alive long enough to be murdered mid-drain.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
      const std::string slow = slow_config(2'000'000 + i);
      const std::string sub = client.submit(slow, {{"label", "slow" + std::to_string(i)}});
      check(hem::daemon::json_find(sub, "ok") == "true", "daemon: submit accepted");
      ids.push_back(std::stoull(hem::daemon::json_find(sub, "id")));
    }

    // Wait for a live worker, ask for a drain, then kill the worker while
    // the daemon is finishing its queue.
    std::vector<int> pids;
    for (int spin = 0; spin < 500 && pids.empty(); ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      pids = hem::exec::WorkerProcess::live_pids();
    }
    check(!pids.empty(), "daemon: a worker process came up");
    (void)client.drain();
    if (!pids.empty()) ::kill(static_cast<pid_t>(pids[0]), SIGKILL);

    // The daemon must keep answering protocol requests while draining.
    check(hem::daemon::json_find(client.ping(), "ok") == "true",
          "daemon: still answers ping after the kill");
  }
  const int exit_code = server.wait();
  check(exit_code == 0, "daemon: drained to exit 0 (got " + std::to_string(exit_code) + ")");

  hem::exec::Journal journal(opts.journal_path);
  bool loadable = true;
  try {
    (void)journal.load();
  } catch (const std::exception&) {
    loadable = false;
  }
  check(loadable, "daemon: journal replays after the chaos");
#else
  (void)dir;
  std::cout << "scenario daemon-smoke skipped: no POSIX process isolation\n";
#endif
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    try {
      if (arg == "--scenario") {
        const auto v = value();
        if (!v) return usage();
        args.scenario = *v;
      } else if (arg == "--configs") {
        const auto v = value();
        if (!v) return usage();
        args.configs = std::stoi(*v);
      } else if (arg == "--crashers") {
        const auto v = value();
        if (!v) return usage();
        args.crashers = std::stoi(*v);
      } else if (arg == "--seed") {
        const auto v = value();
        if (!v) return usage();
        args.seed = std::stoull(*v);
      } else if (arg == "--batch-jobs") {
        const auto v = value();
        if (!v) return usage();
        args.batch_jobs = std::stoi(*v);
      } else if (arg == "--kill-interval-ms") {
        const auto v = value();
        if (!v) return usage();
        args.kill_interval_ms = std::stol(*v);
      } else if (arg == "--out-dir") {
        const auto v = value();
        if (!v) return usage();
        args.out_dir = *v;
      } else if (arg == "--keep") {
        args.keep = true;
      } else {
        std::cerr << "error: unknown flag '" << arg << "'\n";
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.configs < 1 || args.crashers < 0 || args.crashers > args.configs ||
      args.batch_jobs < 1 || args.kill_interval_ms < 1)
    return usage();
  const bool all = args.scenario == "all";
  if (!all && args.scenario != "kill-storm" && args.scenario != "alloc-storm" &&
      args.scenario != "torn-journal" && args.scenario != "daemon-smoke")
    return usage();

  fs::path dir;
  if (args.out_dir.empty()) {
    dir = fs::temp_directory_path() / ("hemchaos-" +
#if HEMCHAOS_POSIX
                                       std::to_string(::getpid())
#else
                                       std::string("run")
#endif
                                      );
  } else {
    dir = args.out_dir;
  }
  fs::create_directories(dir);
  std::cout << "hemchaos: scratch dir " << dir.string() << "\n";

  // A scenario that escapes with an exception is itself a failed invariant
  // (the harness must survive whatever it injects), not a harness abort.
  const auto run_scenario = [&](const char* name, int (*fn)(const Args&, const fs::path&),
                                const fs::path& scratch) {
    try {
      (void)fn(args, scratch);
    } catch (const std::exception& e) {
      check(false, std::string(name) + ": escaped with exception: " + e.what());
    }
  };
  if (all || args.scenario == "kill-storm")
    run_scenario("kill-storm", scenario_kill_storm, dir / "kill");
  if (all || args.scenario == "alloc-storm")
    run_scenario("alloc-storm", scenario_alloc_storm, dir / "alloc");
  if (all || args.scenario == "torn-journal")
    run_scenario("torn-journal", scenario_torn_journal, dir / "torn");
  if (all || args.scenario == "daemon-smoke")
    run_scenario("daemon-smoke", scenario_daemon_smoke, dir / "daemon");

  if (g_violations == 0) {
    if (!args.keep) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    std::cout << "hemchaos: all invariants held\n";
    return 0;
  }
  std::cout << "hemchaos: " << g_violations << " invariant violation(s); artifacts kept in "
            << dir.string() << "\n";
  return 1;
}
