// batch_fleet: exec::BatchRunner over a fleet of mid-size synth configs
// (10-30 resources) that mixes packed frames, TDMA and round-robin
// resources, in an order and statement order drawn from the workload seed,
// with parallel_jobs = nproc (capped at 4), engine_jobs = 1, worker
// isolation on and a journal.  Parallelism runs across configs, not
// inside one analysis, and every attempt pays a worker fork, a result frame
// and a journal rewrite.

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "exec/batch_runner.hpp"
#include "scenarios/synth.hpp"
#include "workloads.hpp"

namespace hembench {

namespace {

/// Fleet size: with similar-sized configs and 4 slots, no config takes more
/// than about a tenth of a batch's wall time.
constexpr int kFleet = 160;
/// Generator seed of the fleet's systems.  The workload seed orders the
/// fleet and reorders each config's statements but leaves the systems as
/// they are: the largest worker's memory is set by the single heaviest
/// config, and over freshly seeded fleets peak_rss_mb ranged from 55 to
/// 101 MiB (seeds 11-20), which made it a property of the seed.
constexpr std::uint64_t kFleetSeed = 1;

struct Fleet {
  std::vector<std::string> paths;
  std::vector<std::string> texts;
  std::vector<std::vector<std::string>> refs;
};

Fleet make_fleet(std::uint64_t seed, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::mt19937_64 rng(kFleetSeed);
  std::vector<std::string> systems;
  for (int j = 0; j < kFleet; ++j) {
    hem::scenarios::SynthParams p;
    p.resources = std::uniform_int_distribution<int>(10, 30)(rng);
    p.tasks = 4 * p.resources;
    p.seed = rng();
    // The kinds rotate: packed frames, TDMA, round-robin, and all three.
    // Configs with TDMA resources are single-layer: every TDMA resource is
    // analysed as overloaded (known defect, NOTES.md), and with deeper
    // layers the degraded outputs cascade downstream, so one config's cost
    // ranges from 20 ms to 4 s by seed and no fleet size keeps a batch
    // steady.  Single-layer, the defect still shows on every TDMA resource.
    switch (j % 4) {
      case 0:
        p.packed_permille = 300;
        break;
      case 1:
        p.tdma_permille = 250;
        p.layers = 1;
        break;
      case 2:
        p.rr_permille = 250;
        break;
      default:
        p.packed_permille = 300;
        p.tdma_permille = 250;
        p.rr_permille = 250;
        p.layers = 1;
        break;
    }
    systems.push_back(hem::scenarios::to_config_text(hem::scenarios::build_synth_system(p)));
  }
  std::mt19937_64 order(seed);
  for (std::size_t k = systems.size(); k > 1; --k) std::swap(systems[k - 1], systems[order() % k]);
  Fleet f;
  for (int j = 0; j < kFleet; ++j) {
    char name[32];
    std::snprintf(name, sizeof(name), "/cfg%03d.hemcpa", j);
    f.paths.push_back(dir + name);
    f.texts.push_back(shuffle_statements(systems[static_cast<std::size_t>(j)], order()));
    std::ofstream(f.paths.back()) << f.texts.back();
  }
  return f;
}

hem::exec::BatchOptions batch_options(int width, const std::string& journal) {
  hem::exec::BatchOptions b;
  b.parallel_jobs = width;
  b.engine_jobs = 1;
  b.isolate = true;
  b.journal_path = journal;
  return b;
}

}  // namespace

RunResult run_batch_fleet(const Options& o) {
  RunResult r;
  const std::string dir = o.workdir + "/fleet";
  const std::string journal = o.workdir + "/fleet.journal";
  std::vector<double> setup_s;
  Fleet fleet;
  Dominance dom;
  std::string table3;
  long degraded_refs = 0;
  for (int k = 0; k < o.setup_repeats; ++k) {
    const auto t0 = Clock::now();
    fleet = make_fleet(o.seed, dir);
    degraded_refs = 0;
    for (std::size_t j = 0; j < fleet.paths.size(); ++j) {
      Reference ref = reference_for(fleet.texts[j], fleet.paths[j]);
      degraded_refs += ref.degraded ? 1 : 0;
      fleet.refs.push_back(std::move(ref.rows));
    }
    table3 = check_table3(reference_for(paper_system_text(), "paper").rows);
    // Warm-up: one isolated batch over the first `width` configs.
    const std::vector<std::string> warm(fleet.paths.begin(), fleet.paths.begin() + o.width);
    (void)hem::exec::BatchRunner(warm, batch_options(o.width, journal)).run();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // The simulator's dominance gate runs once, untimed (see kSetupRepeats).
  for (const std::string& text : fleet.texts) check_dominance(text, dom);
  if (!table3.empty()) r.fail(table3);
  if (dom.violations != 0) r.fail("simulation exceeded an analytic bound: " + dom.first_violation);
  note("dominance: " + std::to_string(dom.systems_checked) + " system(s), " +
       std::to_string(dom.tasks_checked) + " task(s) checked, " + std::to_string(dom.violations) +
       " violation(s), " + std::to_string(dom.systems_skipped) +
       " skipped (TDMA/round-robin: no simulator)");
  note("known defect: " + std::to_string(degraded_refs) + " of " + std::to_string(kFleet) +
       " references are degraded (TDMA configs analysed as overloaded); counted as valid");
  if (o.corrupt_reference) fleet.refs.front() = corrupted(fleet.refs.front());

  Spans off(false);
  Spans on(o.trace);
  if (!reset_peak_rss()) note("peak RSS could not be reset; it includes set-up");
  const double cpu0 = self_and_children_cpu_ms();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(o.seconds);
  // Each batch is verified as soon as it ends and its report dropped, so the
  // heap of this process (which every forked worker inherits) does not grow.
  long batches = 0, failed = 0, jobs = 0, degraded = 0, retries = 0, respawns = 0, watchdog = 0;
  double busy_ms = 0.0, max_job_ms = 0.0, batch_ms = 0.0;
  std::vector<long> job_ms;
  std::vector<double> off_ms, on_ms;
  while (Clock::now() < deadline) {
    Spans& spans = batches % 2 == 0 ? off : on;
    const std::uint64_t req = static_cast<std::uint64_t>(++batches);
    const auto t0 = Clock::now();
    SpanScope op(spans, "batch_fleet.batch", Spans::kNoParent, req);
    hem::exec::BatchReport report;
    {
      SpanScope run(spans, "exec.batch_runner.run", op.id(), req);
      report = hem::exec::BatchRunner(fleet.paths, batch_options(o.width, journal)).run();
    }
    const double wall = ms_between(t0, Clock::now());
    (batches % 2 == 1 ? off_ms : on_ms).push_back(wall);
    batch_ms += wall;
    SpanScope verify(spans, "bench.verify", op.id(), req);
    retries += report.retries;
    respawns += report.crash_respawns;
    watchdog += report.watchdog_cancels;
    for (std::size_t j = 0; j < report.jobs.size(); ++j) {
      const hem::exec::JobResult& job = report.jobs[j];
      ++jobs;
      busy_ms += static_cast<double>(job.duration_ms);
      max_job_ms = std::max(max_job_ms, static_cast<double>(job.duration_ms));
      if (job.state != hem::exec::JobState::kDone) {
        ++failed;
        note(job.path + " ended " + hem::exec::to_string(job.state) + ": " + job.message);
        continue;
      }
      job_ms.push_back(job.duration_ms);
      degraded += job.degraded ? 1 : 0;
      if (job.rows != fleet.refs[j]) {
        ++failed;
        r.fail(job.path + ": batch rows differ from the in-process reference");
      }
    }
  }
  const double wall_ms = ms_between(start, Clock::now());
  const double cpu = self_and_children_cpu_ms() - cpu0;
  // The process running BatchRunner and its workers.  Set-up's workers count
  // too (they cannot be told apart), but the warm-up batch runs configs the
  // timed batches run again.
  const double own_mb = self_peak_rss_mb();
  const double worker_mb = children_peak_rss_mb();
  const double peak_mb = std::max(own_mb, worker_mb);
  note("peak RSS " + std::to_string(own_mb) + " MiB; largest worker " + std::to_string(worker_mb) + " MiB");
  r.attempted = jobs;
  r.failed = failed;
  const double mean_batch_ms = batch_ms / static_cast<double>(batches);
  note(std::to_string(batches) + " batch(es) of " + std::to_string(kFleet) +
       " configs; slowest config " + std::to_string(static_cast<long>(max_job_ms)) +
       " ms = " + std::to_string(max_job_ms / mean_batch_ms) + " of a mean batch wall");

  if (!o.trace) {
    r.set("setup_s", median(setup_s), "s");
    // Per-config attempt wall clock as the runner records it (whole ms).
    r.set("latency_ms_p50", binned_quantile(job_ms, 0.5), "ms");
    r.set("latency_ms_p90", binned_quantile(job_ms, 0.9), "ms");
    r.set("throughput_per_s", static_cast<double>(jobs) / (wall_ms / 1e3), "1/s");
    r.set("cpu_ms_per_op", cpu / static_cast<double>(jobs), "ms");
    r.set("peak_rss_mb", peak_mb, "MiB");
    r.set("success_rate", static_cast<double>(jobs - failed) / static_cast<double>(jobs), "fraction");
    return r;
  }

  if (!on_ms.empty()) r.set("bench.trace_delta_frac", median(on_ms) / median(off_ms) - 1.0, "fraction");
  r.set("exec.slot_busy_frac", busy_ms / (batch_ms * o.width), "fraction");
  r.set("exec.retries", static_cast<double>(retries), "count");
  r.set("exec.crash_respawns", static_cast<double>(respawns), "count");
  r.set("exec.watchdog_cancels", static_cast<double>(watchdog), "count");
  r.set("exec.degraded_jobs", static_cast<double>(degraded) / static_cast<double>(batches), "count");
  probe_journal(journal, o.workdir + "/journal.probe", r);
  probe_worker_rtt(r);
  replay_model_layers(std::vector<std::string>(fleet.texts.begin(), fleet.texts.begin() + 8), o.width, 2, r);
  finish_spans(on, "batch_fleet.batch", o.workdir + "/trace-batch_fleet.json", r);
  return r;
}

}  // namespace hembench
