// Tests of the incremental / parallel CPA engine: bit-identical results for
// every job count, dirty-set scheduling doing strictly less work than the
// classic full re-evaluation, event-model node reuse across iterations, the
// model axioms on every model the example systems produce, and the stats
// edge cases (zero-lookup hit rates, separate race counters).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/errors.hpp"
#include "core/standard_event_model.hpp"
#include "io/csv.hpp"
#include "model/cpa_engine.hpp"
#include "obs/obs.hpp"
#include "scenarios/body_network.hpp"
#include "scenarios/paper_system.hpp"
#include "scenarios/synth.hpp"
#include "verify/model_checker.hpp"

namespace hem::cpa {
namespace {

ModelPtr periodic(Time p) { return StandardEventModel::periodic(p); }

/// Render everything observable about a report into one string: the task
/// table (with diagnostics), the CSV dump, and the diagnostic record list.
std::string fingerprint(const AnalysisReport& report) {
  std::ostringstream os;
  os << report.format() << "\n--csv--\n";
  io::write_report_csv(os, report);
  os << "--diag--\n";
  for (const auto& d : report.diagnostics.entries())
    os << static_cast<int>(d.severity) << "|" << static_cast<int>(d.code) << "|" << d.entity
       << "|" << d.detail << "|" << d.iteration << "\n";
  return os.str();
}

AnalysisReport run_with(const System& sys, int jobs, bool incremental = true) {
  EngineOptions opts;
  opts.jobs = jobs;
  opts.incremental = incremental;
  return CpaEngine(sys, opts).run();
}

/// The paper system with one source sped up until CPU1 overloads, so the
/// graceful-degradation paths (fallback bounds, taint propagation,
/// diagnostics) are exercised under parallel execution too.
System overloaded_paper_system() {
  scenarios::PaperSystemParams p;
  p.s1_period = 20;  // T1 cet 24 at period 20 -> CPU1 load > 1
  return scenarios::build_paper_system(p, true);
}

TEST(EngineParallelTest, PaperSystemIdenticalAcrossJobCounts) {
  const auto sys = scenarios::build_paper_system({}, true);
  const auto serial = run_with(sys, 1);
  ASSERT_TRUE(serial.converged);
  for (const int jobs : {2, 8}) {
    const auto parallel = run_with(sys, jobs);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel)) << "jobs=" << jobs;
    EXPECT_EQ(serial.iterations, parallel.iterations);
  }
}

TEST(EngineParallelTest, OverloadedSystemIdenticalAcrossJobCounts) {
  const auto sys = overloaded_paper_system();
  const auto serial = run_with(sys, 1);
  EXPECT_TRUE(serial.degraded());
  const auto parallel = run_with(sys, 8);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

TEST(EngineParallelTest, HardwareConcurrencyJobsRuns) {
  // jobs = 0 resolves to one thread per hardware core.
  const auto sys = scenarios::build_paper_system({}, true);
  const auto report = run_with(sys, 0);
  EXPECT_TRUE(report.converged);
  EXPECT_GE(report.stats.jobs, 1);
  EXPECT_EQ(fingerprint(run_with(sys, 1)), fingerprint(report));
}

TEST(EngineParallelTest, IncrementalMatchesFullRecomputation) {
  for (const auto* variant : {"paper", "overloaded"}) {
    const auto sys = std::string(variant) == "paper" ? scenarios::build_paper_system({}, true)
                                                     : overloaded_paper_system();
    const auto incremental = run_with(sys, 1, true);
    const auto full = run_with(sys, 1, false);
    EXPECT_EQ(fingerprint(incremental), fingerprint(full)) << variant;
    EXPECT_EQ(incremental.iterations, full.iterations) << variant;
  }
}

TEST(EngineParallelTest, IncrementalSkipsCleanResources) {
  const auto sys = scenarios::build_paper_system({}, true);
  const auto report = run_with(sys, 1);
  ASSERT_TRUE(report.converged);
  const long slots =
      static_cast<long>(report.iterations) * static_cast<long>(sys.resources().size());
  // Dirty-set scheduling must do strictly less work than iterations x
  // resources (CPU2 has no upstream change after its inputs settle).
  EXPECT_LT(report.stats.local_analyses_run, slots);
  EXPECT_GT(report.stats.local_analyses_skipped, 0);
  EXPECT_GT(report.stats.analysis_cache_hit_rate(), 0.0);
  // The full engine re-analyses every resolved resource every iteration.
  const auto full = run_with(sys, 1, false);
  EXPECT_GT(full.stats.local_analyses_run, report.stats.local_analyses_run);
  EXPECT_EQ(full.stats.local_analyses_skipped, 0);
}

TEST(EngineParallelTest, NodesReusedAcrossIterations) {
  // src -> a -> b -> c on separate resources: once a's response settles,
  // b's activation is rebuilt from the same producer node and must be
  // reused by pointer, not reconstructed.
  System sys;
  const auto r1 = sys.add_resource({"r1", Policy::kSppPreemptive});
  const auto r2 = sys.add_resource({"r2", Policy::kSppPreemptive});
  const auto r3 = sys.add_resource({"r3", Policy::kSppPreemptive});
  const auto a = sys.add_task({"a", r1, 1, sched::ExecutionTime(2, 5)});
  const auto b = sys.add_task({"b", r2, 1, sched::ExecutionTime(3)});
  const auto c = sys.add_task({"c", r3, 1, sched::ExecutionTime(4)});
  sys.activate_external(a, periodic(50));
  sys.activate_by(b, {a});
  sys.activate_by(c, {b});
  const auto report = run_with(sys, 1);
  ASSERT_TRUE(report.converged);
  EXPECT_GT(report.stats.models_reused, 0);
  EXPECT_GT(report.stats.local_analyses_skipped, 0);
  // Single-producer OR-combination is the producer's output node itself;
  // reuse keeps the identity visible in the report.
  EXPECT_EQ(report.task("b").activation.get(), report.task("a").output.get());
  EXPECT_EQ(report.task("c").activation.get(), report.task("b").output.get());
}

TEST(EngineParallelTest, StatsRecordJobCount) {
  const auto sys = scenarios::build_paper_system({}, true);
  EXPECT_EQ(run_with(sys, 1).stats.jobs, 1);
  EXPECT_EQ(run_with(sys, 8).stats.jobs, 8);
}

TEST(EngineParallelTest, StrictModeThrowsIdenticallyAcrossJobCounts) {
  const auto sys = overloaded_paper_system();
  std::string serial_what;
  std::string parallel_what;
  for (const int jobs : {1, 8}) {
    EngineOptions opts;
    opts.strict = true;
    opts.jobs = jobs;
    try {
      (void)CpaEngine(sys, opts).run();
      FAIL() << "expected AnalysisError, jobs=" << jobs;
    } catch (const AnalysisError& e) {
      (jobs == 1 ? serial_what : parallel_what) = e.what();
    }
  }
  EXPECT_EQ(serial_what, parallel_what);
}

// A single resource with many tasks used to be a worst case for the
// per-RESOURCE worker pool (exactly one work item, zero parallelism and
// pure thread-spawn overhead).  With per-task units it must both
// parallelise and stay bit-identical.
TEST(EngineParallelTest, SingleResourceManyTasksIdenticalAcrossJobCounts) {
  System sys;
  const ResourceId cpu = sys.add_resource({"CPU", Policy::kSppPreemptive});
  for (int i = 0; i < 48; ++i) {
    TaskSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.resource = cpu;
    spec.priority = i;
    spec.cet = sched::ExecutionTime(1 + i % 2, 3 + i % 5);
    const TaskId t = sys.add_task(std::move(spec));
    sys.activate_external(t, StandardEventModel::periodic_with_jitter(400 + 13 * i, 7 * (i % 4)));
  }
  const auto serial = run_with(sys, 1);
  ASSERT_TRUE(serial.converged);
  for (const int jobs : {2, 8}) {
    const auto parallel = run_with(sys, jobs);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel)) << "jobs=" << jobs;
  }
}

// Wide synthesised system (gateway chains, CAN buses, UUniFast load):
// reports must be bit-identical for every job count, including job counts
// far above the hardware's core count.
TEST(EngineParallelTest, WideSynthSystemIdenticalAcrossJobCounts) {
  scenarios::SynthParams params;
  params.resources = 40;
  params.tasks = 240;
  params.seed = 7;
  const auto sys = scenarios::build_synth_system(params);
  const auto serial = run_with(sys, 1);
  ASSERT_TRUE(serial.converged);
  for (const int jobs : {3, 16}) {
    const auto parallel = run_with(sys, jobs);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel)) << "jobs=" << jobs;
    EXPECT_EQ(serial.iterations, parallel.iterations);
  }
}

TEST(EngineParallelTest, ModelAxiomsHoldOnExampleSystems) {
  const System systems[] = {scenarios::build_paper_system({}, true),
                            scenarios::build_body_network({}),
                            scenarios::build_synth_system([] {
                              scenarios::SynthParams p;
                              p.resources = 5;
                              p.tasks = 20;
                              p.seed = 7;
                              return p;
                            }())};
  for (const auto& sys : systems) {
    const auto report = run_with(sys, 1);
    verify::ModelChecker checker;
    for (const auto& t : report.tasks) {
      if (t.activation) checker.check_model(*t.activation, t.name + ".activation");
      if (t.output) checker.check_model(*t.output, t.name + ".output");
    }
    EXPECT_TRUE(checker.ok()) << checker.format();
  }
}

TEST(EngineParallelTest, HitRatesAreZeroNotNaNWithoutLookups) {
  const EngineStats empty{};
  EXPECT_EQ(empty.curve_cache_hit_rate(), 0.0);
  EXPECT_FALSE(std::isnan(empty.curve_cache_hit_rate()));
  EXPECT_EQ(empty.analysis_cache_hit_rate(), 0.0);
  EXPECT_EQ(empty.node_reuse_rate(), 0.0);
  // A run with obs counting disabled records no cache probes at all — the
  // report must still present a well-defined (zero) hit rate.
  obs::set_counting(false);
  const auto report = run_with(scenarios::build_paper_system({}, true), 1);
  EXPECT_EQ(report.stats.cache_hits + report.stats.cache_misses, 0);
  EXPECT_FALSE(std::isnan(report.stats.curve_cache_hit_rate()));
  EXPECT_EQ(report.stats.curve_cache_hit_rate(), 0.0);
}

TEST(EngineParallelTest, RaceCountersAreSeparateAndZeroWhenSerial) {
  // With a single worker no publication can race in either subsystem; the
  // split fields must both read zero instead of cross-charging the
  // OutputModel recursion arena to the delta-memo caches.
  obs::set_counting(true);
  const auto report = run_with(scenarios::build_paper_system({}, true), 1);
  obs::set_counting(false);
  EXPECT_EQ(report.stats.cache_publish_races, 0);
  EXPECT_EQ(report.stats.rec_publish_races, 0);
  EXPECT_GT(report.stats.cache_hits + report.stats.cache_misses, 0);
}

}  // namespace
}  // namespace hem::cpa
