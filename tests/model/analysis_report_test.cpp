#include "model/analysis_report.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/errors.hpp"
#include "core/standard_event_model.hpp"
#include "model/cpa_engine.hpp"

namespace hem::cpa {
namespace {

TEST(AnalysisReportTest, TaskLookupThrowsForUnknown) {
  AnalysisReport report;
  TaskResult r;
  r.name = "known";
  report.tasks.push_back(r);
  EXPECT_EQ(&report.task("known"), &report.tasks[0]);
  EXPECT_THROW((void)report.task("unknown"), std::invalid_argument);
}

TEST(AnalysisReportTest, RateOfPeriodicStreamIsExact) {
  const auto m = StandardEventModel::periodic(100);
  EXPECT_EQ(m->rate(), Rate::of(1, 100));
  EXPECT_EQ(m->rate().to_double(), 0.01);
}

TEST(AnalysisReportTest, RateOfBurstyStreamIsUnbounded) {
  // Unbounded jitter and no minimum distance: eta+ is infinite at every
  // window, so the stream loads any resource beyond capacity.
  const auto m = StandardEventModel::sporadic(100, kTimeInfinity, 0);
  EXPECT_TRUE(m->rate().is_unbounded());
  EXPECT_TRUE(std::isinf(m->rate().to_double()));
}

TEST(AnalysisReportTest, UtilizationIsRateTimesWcet) {
  // P = 3, C = 1: the report shows exactly 1/3, not a horizon sample of it.
  System sys;
  const auto cpu = sys.add_resource({"cpu", Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(1)});
  sys.activate_external(t, StandardEventModel::periodic(3));
  const AnalysisReport report = CpaEngine(sys).run();
  EXPECT_EQ(report.task("t").utilization, 1.0 / 3.0);
}

TEST(AnalysisReportTest, NonConvergenceNamesUnresolvedTasks) {
  // A two-task mutual cycle with no external stimulus path cannot
  // bootstrap; the error message must name the stuck tasks.
  System sys;
  const auto cpu1 = sys.add_resource({"cpu1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"cpu2", Policy::kSppPreemptive});
  const auto a = sys.add_task({"alpha", cpu1, 1, sched::ExecutionTime(1)});
  const auto b = sys.add_task({"beta", cpu2, 1, sched::ExecutionTime(1)});
  sys.activate_by(a, {b});
  sys.activate_by(b, {a});
  EngineOptions opts;
  opts.max_iterations = 8;
  opts.check_overload = false;
  opts.strict = true;
  try {
    (void)CpaEngine(sys, opts).run();
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
  // Graceful default: same system completes, naming the stuck tasks in
  // unresolved-activation diagnostics instead of throwing.
  opts.strict = false;
  const auto report = CpaEngine(sys, opts).run();
  EXPECT_FALSE(report.converged);
  EXPECT_TRUE(report.degraded());
  EXPECT_TRUE(is_infinite(report.task("alpha").wcrt));
  EXPECT_TRUE(is_infinite(report.task("beta").wcrt));
  const std::string diag = report.diagnostics.format();
  EXPECT_NE(diag.find("alpha"), std::string::npos) << diag;
  EXPECT_NE(diag.find("beta"), std::string::npos) << diag;
}

}  // namespace
}  // namespace hem::cpa
