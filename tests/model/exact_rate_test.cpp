// Regression tests for the exact overload pre-check: a resource loaded to
// exactly 1 is not overloaded, one loaded a hair above 1 is.  The load is
// the sum of C+ times each activation's exact rate (EventModel::rate), so
// there is no sampling horizon to round it to either side.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/errors.hpp"
#include "model/cpa_engine.hpp"
#include "model/textual_config.hpp"

namespace hem::cpa {
namespace {

// One SPP task with P = 3, C = 3: utilization exactly 1.  The busy window
// closes at t = 3, so the task is schedulable with R+ = 3.
constexpr const char* kFullLoad = R"(resource CPU spp
source s periodic period=3
task T resource=CPU priority=1 cet=3
activate T from=s
)";

AnalysisReport analyse(const std::string& text, EngineOptions options = {}) {
  std::istringstream in(text);
  const ParsedSystem parsed = parse_system_config(in);
  options.check_overload = parsed.check_overload;
  return CpaEngine(parsed.system, options).run();
}

bool has_code(const AnalysisReport& report, DiagCode code) {
  const auto& entries = report.diagnostics.entries();
  return std::any_of(entries.begin(), entries.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

TEST(ExactRateOverload, SingleTaskAtFullLoadConverges) {
  const AnalysisReport report = analyse(kFullLoad);
  ASSERT_TRUE(report.converged);
  EXPECT_FALSE(report.degraded());
  EXPECT_FALSE(has_code(report, DiagCode::kResourceOverload)) << report.format();
  const TaskResult& t = report.task("T");
  EXPECT_EQ(t.status, TaskStatus::kConverged);
  EXPECT_EQ(t.wcrt, 3);
  EXPECT_EQ(t.utilization, 1.0);
}

TEST(ExactRateOverload, SingleTaskAtFullLoadExitsZeroFromCli) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hem_exact_rate_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "full_load.hemcpa";
  std::ofstream(path) << kFullLoad;
  const std::string cmd = std::string(HEMCPA_BIN) + " " + path.string() + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ExactRateOverload, StrictModeAcceptsFullLoad) {
  EngineOptions opts;
  opts.strict = true;
  EXPECT_EQ(analyse(kFullLoad, opts).task("T").wcrt, 3);
}

TEST(ExactRateOverload, LoadJustAboveOneIsOverloaded) {
  // C = P + 1 at P = 3e9: load 3000000001/3000000000 = 1 + 3.3e-10.
  const std::string text = R"(resource R spp
source s periodic period=3000000000
task H resource=R priority=1 cet=3000000001
activate H from=s
)";
  const AnalysisReport report = analyse(text);
  EXPECT_TRUE(has_code(report, DiagCode::kResourceOverload)) << report.format();
  EXPECT_EQ(report.task("H").status, TaskStatus::kOverloaded);

  EngineOptions strict;
  strict.strict = true;
  try {
    (void)analyse(text, strict);
    FAIL() << "expected an overload error";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverload);
    EXPECT_NE(std::string(e.what()).find("3000000001/3000000000"), std::string::npos)
        << e.what();
  }
}

TEST(ExactRateOverload, TwoTasksAtFullLoadAreNotReportedOverloaded) {
  // {P=3, C=1; P=6, C=4} is schedulable (B's busy window closes at t = 6),
  // and the pre-check no longer calls it overloaded.  The SPP busy-window
  // iteration still cannot prove it: higher-priority interference counts
  // events in the closed window eta+(w + 1), which never closes at U = 1,
  // so both tasks degrade with busy-window-budget (docs/analyses.md,
  // "Failure modes").
  const AnalysisReport report = analyse(R"(resource CPU spp
source a periodic period=3
source b periodic period=6
task A resource=CPU priority=1 cet=1
task B resource=CPU priority=2 cet=4
activate A from=a
activate B from=b
)");
  EXPECT_FALSE(has_code(report, DiagCode::kResourceOverload)) << report.format();
  EXPECT_TRUE(has_code(report, DiagCode::kBusyWindowBudget)) << report.format();
  EXPECT_EQ(report.task("A").utilization + report.task("B").utilization, 1.0);
}

}  // namespace
}  // namespace hem::cpa
