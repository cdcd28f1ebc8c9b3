#include "exec/batch_runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/journal.hpp"
#include "exec/worker_process.hpp"

namespace hem::exec {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name) : path_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string write(const std::string& name, const std::string& text) const {
    const fs::path p = path_ / name;
    std::ofstream out(p, std::ios::binary);
    out << text;
    return p.string();
  }
  [[nodiscard]] std::string file(const std::string& name) const { return (path_ / name).string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

const char* kTinyConfig =
    "resource CPU1 spp\n"
    "source s1 periodic period=10\n"
    "task A resource=CPU1 priority=1 cet=2\n"
    "activate A from=s1\n";

const char* kTinyConfig2 =
    "resource CPU1 spp\n"
    "source s1 periodic period=20\n"
    "task B resource=CPU1 priority=1 cet=3\n"
    "activate B from=s1\n";

// Matches examples/divergent_fixpoint.hemcpa: load 1 + 3.3e-10, linear
// busy-window divergence for ~3e9 fixpoint steps once the overload
// pre-check (which sees the exact load 3000000001/3000000000 > 1, as does
// HL001) and default busy-window budgets are lifted.
const char* kDivergentConfig =
    "resource R spp\n"
    "source s periodic period=3000000000\n"
    "task H resource=R priority=1 cet=3000000001\n"
    "activate H from=s\n"
    "option overload_check=off\n";

// Six-task activation chain across six resources: one task's output model
// settles per global iteration, so convergence needs ~8 iterations.  With
// max_iterations=3 the first attempt ends !converged (a transient,
// retryable outcome); the retry at 3 * retry_budget_factor iterations
// converges.  Deterministic — no wall-clock dependence.
std::string chain_config() {
  std::ostringstream os;
  for (int i = 1; i <= 6; ++i) os << "resource R" << i << " spp\n";
  os << "source s periodic period=100\n";
  for (int i = 1; i <= 6; ++i)
    os << "task T" << i << " resource=R" << i << " priority=1 cet=1\n";
  os << "activate T1 from=s\n";
  for (int i = 2; i <= 6; ++i) os << "activate T" << i << " from=T" << (i - 1) << "\n";
  return os.str();
}

std::string csv_of(const BatchReport& report) {
  std::ostringstream os;
  report.write_csv(os);
  return os.str();
}

TEST(BatchRunnerTest, AllJobsComplete) {
  TempDir dir("batch_all_done");
  const auto a = dir.write("a.hemcpa", kTinyConfig);
  const auto b = dir.write("b.hemcpa", kTinyConfig2);
  BatchOptions opt;
  opt.journal_path = dir.file("out.journal");
  BatchRunner runner({a, b}, opt);
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kDone);
  EXPECT_EQ(report.jobs[1].state, JobState::kDone);
  EXPECT_EQ(report.jobs[0].attempts, 1);
  EXPECT_TRUE(report.jobs[0].converged);
  EXPECT_FALSE(report.jobs[0].rows.empty());
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.exit_code(), 0);

  const std::string csv = csv_of(report);
  EXPECT_NE(csv.find("config,task,resource,bcrt,wcrt"), std::string::npos);
  EXPECT_NE(csv.find(",A,CPU1,"), std::string::npos);
  EXPECT_NE(csv.find(",B,CPU1,"), std::string::npos);
}

TEST(BatchRunnerTest, ParseErrorIsIsolatedToItsJob) {
  TempDir dir("batch_firewall");
  const auto bad = dir.write("bad.hemcpa", "task oops nonsense\n");
  const auto good = dir.write("good.hemcpa", kTinyConfig);
  BatchRunner runner({bad, good}, BatchOptions{});
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kFailed);
  EXPECT_FALSE(report.jobs[0].transient);  // config errors never retry
  EXPECT_FALSE(report.jobs[0].message.empty());
  EXPECT_EQ(report.jobs[1].state, JobState::kDone);  // the pool survives
  EXPECT_EQ(report.exit_code(), 5);
}

TEST(BatchRunnerTest, UnreadableConfigFailsWithoutCrashing) {
  TempDir dir("batch_unreadable");
  const auto good = dir.write("good.hemcpa", kTinyConfig);
  BatchRunner runner({dir.file("missing.hemcpa"), good}, BatchOptions{});
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kFailed);
  EXPECT_EQ(report.jobs[0].attempts, 0);
  EXPECT_EQ(report.jobs[1].state, JobState::kDone);
  EXPECT_EQ(report.exit_code(), 5);
}

TEST(BatchRunnerTest, WatchdogSoftCancelsDivergentJob) {
  TempDir dir("batch_watchdog");
  const auto divergent = dir.write("divergent.hemcpa", kDivergentConfig);
  const auto good = dir.write("good.hemcpa", kTinyConfig);
  BatchOptions opt;
  opt.job_budget_ms = 300;
  opt.max_retries = 0;
  // Lift the default busy-window budgets so the divergence is real.
  opt.fixpoint_max_iterations = 8000000000LL;
  opt.fixpoint_max_window = static_cast<Time>(8000000000000000000LL);
  opt.journal_path = dir.file("out.journal");
  BatchRunner runner({divergent, good}, opt);
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kCancelled);
  EXPECT_NE(report.jobs[0].message.find("watchdog"), std::string::npos)
      << report.jobs[0].message;
  EXPECT_EQ(report.jobs[1].state, JobState::kDone);
  EXPECT_EQ(report.watchdog_cancels, 1);
  EXPECT_EQ(report.abandoned, 0);  // cooperative cancel honoured, no escalation
  EXPECT_EQ(report.exit_code(), 5);

  // The cancelled job is terminal and journaled: a resume must NOT re-run it.
  Journal j(opt.journal_path);
  ASSERT_TRUE(j.load());
  ASSERT_EQ(j.entries().size(), 2u);
}

TEST(BatchRunnerTest, TransientFailureRetriesWithScaledBudget) {
  TempDir dir("batch_retry");
  const auto chain = dir.write("chain.hemcpa", chain_config());
  BatchOptions opt;
  opt.max_iterations = 3;        // first attempt cannot converge
  opt.retry_budget_factor = 4;   // retry runs with 12 iterations - plenty
  opt.max_retries = 1;
  opt.retry_backoff_ms = 1;
  BatchRunner runner({chain}, opt);
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, JobState::kDone);
  EXPECT_EQ(report.jobs[0].attempts, 2);
  EXPECT_TRUE(report.jobs[0].converged);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(BatchRunnerTest, TransientFailureExhaustsRetryBudget) {
  TempDir dir("batch_retry_exhausted");
  const auto chain = dir.write("chain.hemcpa", chain_config());
  BatchOptions opt;
  opt.max_iterations = 1;
  opt.retry_budget_factor = 1;  // retries get no extra budget: still transient
  opt.max_retries = 2;
  opt.retry_backoff_ms = 1;
  BatchRunner runner({chain}, opt);
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, JobState::kFailed);
  EXPECT_TRUE(report.jobs[0].transient);
  EXPECT_EQ(report.jobs[0].attempts, 3);  // 1 + max_retries
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(report.exit_code(), 5);
}

TEST(BatchRunnerTest, RetryBudgetFactorScalesEveryAttempt) {
  // With factor 2 the iteration budgets run 3, 6, 12: the chain needs ~8
  // global iterations, so attempt 1 and 2 stay transient and attempt 3
  // converges.  A broken scaler (constant budget) would exhaust retries.
  TempDir dir("batch_retry_scaling");
  const auto chain = dir.write("chain.hemcpa", chain_config());
  BatchOptions opt;
  opt.max_iterations = 3;
  opt.retry_budget_factor = 2;
  opt.max_retries = 2;
  opt.retry_backoff_ms = 1;
  BatchRunner runner({chain}, opt);
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, JobState::kDone);
  EXPECT_EQ(report.jobs[0].attempts, 3);
  EXPECT_TRUE(report.jobs[0].converged);
  EXPECT_EQ(report.retries, 2);
}

TEST(BatchRunnerTest, CancelledJobIsNeverRetried) {
  // Watchdog cancellation is terminal: the job was told to stop, so retry
  // budget must not resurrect it even when retries remain.
  TempDir dir("batch_cancel_no_retry");
  const auto divergent = dir.write("divergent.hemcpa", kDivergentConfig);
  BatchOptions opt;
  opt.job_budget_ms = 300;
  opt.max_retries = 3;  // plenty of retry budget that must stay unused
  opt.retry_backoff_ms = 1;
  opt.fixpoint_max_iterations = 8000000000LL;
  opt.fixpoint_max_window = static_cast<Time>(8000000000000000000LL);
  BatchRunner runner({divergent}, opt);
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, JobState::kCancelled);
  EXPECT_EQ(report.jobs[0].attempts, 1);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.exit_code(), 5);
}

TEST(BatchRunnerTest, ResumeSkipsJournaledJobs) {
  TempDir dir("batch_resume");
  const auto a = dir.write("a.hemcpa", kTinyConfig);
  const auto b = dir.write("b.hemcpa", kTinyConfig2);
  BatchOptions opt;
  opt.journal_path = dir.file("out.journal");
  BatchReport first = BatchRunner({a, b}, opt).run();
  ASSERT_EQ(first.exit_code(), 0);

  opt.resume = true;
  BatchReport second = BatchRunner({a, b}, opt).run();
  ASSERT_EQ(second.jobs.size(), 2u);
  EXPECT_TRUE(second.jobs[0].from_journal);
  EXPECT_TRUE(second.jobs[1].from_journal);
  EXPECT_EQ(second.jobs[0].attempts, first.jobs[0].attempts);
  EXPECT_EQ(second.journal_skips, 2);
  EXPECT_EQ(csv_of(second), csv_of(first));  // byte-identical merged report
}

TEST(BatchRunnerTest, ResumeRerunsEditedConfig) {
  TempDir dir("batch_resume_edited");
  const auto a = dir.write("a.hemcpa", kTinyConfig);
  BatchOptions opt;
  opt.journal_path = dir.file("out.journal");
  (void)BatchRunner({a}, opt).run();

  dir.write("a.hemcpa", kTinyConfig2);  // content changed => fingerprint changed
  opt.resume = true;
  const BatchReport second = BatchRunner({a}, opt).run();
  EXPECT_FALSE(second.jobs[0].from_journal);
  EXPECT_EQ(second.journal_skips, 0);
  EXPECT_EQ(second.jobs[0].state, JobState::kDone);
}

TEST(BatchRunnerTest, ShutdownFlagLeavesJobsQueuedWithExitSix) {
  TempDir dir("batch_shutdown_flag");
  const auto a = dir.write("a.hemcpa", kTinyConfig);
  const auto b = dir.write("b.hemcpa", kTinyConfig2);
  static volatile std::sig_atomic_t flag = 1;  // already requested before run()
  BatchRunner runner({a, b}, BatchOptions{});
  const BatchReport report = runner.run(&flag);
  EXPECT_TRUE(report.interrupted);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kQueued);
  EXPECT_EQ(report.jobs[1].state, JobState::kQueued);
  EXPECT_EQ(report.jobs[0].attempts, 0);
  EXPECT_EQ(report.exit_code(), 6);
}

TEST(BatchRunnerTest, ResultsAreIdenticalForAnyPoolWidth) {
  TempDir dir("batch_pool_width");
  std::vector<std::string> configs;
  configs.push_back(dir.write("a.hemcpa", kTinyConfig));
  configs.push_back(dir.write("b.hemcpa", kTinyConfig2));
  configs.push_back(dir.write("c.hemcpa", chain_config()));
  configs.push_back(dir.write("d.hemcpa", "garbage\n"));

  BatchOptions narrow;
  narrow.parallel_jobs = 1;
  BatchOptions wide;
  wide.parallel_jobs = 4;
  const BatchReport r1 = BatchRunner(configs, narrow).run();
  const BatchReport r4 = BatchRunner(configs, wide).run();
  EXPECT_EQ(csv_of(r1), csv_of(r4));
  EXPECT_EQ(r1.exit_code(), r4.exit_code());
}

TEST(BatchRunnerTest, CsvPlaceholderRowForNonDoneJobs) {
  BatchReport report;
  JobResult done;
  done.path = "ok.hemcpa";
  done.state = JobState::kDone;
  done.rows.push_back("ok.hemcpa,T,R,1,2,3,4,0.5,converged");
  JobResult failed;
  failed.path = "bad, name.hemcpa";  // comma forces CSV quoting
  failed.state = JobState::kFailed;
  report.jobs.push_back(done);
  report.jobs.push_back(failed);
  const std::string csv = csv_of(report);
  EXPECT_NE(csv.find("ok.hemcpa,T,R,1,2,3,4,0.5,converged\n"), std::string::npos);
  EXPECT_NE(csv.find("\"bad, name.hemcpa\",-,-,-,-,-,-,-,failed\n"), std::string::npos);
}

TEST(BatchRunnerTest, ExitCodePrecedence) {
  BatchReport report;
  JobResult job;
  job.state = JobState::kDone;
  report.jobs.push_back(job);
  EXPECT_EQ(report.exit_code(), 0);
  report.jobs[0].degraded = true;
  EXPECT_EQ(report.exit_code(), 4);
  JobResult failed;
  failed.state = JobState::kFailed;
  report.jobs.push_back(failed);
  EXPECT_EQ(report.exit_code(), 5);  // 5 beats 4
  report.interrupted = true;
  EXPECT_EQ(report.exit_code(), 6);  // 6 beats 5
}

TEST(BatchRunnerTest, RunIsSingleShot) {
  TempDir dir("batch_single_shot");
  const auto a = dir.write("a.hemcpa", kTinyConfig);
  BatchRunner runner({a}, BatchOptions{});
  (void)runner.run();
  EXPECT_THROW((void)runner.run(), std::logic_error);
}

const char* kCrasherConfig =
    "option inject_fault=segv\n"
    "resource CPU1 spp\n"
    "source s1 periodic period=250\n"
    "task C resource=CPU1 priority=1 cet=24\n"
    "activate C from=s1\n";

TEST(BatchRunnerTest, WorkerCrashEarnsOneRespawnThenPoisonsTheConfig) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  TempDir dir("batch_poison");
  const auto crasher = dir.write("crash.hemcpa", kCrasherConfig);
  const auto good = dir.write("ok.hemcpa", kTinyConfig);
  BatchOptions opt;
  opt.journal_path = dir.file("out.journal");
  opt.crash_backoff_ms = 1;
  const BatchReport report = BatchRunner({crasher, good}, opt).run();

  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kPoisoned);
  EXPECT_EQ(report.jobs[0].attempts, 2);  // crash -> respawn -> crash again
  EXPECT_NE(report.jobs[0].message.find("poisoned"), std::string::npos)
      << report.jobs[0].message;
  // Natively the crash detail names the fatal signal; under ASan the
  // intercepted segfault becomes a nonzero exit status instead.
  EXPECT_TRUE(report.jobs[0].message.find("signal") != std::string::npos ||
              report.jobs[0].message.find("status") != std::string::npos)
      << report.jobs[0].message;
  EXPECT_EQ(report.crash_respawns, 1);
  EXPECT_EQ(report.poisoned, 1);
  // The crash never took the batch down: the clean config completed.
  EXPECT_EQ(report.jobs[1].state, JobState::kDone);
  EXPECT_EQ(report.exit_code(), 5);

  // The quarantine is durable: the journal carries a `poisoned` record.
  Journal journal(opt.journal_path);
  ASSERT_TRUE(journal.load());
  bool found = false;
  for (const JournalEntry& e : journal.entries()) {
    if (e.config_path != crasher) continue;
    found = true;
    EXPECT_EQ(e.status, "poisoned");
    EXPECT_EQ(e.attempts, 2);
  }
  EXPECT_TRUE(found);
}

TEST(BatchRunnerTest, ResumeSkipsPoisonedConfigsWithoutReExecuting) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  TempDir dir("batch_poison_resume");
  const auto crasher = dir.write("crash.hemcpa", kCrasherConfig);
  const auto good = dir.write("ok.hemcpa", kTinyConfig);
  BatchOptions opt;
  opt.journal_path = dir.file("out.journal");
  opt.crash_backoff_ms = 1;
  const BatchReport first = BatchRunner({crasher, good}, opt).run();
  ASSERT_EQ(first.exit_code(), 5);

  opt.resume = true;
  const BatchReport second = BatchRunner({crasher, good}, opt).run();
  ASSERT_EQ(second.jobs.size(), 2u);
  EXPECT_TRUE(second.jobs[0].from_journal);
  EXPECT_EQ(second.jobs[0].state, JobState::kPoisoned);
  EXPECT_EQ(second.crash_respawns, 0);  // nothing was re-executed
  EXPECT_EQ(second.poisoned, 0);        // restored, not newly quarantined
  EXPECT_EQ(second.journal_skips, 2);
  EXPECT_EQ(second.exit_code(), 5);
  EXPECT_EQ(csv_of(second), csv_of(first));  // placeholder row is stable
}

TEST(BatchRunnerTest, AbortFaultIsClassifiedNotFatal) {
  if (!WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  TempDir dir("batch_abort_fault");
  const auto aborter = dir.write(
      "abort.hemcpa",
      "option inject_fault=abort\n"
      "resource CPU1 spp\n"
      "source s1 periodic period=250\n"
      "task C resource=CPU1 priority=1 cet=24\n"
      "activate C from=s1\n");
  BatchOptions opt;
  opt.crash_backoff_ms = 1;
  const BatchReport report = BatchRunner({aborter}, opt).run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, JobState::kPoisoned);
  EXPECT_EQ(report.exit_code(), 5);
}

TEST(BatchRunnerTest, NoIsolateStillCompletesCleanConfigs) {
  TempDir dir("batch_no_isolate");
  const auto a = dir.write("a.hemcpa", kTinyConfig);
  const auto b = dir.write("b.hemcpa", kTinyConfig2);
  BatchOptions opt;
  opt.isolate = false;
  const BatchReport report = BatchRunner({a, b}, opt).run();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, JobState::kDone);
  EXPECT_EQ(report.jobs[1].state, JobState::kDone);
  EXPECT_EQ(report.crash_respawns, 0);
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(BatchRunnerTest, CollectConfigsFromDirectorySorted) {
  TempDir dir("batch_collect_dir");
  dir.write("b.hemcpa", kTinyConfig);
  dir.write("a.hemcpa", kTinyConfig);
  dir.write("notes.txt", "ignored\n");
  const auto configs = BatchRunner::collect_configs(dir.path().string());
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(fs::path(configs[0]).filename(), "a.hemcpa");
  EXPECT_EQ(fs::path(configs[1]).filename(), "b.hemcpa");
}

TEST(BatchRunnerTest, CollectConfigsFromManifest) {
  TempDir dir("batch_collect_manifest");
  dir.write("a.hemcpa", kTinyConfig);
  dir.write("b.hemcpa", kTinyConfig2);
  // CRLF line endings and a comment, like a Windows-edited manifest.
  const auto manifest =
      dir.write("jobs.txt", "# fleet manifest\r\na.hemcpa\r\n\r\nb.hemcpa\r\n");
  const auto configs = BatchRunner::collect_configs(manifest);
  ASSERT_EQ(configs.size(), 2u);
  // Relative entries resolve against the manifest's directory.
  EXPECT_EQ(configs[0], dir.file("a.hemcpa"));
  EXPECT_EQ(configs[1], dir.file("b.hemcpa"));
}

TEST(BatchRunnerTest, CollectConfigsRejectsBadOperands) {
  TempDir dir("batch_collect_bad");
  EXPECT_THROW((void)BatchRunner::collect_configs(dir.file("nope")), std::invalid_argument);
  EXPECT_THROW((void)BatchRunner::collect_configs(dir.path().string()),  // empty dir
               std::invalid_argument);
}

TEST(BatchRunnerTest, MissingOperandErrorNamesThePathAndExpectation) {
  // `hemcpa --batch nope` exits 3 with this message: it must say what was
  // expected, not just that an open failed.
  TempDir dir("batch_collect_missing_msg");
  try {
    (void)BatchRunner::collect_configs(dir.file("nope"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(dir.file("nope")), std::string::npos) << msg;
    EXPECT_NE(msg.find("does not exist"), std::string::npos) << msg;
    EXPECT_NE(msg.find("manifest"), std::string::npos) << msg;
  }
}

TEST(BatchRunnerTest, UnreadableManifestErrorMentionsPermissions) {
  TempDir dir("batch_collect_unreadable_msg");
  const auto manifest = dir.write("jobs.txt", "a.hemcpa\n");
  if (::geteuid() == 0) GTEST_SKIP() << "root ignores file permission bits";
  fs::permissions(manifest, fs::perms::none);
  try {
    (void)BatchRunner::collect_configs(manifest);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(manifest), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot be opened"), std::string::npos) << msg;
    EXPECT_NE(msg.find("permissions"), std::string::npos) << msg;
  }
  fs::permissions(manifest, fs::perms::owner_all);
}

}  // namespace
}  // namespace hem::exec
