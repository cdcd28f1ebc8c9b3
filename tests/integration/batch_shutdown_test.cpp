// End-to-end robustness test for `hemcpa --batch`: forks the real binary,
// delivers SIGINT mid-run, and checks the crash-safety contract — exit
// code 6, a complete parseable journal, no partial merged CSV, and a
// `--resume` whose final CSV is byte-identical to an uninterrupted run.
// POSIX-only (fork/exec/kill/waitpid); skipped elsewhere.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <cerrno>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/journal.hpp"

namespace hem {
namespace {

namespace fs = std::filesystem;

// Matches examples/divergent_fixpoint.hemcpa — load 1 + 3.3e-10, which the
// exact overload pre-check would reject, hence overload_check=off; only a
// watchdog or a shutdown cancel stops it once the fixpoint budgets are
// lifted.
const char* kDivergentConfig =
    "resource R spp\n"
    "source s periodic period=3000000000\n"
    "task H resource=R priority=1 cet=3000000001\n"
    "activate H from=s\n"
    "option overload_check=off\n";

std::string quick_config(int period) {
  std::ostringstream os;
  os << "resource CPU spp\n"
     << "source s periodic period=" << period << "\n"
     << "task T resource=CPU priority=1 cet=2\n"
     << "activate T from=s\n";
  return os.str();
}

class BatchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs each test as its own process, so
    // a shared path would let one test's cleanup race another's run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) / (std::string("hemcpa_batch_it_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "configs");
    // Sorted first so the divergent job is in flight when SIGINT lands.
    write("configs/00_divergent.hemcpa", kDivergentConfig);
    write("configs/10_quick.hemcpa", quick_config(10));
    write("configs/20_quick.hemcpa", quick_config(20));
    write("configs/30_quick.hemcpa", quick_config(50));
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write(const std::string& rel, const std::string& text) const {
    std::ofstream out(dir_ / rel, std::ios::binary);
    out << text;
  }

  [[nodiscard]] std::string path(const std::string& rel) const { return (dir_ / rel).string(); }

  /// Fork/exec hemcpa with `args`; deliver SIGINT after `sigint_after_ms`
  /// (< 0 = never); return the child's exit status (-1 on abnormal death).
  static int run_hemcpa(const std::vector<std::string>& args, long sigint_after_ms = -1) {
    const pid_t pid = fork();
    if (pid == 0) {
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) {
        ::dup2(null_fd, STDOUT_FILENO);
        ::dup2(null_fd, STDERR_FILENO);
        ::close(null_fd);
      }
      std::vector<char*> argv;
      std::string bin = HEMCPA_BIN;
      argv.push_back(bin.data());
      std::vector<std::string> copy = args;
      for (std::string& a : copy) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(HEMCPA_BIN, argv.data());
      ::_exit(127);
    }
    if (pid < 0) return -1;
    if (sigint_after_ms >= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sigint_after_ms));
      ::kill(pid, SIGINT);
    }
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    if (reaped != pid) return -2;
    if (WIFSIGNALED(status)) return -(1000 + WTERMSIG(status));
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  [[nodiscard]] std::vector<std::string> batch_args(const std::string& out_csv,
                                                    bool resume = false) const {
    std::vector<std::string> args = {
        "--batch",           path("configs"),
        "--out",             out_csv,
        "--job-budget-ms",   "1000",
        "--grace-ms",        "8000",
        "--retries",         "0",
        // Lift the default busy-window budgets so the divergent config
        // spins until the watchdog (or a shutdown cancel) stops it.
        "--fixpoint-steps",  "8000000000",
        "--fixpoint-window", "8000000000000000000",
    };
    if (resume) args.push_back("--resume");
    return args;
  }

  static std::string slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(BatchFixture, SigintMidBatchJournalsCleanlyAndResumeIsByteIdentical) {
  // Baseline: uninterrupted run.  The divergent config is watchdog-
  // cancelled (a failed job), the three quick configs complete -> exit 5.
  const std::string baseline_csv = path("baseline.csv");
  ASSERT_EQ(run_hemcpa(batch_args(baseline_csv)), 5);
  ASSERT_TRUE(fs::exists(baseline_csv));

  // Interrupted run: SIGINT while the divergent job is still inside its
  // 1000 ms watchdog budget.
  const std::string out_csv = path("interrupted.csv");
  ASSERT_EQ(run_hemcpa(batch_args(out_csv), 250), 6);

  // No partial merged CSV may exist after an interrupt.
  EXPECT_FALSE(fs::exists(out_csv));

  // The journal must be complete and parseable (the `end` trailer is the
  // completeness witness — Journal::load throws on a torn file).
  const std::string journal_path = out_csv + ".journal";
  ASSERT_TRUE(fs::exists(journal_path));
  exec::Journal journal(journal_path);
  ASSERT_TRUE(journal.load());
  // The in-flight divergent job was shutdown-cancelled, NOT journaled, so
  // resume re-runs it; at most the quick jobs that finished early appear.
  for (const exec::JournalEntry& e : journal.entries())
    EXPECT_EQ(e.config_path.find("divergent"), std::string::npos) << e.config_path;

  // Resume completes the batch and the merged CSV is byte-identical to
  // the uninterrupted baseline.
  ASSERT_EQ(run_hemcpa(batch_args(out_csv, /*resume=*/true), -1), 5);
  ASSERT_TRUE(fs::exists(out_csv));
  EXPECT_EQ(slurp(out_csv), slurp(baseline_csv));

  // Every config is terminal in the resumed journal.
  exec::Journal final_journal(journal_path);
  ASSERT_TRUE(final_journal.load());
  EXPECT_EQ(final_journal.entries().size(), 4u);
}

TEST_F(BatchFixture, UsageErrorsExitThree) {
  EXPECT_EQ(run_hemcpa({}), 3);
  EXPECT_EQ(run_hemcpa({"--batch"}), 3);
  EXPECT_EQ(run_hemcpa({"--batch", path("does_not_exist")}), 3);
  EXPECT_EQ(run_hemcpa({"--batch", path("configs"), "--batch-jobs", "zero"}), 3);
}

TEST_F(BatchFixture, SingleRunExitCodesUnchangedByBatchLayer) {
  // 0: a clean config analysed the classic way.
  EXPECT_EQ(run_hemcpa({path("configs/10_quick.hemcpa")}), 0);
  // 3: unreadable config (usage beats everything).
  EXPECT_EQ(run_hemcpa({path("configs/missing.hemcpa")}), 3);
}

}  // namespace
}  // namespace hem

#endif  // POSIX
