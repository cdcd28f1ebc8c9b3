#include "sched/busy_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "core/errors.hpp"
#include "core/standard_event_model.hpp"
#include "exec/cancel.hpp"
#include "sched/can_bus.hpp"
#include "sched/edf.hpp"
#include "sched/round_robin.hpp"
#include "sched/spp.hpp"
#include "sched/tdma.hpp"

namespace hem::sched {
namespace {

TEST(ExecutionTimeTest, Validation) {
  EXPECT_NO_THROW(ExecutionTime(0));
  EXPECT_NO_THROW(ExecutionTime(2, 5));
  EXPECT_THROW(ExecutionTime(-1), std::invalid_argument);
  EXPECT_THROW(ExecutionTime(5, 2), std::invalid_argument);
  const ExecutionTime e(3);
  EXPECT_EQ(e.best, 3);
  EXPECT_EQ(e.worst, 3);
}

TEST(LeastFixpointTest, FindsFixpoint) {
  // w = 10 + floor(w/2): ascending from 0 stabilises at 19.
  const Time w = least_fixpoint([](Time w_cur) { return 10 + w_cur / 2; }, 0, {},
                                "test");
  EXPECT_EQ(w, 19);
}

TEST(LeastFixpointTest, ImmediateFixpoint) {
  EXPECT_EQ(least_fixpoint([](Time w) { return w; }, 7, {}, "test"), 7);
}

TEST(LeastFixpointTest, DivergenceHitsWindowCap) {
  FixpointLimits limits;
  limits.max_window = 1000;
  EXPECT_THROW(least_fixpoint([](Time w) { return w + 7; }, 0, limits, "test"),
               AnalysisError);
}

TEST(LeastFixpointTest, NonMonotoneDetected) {
  EXPECT_THROW(least_fixpoint([](Time w) { return w > 5 ? 0 : w + 3; }, 0, {}, "test"),
               AnalysisError);
}

TEST(BacklogBoundTest, PeriodicNeverQueues) {
  const auto m = StandardEventModel::periodic(100);
  // Completions well before the next arrival.
  EXPECT_EQ(backlog_bound(*m, {10}), 1);
}

TEST(BacklogBoundTest, SlowServiceAccumulates) {
  const auto m = StandardEventModel::periodic(10);
  // Completions at 25, 50, 75: when job 3 arrives at 20, none have
  // completed -> backlog 3; job 4 arrives at 30 with one done -> 3.
  EXPECT_EQ(backlog_bound(*m, {25, 50, 75, 100}), 3);
}

TEST(BacklogBoundTest, EmptyCompletions) {
  const auto m = StandardEventModel::periodic(10);
  EXPECT_EQ(backlog_bound(*m, {}), 0);
}

/// The definition: backlog(q) = q - #{p | w(p) <= delta-(q)}, maximised over q.
Count quadratic_backlog(const EventModel& activation, const std::vector<Time>& completions) {
  Count worst = 0;
  for (Count q = 1; q <= static_cast<Count>(completions.size()); ++q) {
    const Time arrival = activation.delta_min(q);
    Count completed = 0;
    for (const Time w : completions)
      if (w <= arrival) ++completed;
    worst = std::max(worst, q - completed);
  }
  return worst;
}

/// delta- drawn at random per n, NOT monotone: the bound must stay exact
/// even for a model that breaks AX1.
class ScrambledModel final : public EventModel {
 public:
  explicit ScrambledModel(std::uint64_t seed) : EventModel(Rate::of(1, 10)), seed_(seed) {}
  [[nodiscard]] std::string describe() const override { return "scrambled"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override {
    return static_cast<Time>((seed_ * 6364136223846793005ULL + static_cast<std::uint64_t>(n) *
                                                                  1442695040888963407ULL) >>
                             54);
  }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return 20 * (n - 1) + 1024; }

 private:
  std::uint64_t seed_;
};

TEST(BacklogBoundTest, MatchesQuadraticFormulaOnRandomInputs) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<Time> period(1, 60);
  std::uniform_int_distribution<Time> jitter(0, 300);
  std::uniform_int_distribution<int> length(0, 90);
  std::uniform_int_distribution<Time> gap(0, 80);
  for (int round = 0; round < 400; ++round) {
    const ModelPtr sem = StandardEventModel::periodic_with_jitter(period(rng), jitter(rng));
    const ScrambledModel scrambled(static_cast<std::uint64_t>(round));
    std::vector<Time> completions(static_cast<std::size_t>(length(rng)));
    Time t = gap(rng);
    for (Time& w : completions) w = t += gap(rng);  // sorted, with ties
    const auto check = [&](const char* shape) {
      EXPECT_EQ(backlog_bound(*sem, completions), quadratic_backlog(*sem, completions))
          << shape << " round " << round;
      EXPECT_EQ(backlog_bound(scrambled, completions), quadratic_backlog(scrambled, completions))
          << shape << " scrambled round " << round;
    };
    check("sorted");
    std::shuffle(completions.begin(), completions.end(), rng);
    check("shuffled");
    std::sort(completions.rbegin(), completions.rend());
    check("descending");
  }
}

// The fixpoint labels are rendered only when a fixpoint fails; the texts are
// part of reports and diagnostics and must not change.

TEST(FixpointErrorTextTest, SppWindowLimit) {
  FixpointLimits limits;
  limits.max_window = 1000;
  const SppAnalysis spp({{"hi", 1, ExecutionTime(6), StandardEventModel::periodic(10)},
                         {"lo", 2, ExecutionTime(6), StandardEventModel::periodic(10)}},
                        limits);
  try {
    (void)spp.analyze(1);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWindowLimit);
    EXPECT_STREQ(e.what(),
                 "SppAnalysis(lo) busy period: busy window exceeds limit (1000 ticks) - "
                 "resource overloaded?");
  }
}

TEST(FixpointErrorTextTest, TdmaWindowLimit) {
  FixpointLimits limits;
  limits.max_window = 1000;
  const TdmaAnalysis tdma(
      {{{"t", 1, ExecutionTime(5), StandardEventModel::periodic(10)}, 2}}, 10, limits);
  try {
    (void)tdma.analyze(0);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWindowLimit);
    EXPECT_STREQ(e.what(),
                 "TdmaAnalysis(t) busy period: busy window exceeds limit (1000 ticks) - "
                 "resource overloaded?");
  }
}

TEST(FixpointErrorTextTest, EdfBusyPeriodHasNoTaskName) {
  FixpointLimits limits;
  limits.max_window = 1000;
  const EdfAnalysis edf({{{"a", 0, ExecutionTime(7), StandardEventModel::periodic(10)}, 10},
                         {{"b", 0, ExecutionTime(7), StandardEventModel::periodic(10)}, 10}},
                        limits);
  try {
    (void)edf.analyze(0);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWindowLimit);
    EXPECT_STREQ(e.what(),
                 "EdfAnalysis busy period: busy window exceeds limit (1000 ticks) - resource "
                 "overloaded?");
  }
}

TEST(FixpointErrorTextTest, CanCancelledAtFirstStep) {
  exec::CancelToken token;
  token.cancel(exec::CancelReason::kWatchdog);
  FixpointLimits limits;
  limits.cancel = &token;
  const CanBusAnalysis can({{"f", 1, ExecutionTime(2), StandardEventModel::periodic(10)}},
                           limits);
  try {
    (void)can.analyze(0);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_STREQ(e.what(),
                 "CanBusAnalysis(f) busy period: cancelled (watchdog) after 0 fixpoint steps");
  }
}

TEST(FixpointErrorTextTest, RoundRobinIterationLimit) {
  FixpointLimits limits;
  limits.max_iterations = 1;
  const RoundRobinAnalysis rr({{{"a", 0, ExecutionTime(3), StandardEventModel::periodic(50)}, 2},
                               {{"b", 0, ExecutionTime(4), StandardEventModel::periodic(10)}, 2}},
                              limits);
  try {
    (void)rr.analyze(0);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIterationLimit);
    EXPECT_STREQ(e.what(),
                 "RoundRobinAnalysis(a) busy period: fixpoint iteration did not converge "
                 "within 1 steps");
  }
}

TEST(FixpointErrorTextTest, UnboundedBurstNamesTheInterferer) {
  const ModelPtr unbounded = StandardEventModel::periodic_with_jitter(10, kTimeInfinity);
  const SppAnalysis spp({{"hi", 1, ExecutionTime(1), unbounded},
                         {"lo", 2, ExecutionTime(1), StandardEventModel::periodic(10)}});
  try {
    (void)spp.analyze(1);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_STREQ(e.what(), "SppAnalysis: unbounded burst from 'hi'");
  }
}

TEST(ValidateTaskSetTest, CatchesProblems) {
  const auto m = StandardEventModel::periodic(10);
  EXPECT_THROW(validate_priority_task_set({}, "x"), std::invalid_argument);
  EXPECT_THROW(validate_priority_task_set({TaskParams{"", 1, ExecutionTime(1), m}}, "x"),
               std::invalid_argument);
  EXPECT_THROW(
      validate_priority_task_set({TaskParams{"a", 1, ExecutionTime(1), nullptr}}, "x"),
      std::invalid_argument);
  EXPECT_NO_THROW(validate_priority_task_set(
      {TaskParams{"a", 1, ExecutionTime(1), m}, TaskParams{"b", 2, ExecutionTime(1), m}},
      "x"));
}

}  // namespace
}  // namespace hem::sched
