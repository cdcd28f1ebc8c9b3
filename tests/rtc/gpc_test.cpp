#include "rtc/gpc.hpp"

#include <gtest/gtest.h>

#include "core/standard_event_model.hpp"
#include "sched/spp.hpp"

namespace hem::rtc {
namespace {

TEST(GpcTest, SingleTaskOnFullServiceIsExact) {
  // Periodic task P=10, C=3 alone: delay = 3 (one execution).
  const auto m = StandardEventModel::periodic(10);
  const auto r = greedy_processing(upper_arrival_from(*m), full_service(), 3);
  EXPECT_EQ(r.delay, 3);
  EXPECT_EQ(r.backlog_events, 1);
}

TEST(GpcTest, BurstBacklogsAndDrains) {
  // Burst of 3 simultaneous events, C=10: the third waits 30.
  const auto m = StandardEventModel::periodic_with_jitter(100, 250);
  const auto r = greedy_processing(upper_arrival_from(*m), full_service(), 10);
  EXPECT_EQ(r.delay, 30);
  EXPECT_EQ(r.backlog_events, 3);
}

TEST(GpcTest, RemainingServiceFeedsLowerPriority) {
  const auto hp = StandardEventModel::periodic(10);
  const auto r = greedy_processing(upper_arrival_from(*hp), full_service(), 3);
  // Remaining service: ~7 time units per 10.
  EXPECT_NEAR(r.remaining_service.tail_slope(), 0.7, 0.05);
  EXPECT_EQ(r.remaining_service.value(0), 0);
}

TEST(GpcTest, OutputArrivalAtMostShiftedInput) {
  const auto m = StandardEventModel::periodic(10);
  const Curve alpha = upper_arrival_from(*m);
  const auto r = greedy_processing(alpha, full_service(), 3);
  for (Time x = 0; x <= 200; x += 7) {
    // The deconvolution bound is at least as tight as the shift bound...
    EXPECT_LE(r.output_arrival.value(x), alpha.value(x + r.delay) + 1) << x;
    // ...and the output can never admit fewer events than the input allows
    // in the same window minus what is still queued (sanity: >= alpha(x) - 1).
    EXPECT_GE(r.output_arrival.value(x), alpha.value(x) - 1) << x;
  }
  EXPECT_DOUBLE_EQ(r.output_arrival.tail_slope(), alpha.tail_slope());
}

TEST(GpcTest, OverloadThrows) {
  const auto m = StandardEventModel::periodic(10);
  EXPECT_THROW(greedy_processing(upper_arrival_from(*m), full_service(), 12), AnalysisError);
  EXPECT_THROW(greedy_processing(upper_arrival_from(*m), full_service(), 0),
               std::invalid_argument);
}

TEST(FpRtcTest, ChainBoundsDominateBusyWindowAnalysis) {
  // RTC delay bounds are sound but coarser than the exact busy-window SPP
  // analysis: expect WCRT_spp <= delay_rtc <= a small multiple.
  const auto hp = StandardEventModel::periodic(10);
  const auto lp = StandardEventModel::periodic(20);
  const std::vector<RtcTask> rtc_tasks{{"hp", upper_arrival_from(*hp), 3},
                                       {"lp", upper_arrival_from(*lp), 4}};
  const auto rtc = analyze_fp_rtc(rtc_tasks);

  sched::SppAnalysis spp({sched::TaskParams{"hp", 1, sched::ExecutionTime(3), hp},
                          sched::TaskParams{"lp", 2, sched::ExecutionTime(4), lp}});
  const auto exact = spp.analyze_all();

  for (std::size_t i = 0; i < rtc.size(); ++i) {
    EXPECT_GE(rtc[i].delay, exact[i].wcrt) << rtc[i].name;
    EXPECT_LE(rtc[i].delay, 4 * exact[i].wcrt) << rtc[i].name;
  }
}

TEST(FpRtcTest, PaperCpuComparison) {
  // The paper system's CPU1 with HEM-like activation rates: both analyses
  // agree on the order of magnitude; busy-window is tighter.
  const auto t1 = StandardEventModel::periodic(250);
  const auto t2 = StandardEventModel::periodic(450);
  const auto t3 = StandardEventModel::periodic(1000);
  const std::vector<RtcTask> tasks{{"T1", upper_arrival_from(*t1), 24},
                                   {"T2", upper_arrival_from(*t2), 32},
                                   {"T3", upper_arrival_from(*t3), 40}};
  const auto rtc = analyze_fp_rtc(tasks);
  EXPECT_EQ(rtc[0].delay, 24);
  EXPECT_GE(rtc[1].delay, 56);
  EXPECT_GE(rtc[2].delay, 96);
  EXPECT_LE(rtc[2].delay, 400);
}

TEST(FpRtcTest, EmptyRejected) {
  EXPECT_THROW(analyze_fp_rtc({}), std::invalid_argument);
}

}  // namespace
}  // namespace hem::rtc
