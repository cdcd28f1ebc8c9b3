// Exact long-run rates (core/rate.hpp): fraction arithmetic, and a table of
// rates each event model fixes at construction, computed by hand from the
// operators' closed forms.

#include "core/rate.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>

#include <gtest/gtest.h>

#include "core/combinators.hpp"
#include "core/standard_event_model.hpp"
#include "hierarchical/inner_update.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "model/cpa_engine.hpp"
#include "scenarios/paper_system.hpp"
#include "verify/model_checker.hpp"

namespace hem {

void PrintTo(const Rate& r, std::ostream* os) { *os << r.str(); }

namespace {

TEST(RateTest, FractionsAreReduced) {
  EXPECT_EQ(Rate::of(2, 500), Rate::of(1, 250));
  EXPECT_EQ(Rate::of(2, 500).num(), 1u);
  EXPECT_EQ(Rate::of(2, 500).den(), 250u);
  EXPECT_EQ(Rate::of(6, 3).str(), "2");
  EXPECT_EQ(Rate::of(3, 9).str(), "1/3");
}

TEST(RateTest, ZeroAndUnbounded) {
  EXPECT_TRUE(Rate{}.is_zero());
  EXPECT_TRUE(Rate::of(0, 10).is_zero());
  EXPECT_TRUE(Rate::of(1, 0).is_unbounded());
  EXPECT_TRUE(Rate::of(kCountInfinity, 10).is_unbounded());
  EXPECT_EQ(Rate::unbounded().str(), "unbounded");
  EXPECT_TRUE(std::isinf(Rate::unbounded().to_double()));
  EXPECT_GT(Rate::unbounded(), Rate::of(std::numeric_limits<Count>::max() / 8, 1));
  EXPECT_EQ(Rate::unbounded() + Rate::of(1, 3), Rate::unbounded());
  EXPECT_EQ(Rate::unbounded() * 0, Rate{});
}

TEST(RateTest, SumAndScaleAreExact) {
  // 1/250 + 1/450 = 14/2250 = 7/1125.
  EXPECT_EQ(Rate::of(1, 250) + Rate::of(1, 450), Rate::of(7, 1125));
  // Three tasks P=3 C=1 load exactly 1: not an overload.
  const Rate third = Rate::of(1, 3);
  EXPECT_EQ(third * 1 + third * 1 + third * 1, Rate::of(1, 1));
  EXPECT_EQ(third * 3, Rate::of(1, 1));
  EXPECT_GT(Rate::of(3'000'000'001, 3'000'000'000), Rate::of(1, 1));
}

TEST(RateTest, SmallFractionsMatchCrossMultiplication) {
  // Below 2^20 the plain cross-multiplied fractions fit in 64 bits.
  std::uint64_t seed = 12345;
  const auto next = [&] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<Count>(seed >> 44);  // 20 bits
  };
  for (int i = 0; i < 2000; ++i) {
    const Count n1 = next(), d1 = next() + 1, n2 = next(), d2 = next() + 1, k = next();
    const Rate a = Rate::of(n1, d1);
    const Rate b = Rate::of(n2, d2);
    EXPECT_EQ(a + b, Rate::of(n1 * d2 + n2 * d1, d1 * d2))
        << n1 << "/" << d1 << " + " << n2 << "/" << d2;
    EXPECT_EQ(a * k, Rate::of(n1 * k, d1)) << n1 << "/" << d1 << " * " << k;
    EXPECT_EQ(a < b, n1 * d2 < n2 * d1);
  }
}

TEST(RateTest, OverflowRoundsUp) {
  // Coprime denominators near 2^40 have an lcm far beyond 64 bits; the
  // stored sum may round, but only upwards.
  const Rate a = Rate::of(1, (Count{1} << 40) + 1);
  const Rate b = Rate::of(1, (Count{1} << 40) - 1);
  const Rate c = Rate::of(1, (Count{1} << 40) + 3);
  const Rate sum = a + b + c;
  const long double exact = 1.0L / ((1ULL << 40) + 1) + 1.0L / ((1ULL << 40) - 1) +
                            1.0L / ((1ULL << 40) + 3);
  EXPECT_GE(static_cast<long double>(sum.num()) / static_cast<long double>(sum.den()),
            exact * (1 - 1e-15L));
  EXPECT_GT(sum, a + b);
  // Two such rounded sums near 1 whose cross terms add past 2^128.
  const Rate x = Rate::of(5542642089125761147, 7637814966653028821) +
                 Rate::of(6267893973366970456, 5991160625960952261);
  const Rate y = Rate::of(5917145266466726609, 7430559535332154715) +
                 Rate::of(5776596251191681187, 6518531062217138292);
  const auto ld = [](Rate r) {
    return static_cast<long double>(r.num()) / static_cast<long double>(r.den());
  };
  EXPECT_GE(ld(x + y), (ld(x) + ld(y)) * (1 - 1e-18L));
  EXPECT_LE(ld(x + y), (ld(x) + ld(y)) * (1 + 1e-15L));
  // Scaling a fraction whose numerator cannot absorb the factor.
  const Rate big = Rate::of(std::numeric_limits<Count>::max() / 4 - 1, 3);
  EXPECT_GE((big * 1000).to_double(), big.to_double() * 1000 * (1 - 1e-12));
}

// ---------------------------------------------------------------------------
// Hand-computed rates of the operators.
// ---------------------------------------------------------------------------

TEST(ModelRateTable, StandardEventModel) {
  EXPECT_EQ(StandardEventModel::periodic(250)->rate(), Rate::of(1, 250));
  // Jitter and d_min do not change the long-run rate 1/P ...
  EXPECT_EQ(StandardEventModel::sporadic(100, 700, 5)->rate(), Rate::of(1, 100));
  // ... unless the jitter is unbounded: then only d_min limits it.
  EXPECT_EQ(StandardEventModel::sporadic(100, kTimeInfinity, 10)->rate(), Rate::of(1, 10));
  EXPECT_TRUE(StandardEventModel::sporadic(100, kTimeInfinity, 0)->rate().is_unbounded());
}

TEST(ModelRateTable, OrSumsItsInputs) {
  const ModelPtr s1 = StandardEventModel::periodic(250);
  const ModelPtr s2 = StandardEventModel::periodic(450);
  const ModelPtr s4 = StandardEventModel::periodic(400);
  const std::vector<ModelPtr> two{s1, s2};
  EXPECT_EQ(or_combine(two)->rate(), Rate::of(7, 1125));
  // 1/250 + 1/450 + 1/400 = (36 + 20 + 22.5) / 9000 = 157/18000.
  const std::vector<ModelPtr> three{s1, s2, s4};
  EXPECT_EQ(or_combine(three)->rate(), Rate::of(157, 18000));
}

TEST(ModelRateTable, PackWithTimerAndItsInnerStreams) {
  const ModelPtr trig = StandardEventModel::periodic(250);
  const ModelPtr pend = StandardEventModel::periodic(1000);
  const ModelPtr fast_pend = StandardEventModel::periodic(10);
  const ModelPtr timer = StandardEventModel::periodic(100);
  const HemPtr hem = pack({{trig, SignalCoupling::kTriggering},
                           {pend, SignalCoupling::kPending},
                           {fast_pend, SignalCoupling::kPending}},
                          timer);
  // Omega_pa: triggering inputs plus the timer, 1/250 + 1/100 = 7/500.
  EXPECT_EQ(hem->outer()->rate(), Rate::of(7, 500));
  // A triggering inner stream is the input itself.
  EXPECT_EQ(hem->inner(0)->rate(), Rate::of(1, 250));
  // Psi_pa on a pending input: min(signal, frame).
  EXPECT_EQ(hem->inner(1)->rate(), Rate::of(1, 1000));
  EXPECT_EQ(hem->inner(2)->rate(), Rate::of(7, 500));
}

TEST(ModelRateTable, InnerUpdateKeepsTheInnerRate) {
  const ModelPtr trig = StandardEventModel::periodic(250);
  const ModelPtr pend = StandardEventModel::periodic(1000);
  const HemPtr hem =
      pack({{trig, SignalCoupling::kTriggering}, {pend, SignalCoupling::kPending}});
  const HemPtr after = hem->after_response(4, 10);
  EXPECT_EQ(after->inner(0)->rate(), Rate::of(1, 250));
  EXPECT_EQ(after->inner(1)->rate(), Rate::of(1, 1000));
  // The r- serialisation floor binds only when the inner stream is faster
  // than one event per r-: 1/10 input, r- = 20 -> 1/20.
  const ResponseUpdatedInnerModel floored(StandardEventModel::periodic(10), 20, 30, 1);
  EXPECT_EQ(floored.rate(), Rate::of(1, 20));
}

TEST(ModelRateTable, PaperSystemFrames) {
  const cpa::System sys = scenarios::build_paper_system({}, /*hierarchical=*/true);
  const cpa::AnalysisReport report = cpa::CpaEngine(sys).run();
  ASSERT_TRUE(report.converged);
  // F1 = Omega_pa(S1 trig, S2 trig, S3 pend): 1/250 + 1/450.
  EXPECT_EQ(report.task("F1").activation->rate(), Rate::of(7, 1125));
  // F2 = Omega_pa(S4 trig): 1/400.
  EXPECT_EQ(report.task("F2").activation->rate(), Rate::of(1, 400));
  // Unpacked receivers see their own signal's rate after B.
  EXPECT_EQ(report.task("T1").activation->rate(), Rate::of(1, 250));
  EXPECT_EQ(report.task("T2").activation->rate(), Rate::of(1, 450));
  EXPECT_EQ(report.task("T3").activation->rate(), Rate::of(1, 1000));
  // Bus load: 4 * 7/1125 + 2 * 1/400 = 224/9000 + 45/9000 = 269/9000.
  EXPECT_EQ(report.task("F1").utilization, (Rate::of(7, 1125) * 4).to_double());
  EXPECT_EQ(Rate::of(7, 1125) * 4 + Rate::of(1, 400) * 2, Rate::of(269, 9000));

  // Every model of the table satisfies AX14 against its own eta+.
  verify::ModelChecker checker;
  for (const cpa::TaskResult& t : report.tasks) checker.check_model(*t.activation, t.name);
  EXPECT_TRUE(checker.ok()) << checker.format();
}

}  // namespace
}  // namespace hem
