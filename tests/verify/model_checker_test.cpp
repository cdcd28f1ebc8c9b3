// Property-style tests of the model-algebra contract checker
// (src/verify/model_checker.hpp):
//
//  * every EventModel subclass, built with randomized-but-seeded parameters
//    (fixed seeds in the source, no wall-clock entropy), satisfies all
//    axioms AX1-AX8 and the rate axiom AX14 — plus AX9 on pack outputs and
//    AX10/AX11 on inner updates — with zero violations;
//  * a deliberately broken mock model makes every axiom id fire;
//  * the HEM_VERIFY construction-time contracts throw ContractViolation on
//    broken inputs (the enforce_* functions are always linked; only the
//    call-site macros are compiled out in Release).

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/combinators.hpp"
#include "core/delta_function_model.hpp"
#include "core/grouped_stream_model.hpp"
#include "core/intersection_model.hpp"
#include "core/leaky_bucket_model.hpp"
#include "core/offset_transaction_model.hpp"
#include "core/output_model.hpp"
#include "core/shaper.hpp"
#include "core/standard_event_model.hpp"
#include "core/trace_model.hpp"
#include "hierarchical/inner_update.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "model/cpa_engine.hpp"
#include "model/diagnostics.hpp"
#include "rtc/compile.hpp"
#include "scenarios/synth.hpp"
#include "verify/contracts.hpp"
#include "verify/model_checker.hpp"

namespace hem::verify {
namespace {

constexpr Count kHorizon = 40;

CheckerOptions options() {
  CheckerOptions opts;
  opts.horizon = kHorizon;
  return opts;
}

/// Seeded PRNG drawing via modulo: deterministic on every platform.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : rng_(seed) {}
  Time range(Time lo, Time hi) {  // inclusive
    return lo + static_cast<Time>(rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::mt19937_64 rng_;
};

void expect_clean(const EventModel& model, const std::string& path) {
  ModelChecker checker(options());
  checker.check_model(model, path);
  // The compilation axioms (AX12/AX13) ride the same subclass sweep: lower
  // the node to a small horizon and verify the flat form agrees with the
  // lazy DAG inside it and its curve pair stays conservative beyond it.
  rtc::CompileOptions copts;
  copts.max_horizon = kHorizon;
  model.ensure_compiled(copts);
  checker.check_compiled(model, path);
  EXPECT_TRUE(checker.ok()) << checker.format();
}

bool fired(const ModelChecker& checker, const std::string& axiom) {
  return std::any_of(checker.violations().begin(), checker.violations().end(),
                     [&](const AxiomViolation& v) { return v.axiom == axiom; });
}

// ---------------------------------------------------------------------------
// Positive sweep: all subclasses, randomized-but-seeded parameters.
// ---------------------------------------------------------------------------

TEST(ModelCheckerProperty, AllSubclassesSatisfyAllAxioms) {
  Rand rnd(0xC0FFEE5EEDull);
  for (int round = 0; round < 20; ++round) {
    const Time period = rnd.range(10, 1000);
    const Time jitter = rnd.range(0, 3 * period);
    const Time dmin = rnd.range(0, period);

    // StandardEventModel: constructor + all three factories.
    expect_clean(StandardEventModel(period, jitter, dmin), "sem");
    expect_clean(*StandardEventModel::periodic(period), "periodic");
    expect_clean(*StandardEventModel::periodic_with_jitter(period, jitter), "periodic+j");
    expect_clean(*StandardEventModel::sporadic(period, jitter, dmin), "sporadic");

    // DeltaFunctionModel (periodic burst shape).
    const Count burst_size = rnd.range(1, 4);
    const Time inner = rnd.range(1, 10);
    const Time outer_period = (burst_size - 1) * inner + rnd.range(1, 500);
    const auto burst = DeltaFunctionModel::periodic_burst(burst_size, inner, outer_period);
    expect_clean(*burst, "burst");
    // A gap between bursts shorter than the inner distance (AX14 caught
    // delta-(2) ignoring it).
    expect_clean(*DeltaFunctionModel::periodic_burst(burst_size + 1, inner + 2,
                                                     burst_size * (inner + 2) + 1),
                 "burst-short-gap");

    // LeakyBucketModel.
    expect_clean(LeakyBucketModel(rnd.range(1, 8), rnd.range(1, 100)), "leaky");

    // OffsetTransactionModel: distinct offsets in [0, P), jitter below the
    // smallest inter-offset gap (constructor requirement).
    {
      const Time p = rnd.range(50, 500);
      std::set<Time> offs;
      const Time k = rnd.range(1, 4);
      while (static_cast<Time>(offs.size()) < k) offs.insert(rnd.range(0, p - 1));
      std::vector<Time> offsets(offs.begin(), offs.end());
      Time min_gap = p - offsets.back() + offsets.front();
      for (std::size_t i = 1; i < offsets.size(); ++i)
        min_gap = std::min(min_gap, offsets[i] - offsets[i - 1]);
      const Time j = min_gap > 0 ? rnd.range(0, min_gap) : 0;
      expect_clean(OffsetTransactionModel(p, offsets, j), "offsets");
    }

    // TraceModel: sorted random timestamps (finite stream: delta curves go
    // to infinity past the trace length).
    {
      std::vector<Time> ts;
      Time t = 0;
      const Time len = rnd.range(5, 30);
      for (Time i = 0; i < len; ++i) ts.push_back(t += rnd.range(0, 200));
      expect_clean(TraceModel(std::move(ts)), "trace");
    }

    // Combinators: binary OrModel, m-ary or_combine, and_combine.
    const ModelPtr a = StandardEventModel::periodic_with_jitter(period, jitter);
    const ModelPtr b = StandardEventModel::periodic(rnd.range(10, 1000));
    expect_clean(OrModel(a, b), "or2");
    const std::vector<ModelPtr> three{a, b, StandardEventModel::periodic(rnd.range(10, 1000))};
    expect_clean(*or_combine(three), "or3");
    const std::vector<ModelPtr> same_period{StandardEventModel::periodic(period),
                                            StandardEventModel::periodic_with_jitter(
                                                period, rnd.range(0, period))};
    expect_clean(*and_combine(same_period), "and2");

    // OutputModel (Theta_tau) and MinDistanceShaper.
    const Time r_minus = rnd.range(0, 50);
    const Time r_plus = r_minus + rnd.range(0, 100);
    expect_clean(OutputModel(a, r_minus, r_plus), "output");
    expect_clean(MinDistanceShaper(a, rnd.range(1, period)), "shaper");

    // IntersectionModel (a model intersected with itself is always
    // consistent) and GroupedStreamModel.
    expect_clean(IntersectionModel(a, a), "intersect");
    expect_clean(GroupedStreamModel(a, rnd.range(1, 4), rnd.range(0, 20)), "grouped");

    // The engine's degraded-fallback envelope (eq.-8 shape).
    expect_clean(cpa::SporadicEnvelopeModel(rnd.range(0, 100)), "envelope");
  }
}

// AX1-AX14 sweep over whole analysed systems: every per-task model the
// engine publishes (activation, output, hierarchical frame output) from 10
// seeded synth systems — half of them in the packed/hierarchical regime —
// must satisfy every axiom, both lazily and after compilation.
TEST(ModelCheckerProperty, AnalysedSynthSystemsSatisfyAllAxioms) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    scenarios::SynthParams params;
    params.resources = 5;
    params.tasks = 15;
    params.layers = 3;
    params.seed = seed;
    params.packed_permille = seed % 2 == 0 ? 300 : 0;
    const cpa::System sys = scenarios::build_synth_system(params);
    cpa::EngineOptions eopts;
    eopts.jobs = 1;
    const cpa::AnalysisReport report = cpa::CpaEngine(sys, eopts).run();
    ASSERT_TRUE(report.converged) << "seed " << seed;

    CheckerOptions copts;
    copts.horizon = 24;  // 15 tasks x several models per task: keep it quick
    ModelChecker checker(copts);
    rtc::CompileOptions lower;
    lower.max_horizon = 24;
    for (const cpa::TaskResult& task : report.tasks) {
      const std::string base = "seed" + std::to_string(seed) + "/" + task.name;
      const std::pair<ModelPtr, const char*> models[] = {{task.activation, "/act"},
                                                         {task.output, "/out"}};
      for (const auto& [model, what] : models) {
        if (model == nullptr) continue;
        checker.check_model(*model, base + what);
        model->ensure_compiled(lower);
        checker.check_compiled(*model, base + what);
      }
      if (task.hem_output != nullptr) {
        checker.check_hierarchical(*task.hem_output, base + "/hem",
                                   /*outer_bounds_inner=*/false);
      }
    }
    EXPECT_TRUE(checker.ok()) << checker.format();
  }
}

TEST(ModelCheckerProperty, PackOutputsAndInnerUpdatesSatisfyHierarchicalAxioms) {
  Rand rnd(0xDA7E2008ull);
  for (int round = 0; round < 20; ++round) {
    const ModelPtr trig = StandardEventModel::periodic_with_jitter(
        rnd.range(50, 500), rnd.range(0, 100));
    const ModelPtr pend = StandardEventModel::periodic(rnd.range(50, 2000));
    const bool with_timer = rnd.range(0, 1) == 1;
    const ModelPtr timer =
        with_timer ? StandardEventModel::periodic(rnd.range(50, 1000)) : nullptr;

    const HemPtr hem = pack({{trig, SignalCoupling::kTriggering},
                             {pend, SignalCoupling::kPending}},
                            timer);

    // Pack outputs (Def. 8): per-model axioms + outer-bounds-inners (AX9).
    ModelChecker checker(options());
    checker.check_hierarchical(*hem, "pack", /*outer_bounds_inner=*/true);
    EXPECT_TRUE(checker.ok()) << checker.format();

    // The standalone pending inner model (eqs. 7-8).
    expect_clean(PendingSignalModel(pend, hem->outer()), "pending");

    // After a response-time operation: per-model axioms on every component
    // plus the Def.-9 relation between each old and new inner stream.
    const Time r_minus = rnd.range(0, 40);
    const Time r_plus = r_minus + rnd.range(0, 80);
    const HemPtr after = hem->after_response(r_minus, r_plus);
    ModelChecker after_checker(options());
    after_checker.check_hierarchical(*after, "after", /*outer_bounds_inner=*/false);
    for (std::size_t i = 0; i < hem->inner_count(); ++i)
      after_checker.check_inner_update(*hem->inner(i), *after->inner(i), r_minus, r_plus,
                                       "after.inner[" + std::to_string(i) + "]");
    EXPECT_TRUE(after_checker.ok()) << after_checker.format();

    // ResponseUpdatedInnerModel standalone (Def. 9).
    const Count k = rnd.range(1, 3);
    const ResponseUpdatedInnerModel upd(trig, r_minus, r_plus, k);
    expect_clean(upd, "inner-upd");
    ModelChecker upd_checker(options());
    upd_checker.check_inner_update(*trig, upd, r_minus, r_plus, "inner-upd");
    EXPECT_TRUE(upd_checker.ok()) << upd_checker.format();
  }
}

// ---------------------------------------------------------------------------
// Negative tests: a deliberately broken mock fires every axiom id.
// ---------------------------------------------------------------------------

class BrokenModel final : public EventModel {
 public:
  enum class Mode {
    kDminDecreasing,      // AX1
    kDplusDecreasing,     // AX2
    kDminAboveDplus,      // AX3
    kEtaPlusNonMonotone,  // AX4
    kEtaMinusNonMonotone, // AX5
    kEtaMinusTooLarge,    // AX6 + AX8
    kEtaPlusTooSmall,     // AX7
    kRateTooHigh,         // AX14: r * dt > eta+(dt)
    kRateTooLow,          // AX14: eta+(dt) - r * dt keeps growing
    kRateUnboundedWrongly,  // AX14: unbounded r, finite eta+
  };

  explicit BrokenModel(Mode mode) : EventModel(rate_for(mode)), mode_(mode) {}

  [[nodiscard]] std::string describe() const override { return "Broken"; }

 protected:
  /// The periodic-10 floor has slope 1/10; the broken delta- modes reach 0
  /// (decreasing or flat), i.e. unbounded eta+.
  static Rate rate_for(Mode mode) {
    switch (mode) {
      case Mode::kDminDecreasing:
      case Mode::kDplusDecreasing:
      case Mode::kRateUnboundedWrongly:
        return Rate::unbounded();
      case Mode::kRateTooHigh:
        return Rate::of(1, 5);
      case Mode::kRateTooLow:
        return Rate::of(1, 20);
      default:
        return Rate::of(1, 10);
    }
  }

  [[nodiscard]] Time delta_min_raw(Count n) const override {
    switch (mode_) {
      case Mode::kDminDecreasing:
        return 10000 - 10 * n;
      case Mode::kDminAboveDplus:
        return 10 * (n - 1);
      case Mode::kDplusDecreasing:
        return 0;
      default:
        return 10 * (n - 1);  // well-formed periodic-10 floor
    }
  }

  [[nodiscard]] Time delta_plus_raw(Count n) const override {
    switch (mode_) {
      case Mode::kDminDecreasing:
        return 100000 * (n - 1);  // stays above the decreasing delta-
      case Mode::kDplusDecreasing:
        return 10000 - 10 * n;
      case Mode::kDminAboveDplus:
        return 5 * (n - 1);
      default:
        return 10 * (n - 1);
    }
  }

  [[nodiscard]] Count eta_plus_raw(Time dt) const override {
    switch (mode_) {
      case Mode::kEtaPlusNonMonotone:
        return dt % 2 == 0 ? 100 : 1;
      case Mode::kEtaPlusTooSmall:
        return 1;
      default:
        return EventModel::eta_plus_raw(dt);
    }
  }

  [[nodiscard]] Count eta_minus_raw(Time dt) const override {
    switch (mode_) {
      case Mode::kEtaMinusNonMonotone:
        return dt % 2 == 0 ? 50 : 0;
      case Mode::kEtaMinusTooLarge:
        return 50;
      default:
        return EventModel::eta_minus_raw(dt);
    }
  }

 private:
  Mode mode_;
};

ModelChecker check_broken(BrokenModel::Mode mode) {
  ModelChecker checker(options());
  checker.check_model(BrokenModel(mode), "broken");
  return checker;
}

TEST(ModelCheckerNegative, DeltaMinDecreasingFiresAX1) {
  const auto checker = check_broken(BrokenModel::Mode::kDminDecreasing);
  EXPECT_TRUE(fired(checker, "AX1")) << checker.format();
}

TEST(ModelCheckerNegative, DeltaPlusDecreasingFiresAX2) {
  const auto checker = check_broken(BrokenModel::Mode::kDplusDecreasing);
  EXPECT_TRUE(fired(checker, "AX2")) << checker.format();
}

TEST(ModelCheckerNegative, DeltaMinAboveDeltaPlusFiresAX3) {
  const auto checker = check_broken(BrokenModel::Mode::kDminAboveDplus);
  EXPECT_TRUE(fired(checker, "AX3")) << checker.format();
}

TEST(ModelCheckerNegative, NonMonotoneEtaPlusFiresAX4) {
  const auto checker = check_broken(BrokenModel::Mode::kEtaPlusNonMonotone);
  EXPECT_TRUE(fired(checker, "AX4")) << checker.format();
}

TEST(ModelCheckerNegative, NonMonotoneEtaMinusFiresAX5) {
  const auto checker = check_broken(BrokenModel::Mode::kEtaMinusNonMonotone);
  EXPECT_TRUE(fired(checker, "AX5")) << checker.format();
}

TEST(ModelCheckerNegative, EtaMinusAboveEtaPlusFiresAX6AndAX8) {
  const auto checker = check_broken(BrokenModel::Mode::kEtaMinusTooLarge);
  EXPECT_TRUE(fired(checker, "AX6")) << checker.format();
  EXPECT_TRUE(fired(checker, "AX8")) << checker.format();
}

TEST(ModelCheckerNegative, EtaPlusBelowPseudoInverseFiresAX7) {
  const auto checker = check_broken(BrokenModel::Mode::kEtaPlusTooSmall);
  EXPECT_TRUE(fired(checker, "AX7")) << checker.format();
}

TEST(ModelCheckerNegative, RateAboveSlopeFiresAX14) {
  const auto checker = check_broken(BrokenModel::Mode::kRateTooHigh);
  EXPECT_TRUE(fired(checker, "AX14")) << checker.format();
  ASSERT_EQ(checker.violations().size(), 1u) << checker.format();
  EXPECT_NE(checker.violations().front().detail.find("exceeds eta+"), std::string::npos);
}

TEST(ModelCheckerNegative, RateBelowSlopeFiresAX14) {
  const auto checker = check_broken(BrokenModel::Mode::kRateTooLow);
  ASSERT_EQ(checker.violations().size(), 1u) << checker.format();
  EXPECT_NE(checker.violations().front().detail.find("under-states"), std::string::npos);
}

TEST(ModelCheckerNegative, UnboundedRateOfBoundedStreamFiresAX14) {
  const auto checker = check_broken(BrokenModel::Mode::kRateUnboundedWrongly);
  ASSERT_EQ(checker.violations().size(), 1u) << checker.format();
  EXPECT_NE(checker.violations().front().detail.find("is finite"), std::string::npos);
}

TEST(ModelCheckerNegative, InnerFasterThanOuterFiresAX9) {
  // A direct (checker-bypassing) HEM construction whose inner stream emits
  // 10x faster than its outer stream — impossible for a subsequence.
  const HierarchicalEventModel hem(StandardEventModel::periodic(100),
                                   {StandardEventModel::periodic(10)}, PackRule::instance());
  ModelChecker checker(options());
  checker.check_hierarchical(hem, "bad-hem", /*outer_bounds_inner=*/true);
  EXPECT_TRUE(fired(checker, "AX9")) << checker.format();
  EXPECT_THROW(enforce_pack_contract(hem, "test"), ContractViolation);
}

TEST(ModelCheckerNegative, UpdatedInnerBelowSerialisationFloorFiresAX10) {
  // "Updated" inner spaced 1 apart cannot result from an operation with
  // r- = 5 (the eq.-8 fallback guarantees (n-1)*5); delta+ = inf keeps
  // AX11 quiet so the modes are exercised independently.
  const auto before = StandardEventModel::periodic(100);
  const LeakyBucketModel after(4, 1);
  ModelChecker checker(options());
  checker.check_inner_update(*before, after, 5, 9, "bad-update");
  EXPECT_TRUE(fired(checker, "AX10")) << checker.format();
  EXPECT_FALSE(fired(checker, "AX11")) << checker.format();
  EXPECT_THROW(enforce_inner_update_contract(*before, after, 5, 9, "test"), ContractViolation);
}

TEST(ModelCheckerNegative, UpdatedInnerWithShrunkDeltaPlusFiresAX11) {
  // Losing the jitter spread shrinks delta+ — a response operation can
  // only widen it.  delta- is unchanged-periodic, so AX10 stays quiet.
  const auto before = StandardEventModel::periodic_with_jitter(100, 50);
  const auto after = StandardEventModel::periodic(100);
  ModelChecker checker(options());
  checker.check_inner_update(*before, *after, 5, 9, "bad-update");
  EXPECT_TRUE(fired(checker, "AX11")) << checker.format();
  EXPECT_FALSE(fired(checker, "AX10")) << checker.format();
}

TEST(ModelCheckerNegative, ViolationReportsCarryPathAxiomAndWitness) {
  const auto checker = check_broken(BrokenModel::Mode::kDminAboveDplus);
  ASSERT_FALSE(checker.ok());
  const AxiomViolation& v = checker.violations().front();
  EXPECT_EQ(v.axiom, "AX3");
  EXPECT_NE(v.model.find("broken"), std::string::npos);
  EXPECT_NE(v.model.find("Broken"), std::string::npos);  // describe() appended
  EXPECT_GE(v.witness, 2);
  EXPECT_NE(v.detail.find("delta-"), std::string::npos);
  EXPECT_NE(checker.format().find("AX3"), std::string::npos);
}

TEST(ModelCheckerNegative, OneReportPerAxiomAndModel) {
  // The broken curve is wrong at every n; the checker must not flood.
  const auto checker = check_broken(BrokenModel::Mode::kDminAboveDplus);
  const auto ax3 = std::count_if(checker.violations().begin(), checker.violations().end(),
                                 [](const AxiomViolation& v) { return v.axiom == "AX3"; });
  EXPECT_EQ(ax3, 1);
}

// ---------------------------------------------------------------------------
// Compilation axioms AX12/AX13 (rtc/compile.hpp lowering).
// ---------------------------------------------------------------------------

/// Mock models exercising the ways a lowering can go wrong.  The compiled
/// form derives its eta inversions and curve tails from delta samples, so
/// each mode breaks exactly one side of the contract:
///  * kBrokenLazyEta — correct deltas, lying eta accessors: the compiled
///    inversion is right, the lazy path is not, AX12 must see the split;
///  * kSubadditiveDmin — delta- flattens out, violating the
///    superadditivity the lower-curve tail slope relies on: the affine
///    tail overtakes the true curve beyond the horizon, AX13 (lower);
///  * kSuperadditiveDplus — delta+ grows quadratically, violating the
///    subadditivity behind the upper tail: AX13 (upper).
class BrokenCompileModel final : public EventModel {
 public:
  enum class Mode { kBrokenLazyEta, kSubadditiveDmin, kSuperadditiveDplus };

  explicit BrokenCompileModel(Mode mode)
      : EventModel(mode == Mode::kSubadditiveDmin ? Rate::unbounded() : Rate::of(1, 10)),
        mode_(mode) {}

  [[nodiscard]] std::string describe() const override { return "BrokenCompile"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override {
    if (mode_ == Mode::kSubadditiveDmin) return 100;  // flat: delta-(n+1) < delta-(n)+delta-(2)
    return 10 * (n - 1);
  }

  [[nodiscard]] Time delta_plus_raw(Count n) const override {
    if (mode_ == Mode::kSuperadditiveDplus) return sat_mul(n - 1, n - 1);  // quadratic
    return sat_mul(10, n - 1);
  }

  [[nodiscard]] Count eta_plus_raw(Time dt) const override {
    if (mode_ == Mode::kBrokenLazyEta) return 1;  // ignores the delta curves entirely
    return EventModel::eta_plus_raw(dt);
  }

 private:
  Mode mode_;
};

ModelChecker check_broken_compile(BrokenCompileModel::Mode mode) {
  const BrokenCompileModel model(mode);
  // Small horizon so the AX13 tail probes reach past it cheaply.
  rtc::CompileOptions copts;
  copts.max_horizon = 8;
  model.ensure_compiled(copts);
  ModelChecker checker(options());
  checker.check_compiled(model, "broken-compile");
  return checker;
}

TEST(ModelCheckerNegative, CompiledLazyEtaDisagreementFiresAX12) {
  const auto checker = check_broken_compile(BrokenCompileModel::Mode::kBrokenLazyEta);
  EXPECT_TRUE(fired(checker, "AX12")) << checker.format();
}

TEST(ModelCheckerNegative, NonSuperadditiveDminBreaksLowerTailFiresAX13) {
  const auto checker = check_broken_compile(BrokenCompileModel::Mode::kSubadditiveDmin);
  EXPECT_TRUE(fired(checker, "AX13")) << checker.format();
  EXPECT_FALSE(fired(checker, "AX12")) << checker.format();  // samples still agree
}

TEST(ModelCheckerNegative, NonSubadditiveDplusBreaksUpperTailFiresAX13) {
  const auto checker = check_broken_compile(BrokenCompileModel::Mode::kSuperadditiveDplus);
  EXPECT_TRUE(fired(checker, "AX13")) << checker.format();
}

}  // namespace
}  // namespace hem::verify
