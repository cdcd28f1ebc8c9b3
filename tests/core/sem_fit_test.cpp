#include "core/sem_fit.hpp"

#include <gtest/gtest.h>

#include "core/combinators.hpp"
#include "core/delta_function_model.hpp"
#include "core/errors.hpp"
#include "core/output_model.hpp"
#include "core/trace_model.hpp"

namespace hem {
namespace {

TEST(SemFitTest, SemFitsItselfExactly) {
  // A bursty SEM where the dmin parameter is actually visible in the
  // curves: the fit recovers the parameters exactly.
  const auto original = StandardEventModel::sporadic(100, 250, 10);
  const auto fitted = fit_sem(*original, 100);
  EXPECT_EQ(fitted->period(), 100);
  EXPECT_EQ(fitted->jitter(), 250);
  EXPECT_EQ(fitted->d_min(), 10);
  EXPECT_TRUE(models_equal(*fitted, *original, 64));
}

TEST(SemFitTest, InertDminFitsEquivalentCurves) {
  // With J < P - dmin the dmin parameter never binds; the fit returns a
  // different triple with identical curves.
  const auto original = StandardEventModel::sporadic(100, 30, 10);
  const auto fitted = fit_sem(*original, 100);
  EXPECT_TRUE(models_equal(*fitted, *original, 64));
}

TEST(SemFitTest, PeriodEstimatedFromRate) {
  const auto original = StandardEventModel::periodic(250);
  const auto fitted = fit_sem(*original);
  // The exact rate 1/250 gives the period back unrounded.
  EXPECT_EQ(fitted->period(), 250);
}

TEST(SemFitTest, FiniteTraceIsFittedAtItsAverageSpacing) {
  // A trace has rate 0 (finitely many events); the fit uses the average
  // spacing 100 / 3 and covers the burst at the start with jitter.
  const TraceModel trace({0, 10, 20, 100});
  const auto fitted = fit_sem(trace);
  EXPECT_EQ(fitted->period(), 33);
  for (Time dt = 1; dt <= 500; dt += 7)
    EXPECT_GE(fitted->eta_plus(dt), trace.eta_plus(dt)) << "dt=" << dt;
}

TEST(SemFitTest, FitBoundsBurstModel) {
  // The fitted SEM must admit at least everything the burst admits.
  const auto burst = DeltaFunctionModel::periodic_burst(3, 10, 300);
  const auto fitted = fit_sem(*burst, 100);
  for (Count n = 2; n <= 64; ++n) {
    EXPECT_LE(fitted->delta_min(n), burst->delta_min(n)) << "n=" << n;
    EXPECT_GE(fitted->delta_plus(n), burst->delta_plus(n)) << "n=" << n;
  }
  for (Time dt = 1; dt <= 2000; dt += 17)
    EXPECT_GE(fitted->eta_plus(dt), burst->eta_plus(dt)) << "dt=" << dt;
}

TEST(SemFitTest, FitBoundsOrCombination) {
  const auto orm = std::make_shared<OrModel>(StandardEventModel::periodic(250),
                                             StandardEventModel::periodic(450));
  const auto fitted = fit_sem(*orm);
  for (Count n = 2; n <= 64; ++n)
    EXPECT_LE(fitted->delta_min(n), orm->delta_min(n)) << "n=" << n;
}

TEST(SemFitTest, FitIsLossyOnOrCombination) {
  // The whole point of curve propagation: the SEM fit must over-approximate
  // somewhere (the OR of 250/450 is not a SEM).
  const auto orm = std::make_shared<OrModel>(StandardEventModel::periodic(250),
                                             StandardEventModel::periodic(450));
  const auto fitted = fit_sem(*orm);
  bool lossy = false;
  for (Time dt = 1; dt <= 5000 && !lossy; dt += 13)
    lossy = fitted->eta_plus(dt) > orm->eta_plus(dt);
  EXPECT_TRUE(lossy);
}

TEST(SemFitTest, FitBoundsOutputModel) {
  const auto out = std::make_shared<OutputModel>(StandardEventModel::periodic(100), 5, 25);
  const auto fitted = fit_sem(*out, 100);
  EXPECT_EQ(fitted->period(), 100);
  EXPECT_GE(fitted->jitter(), 20);  // response spread becomes jitter
  for (Count n = 2; n <= 64; ++n)
    EXPECT_LE(fitted->delta_min(n), out->delta_min(n)) << "n=" << n;
}

TEST(SemFitTest, InfiniteDeltaPlusOnlyFitsEtaPlusDirection) {
  // A pending-style stream: delta+ = inf.  The fit bounds delta- but its
  // (finite) delta+ cannot bound infinity - documented behaviour.
  DeltaFunctionModel pending({750}, {kTimeInfinity}, 1, 1000);
  const auto fitted = fit_sem(pending, 1000);
  for (Count n = 2; n <= 32; ++n)
    EXPECT_LE(fitted->delta_min(n), pending.delta_min(n)) << "n=" << n;
}

TEST(SemFitTest, Errors) {
  EXPECT_THROW(fit_sem(*StandardEventModel::periodic(100), -1), std::invalid_argument);
  // Unbounded burst cannot be fitted.
  class Burst final : public EventModel {
   public:
    Burst() : EventModel(Rate::unbounded()) {}
    [[nodiscard]] std::string describe() const override { return "burst"; }

   protected:
    [[nodiscard]] Time delta_min_raw(Count) const override { return 0; }
    [[nodiscard]] Time delta_plus_raw(Count) const override { return 0; }
  };
  EXPECT_THROW(fit_sem(Burst{}), AnalysisError);
}

}  // namespace
}  // namespace hem
