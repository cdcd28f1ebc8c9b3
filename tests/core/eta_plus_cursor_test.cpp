// EtaPlusCursor must answer exactly what EventModel::eta_plus answers, for
// every model kind the library builds and for any order of windows: growing
// (where it resumes its search), repeated, shrinking (where it restarts) and
// non-positive.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/combinators.hpp"
#include "core/delta_function_model.hpp"
#include "core/event_model.hpp"
#include "core/output_model.hpp"
#include "core/standard_event_model.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "model/diagnostics.hpp"

namespace hem {
namespace {

struct NamedModel {
  std::string name;
  ModelPtr model;
};

std::vector<NamedModel> model_zoo() {
  const ModelPtr jittery = StandardEventModel::periodic_with_jitter(100, 250);  // J > P
  const ModelPtr sporadic = StandardEventModel::sporadic(100, 400, 30);         // with d_min
  const ModelPtr slow = StandardEventModel::periodic_with_jitter(370, 20);
  const ModelPtr burst = DeltaFunctionModel::periodic_burst(4, 7, 200);
  const HemPtr packed = pack({{jittery, SignalCoupling::kTriggering},
                              {slow, SignalCoupling::kPending},
                              {burst, SignalCoupling::kTriggering}},
                             StandardEventModel::periodic(500));
  const HemPtr responded = packed->after_response(3, 40);
  const std::vector<ModelPtr> pair{jittery, slow};
  const std::vector<ModelPtr> same_period{jittery,
                                          StandardEventModel::periodic_with_jitter(100, 30)};
  return {
      {"sem_jitter_above_period", jittery},
      {"sem_with_dmin", sporadic},
      {"or", or_combine(pair)},
      {"and", and_combine(same_period)},
      {"output", std::make_shared<OutputModel>(sporadic, 5, 60)},
      {"sporadic_envelope", std::make_shared<cpa::SporadicEnvelopeModel>(45)},
      {"periodic_burst", burst},
      {"packed_outer", packed->outer()},
      {"unpacked_inner", packed->inner(1)},
      {"responded_outer", responded->outer()},
      {"responded_inner", responded->inner(1)},
      // delta- stays at 10: eta+ is 1 up to dt = 10 and kCountInfinity after.
      {"infinite_above_10", std::make_shared<DeltaFunctionModel>(std::vector<Time>{10},
                                                                 std::vector<Time>{10}, 1, 0)},
  };
}

/// Windows that grow, repeat, shrink and go non-positive.
std::vector<Time> window_sequence() {
  std::vector<Time> dts;
  for (Time dt = -3; dt <= 700; dt += 1 + dt / 37) dts.push_back(dt);  // growing
  for (Time dt = 650; dt <= 900; dt += 50) {                          // repeated
    dts.push_back(dt);
    dts.push_back(dt);
  }
  for (Time dt = 2500; dt >= -2; dt -= 97) dts.push_back(dt);  // shrinking
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<Time> step(-60, 400);
  Time dt = 0;
  for (int i = 0; i < 300; ++i) {  // a random walk, mostly up
    dt = std::max<Time>(-5, dt + step(rng));
    dts.push_back(dt);
  }
  return dts;
}

TEST(EtaPlusCursor, EqualsEtaPlusForEveryModelKind) {
  const std::vector<Time> dts = window_sequence();
  for (const NamedModel& m : model_zoo()) {
    EtaPlusCursor cursor(*m.model);
    for (std::size_t i = 0; i < dts.size(); ++i)
      ASSERT_EQ(cursor.at(dts[i]), m.model->eta_plus(dts[i]))
          << m.name << " at query " << i << ", dt=" << dts[i];
  }
}

TEST(EtaPlusCursor, ResumedSearchAgreesOnFreshNodes) {
  // The cursor and the reference must not share memoised samples, so a
  // resumed search is checked against a from-scratch search on its own node.
  const std::vector<Time> dts = window_sequence();
  const std::vector<NamedModel> cursor_side = model_zoo();
  const std::vector<NamedModel> reference_side = model_zoo();
  for (std::size_t k = 0; k < cursor_side.size(); ++k) {
    EtaPlusCursor cursor(*cursor_side[k].model);
    for (const Time dt : dts)
      ASSERT_EQ(cursor.at(dt), reference_side[k].model->eta_plus(dt))
          << cursor_side[k].name << " dt=" << dt;
  }
}

TEST(EtaPlusCursor, InfinityAtTheSearchCeilingIsUnchanged) {
  // delta-(n) = ceil((n - 2) / 1024): eta+ reaches the search ceiling
  // (2^24) near dt = 16383, and is kCountInfinity exactly where the plain
  // search says so, whether the cursor resumes or restarts.
  const DeltaFunctionModel slow({0}, {0}, 1024, 1);
  const std::vector<Time> dts{100, 16000, 16381, 16382, 16383, 16384, 16385, 16390,
                              16390, 16383, 16382, 16000, 16384};
  EtaPlusCursor cursor(slow);
  bool saw_infinite = false;
  bool saw_finite_near_ceiling = false;
  for (const Time dt : dts) {
    const Count expected = slow.eta_plus(dt);
    saw_infinite |= is_infinite_count(expected);
    saw_finite_near_ceiling |= !is_infinite_count(expected) && expected > (Count{1} << 23);
    ASSERT_EQ(cursor.at(dt), expected) << "dt=" << dt;
  }
  EXPECT_TRUE(saw_infinite);
  EXPECT_TRUE(saw_finite_near_ceiling);
}

TEST(EtaPlusCursor, NonPositiveWindowsAreEmptyAndKeepTheCursor) {
  const ModelPtr m = StandardEventModel::periodic_with_jitter(100, 250);
  EtaPlusCursor cursor(*m);
  EXPECT_EQ(cursor.at(0), 0);
  EXPECT_EQ(cursor.at(-7), 0);
  EXPECT_EQ(cursor.at(1000), m->eta_plus(1000));
  EXPECT_EQ(cursor.at(0), 0);
  EXPECT_EQ(cursor.at(1000), m->eta_plus(1000));
  EXPECT_EQ(cursor.at(1), m->eta_plus(1));
}

}  // namespace
}  // namespace hem
