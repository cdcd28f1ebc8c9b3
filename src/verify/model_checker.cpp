#include "verify/model_checker.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace hem::verify {

namespace {

std::string time_str(Time t) { return is_infinite(t) ? "inf" : std::to_string(t); }
std::string count_str(Count n) { return is_infinite_count(n) ? "inf" : std::to_string(n); }

}  // namespace

std::string AxiomViolation::format() const {
  std::ostringstream os;
  os << axiom << " [" << model << "] @" << witness << ": " << detail;
  return os.str();
}

void ModelChecker::record(const std::string& axiom, const std::string& model, Count witness,
                          std::string detail) {
  // One report per (axiom, model path): a single broken curve would otherwise
  // produce a violation per sample point.
  for (const AxiomViolation& v : violations_)
    if (v.axiom == axiom && v.model == model) return;
  violations_.push_back({axiom, model, witness, std::move(detail)});
}

void ModelChecker::check_model(const EventModel& model, const std::string& path) {
  const std::string id = path + ": " + model.describe();
  const Count horizon = std::max<Count>(options_.horizon, 2);

  // ---- delta axioms AX1-AX3 (delta_min(1) == delta_plus(1) == 0 by base) --
  Time prev_dm = model.delta_min(1);
  Time prev_dp = model.delta_plus(1);
  for (Count n = 2; n <= horizon; ++n) {
    const Time dm = model.delta_min(n);
    const Time dp = model.delta_plus(n);
    if (dm < prev_dm)
      record("AX1", id, n,
             "delta-(" + std::to_string(n) + ")=" + time_str(dm) + " < delta-(" +
                 std::to_string(n - 1) + ")=" + time_str(prev_dm));
    if (dp < prev_dp)
      record("AX2", id, n,
             "delta+(" + std::to_string(n) + ")=" + time_str(dp) + " < delta+(" +
                 std::to_string(n - 1) + ")=" + time_str(prev_dp));
    if (dm > dp)
      record("AX3", id, n,
             "delta-(" + std::to_string(n) + ")=" + time_str(dm) + " > delta+(" +
                 std::to_string(n) + ")=" + time_str(dp));
    prev_dm = dm;
    prev_dp = dp;
  }

  if (!options_.check_eta) return;

  // ---- eta sample points: where the curves actually bend ------------------
  std::set<Time> samples{1, 2, 3};
  for (Count n = 2; n <= horizon; ++n) {
    const Time dm = model.delta_min(n);
    const Time dp = model.delta_plus(n);
    if (!is_infinite(dm)) {
      if (dm > 0) samples.insert(dm);
      samples.insert(dm + 1);
    }
    if (!is_infinite(dp)) {
      if (dp > 1) samples.insert(dp - 1);
      if (dp > 0) samples.insert(dp);
      samples.insert(dp + 1);
    }
  }

  // ---- eta monotonicity + ordering AX4-AX6 --------------------------------
  Count prev_ep = 0;
  Count prev_em = 0;
  Time prev_dt = 0;
  bool first = true;
  for (const Time dt : samples) {
    const Count ep = model.eta_plus(dt);
    const Count em = model.eta_minus(dt);
    if (!first) {
      if (ep < prev_ep)
        record("AX4", id, dt,
               "eta+(" + std::to_string(dt) + ")=" + count_str(ep) + " < eta+(" +
                   std::to_string(prev_dt) + ")=" + count_str(prev_ep));
      if (em < prev_em)
        record("AX5", id, dt,
               "eta-(" + std::to_string(dt) + ")=" + count_str(em) + " < eta-(" +
                   std::to_string(prev_dt) + ")=" + count_str(prev_em));
    }
    if (em > ep)
      record("AX6", id, dt,
             "eta-(" + std::to_string(dt) + ")=" + count_str(em) + " > eta+(" +
                 std::to_string(dt) + ")=" + count_str(ep));
    prev_ep = ep;
    prev_em = em;
    prev_dt = dt;
    first = false;
  }

  // ---- pseudo-inverse duality AX7 (eq. 1) ---------------------------------
  for (Count n = 2; n <= horizon; ++n) {
    const Time dm = model.delta_min(n);
    if (is_infinite(dm)) break;  // monotone: all later n are infinite too
    if (dm > 0) {
      const Count ep = model.eta_plus(dm);
      if (ep > n - 1)
        record("AX7", id, n,
               "eta+(delta-(" + std::to_string(n) + ")=" + time_str(dm) + ")=" + count_str(ep) +
                   " > " + std::to_string(n - 1));
    }
    const Count ep1 = model.eta_plus(dm + 1);
    if (ep1 < n)
      record("AX7", id, n,
             "eta+(delta-(" + std::to_string(n) + ")+1=" + std::to_string(dm + 1) +
                 ")=" + count_str(ep1) + " < " + std::to_string(n));
  }

  // ---- pseudo-inverse duality AX8 (eq. 2) ---------------------------------
  for (Count n = 2; n <= horizon; ++n) {
    const Time dp = model.delta_plus(n);
    if (is_infinite(dp)) break;
    if (dp <= 0) continue;  // eq. 2 is stated for dt > 0 only
    const Count em = model.eta_minus(dp);
    if (em < n - 1)
      record("AX8", id, n,
             "eta-(delta+(" + std::to_string(n) + ")=" + time_str(dp) + ")=" + count_str(em) +
                 " < " + std::to_string(n - 1));
    const Count em1 = model.eta_minus(dp - 1);
    if (em1 > n - 2)
      record("AX8", id, n,
             "eta-(delta+(" + std::to_string(n) + ")-1=" + std::to_string(dp - 1) +
                 ")=" + count_str(em1) + " > " + std::to_string(n - 2));
  }

  check_rate(model, id, samples);
}

void ModelChecker::check_rate(const EventModel& model, const std::string& id,
                              const std::set<Time>& samples) {
  /// Doublings of the sweep past the widest sample.  An excess
  /// eta+(dt) - r * dt that still grows by more than the stream's burst
  /// budget eta+(base) over the last doubling exposes a rate short of the
  /// slope by roughly 2^-(kRateSweep - 1) of it or more.
  constexpr int kRateSweep = 10;
  const Rate r = model.rate();
  const Time base = *samples.rbegin();
  std::vector<Time> probes(samples.begin(), samples.end());
  for (int j = 1; j <= kRateSweep; ++j) probes.push_back(sat_mul(base, Count{1} << j));

  const std::string rate_str = "rate " + r.str();
  std::vector<Count> sweep;  // eta+ at base * 2^j, j = 0..kRateSweep
  bool reached_infinity = false;
  for (const Time dt : probes) {
    if (is_infinite(dt)) break;
    const Count ep = model.eta_plus(dt);
    if (is_infinite_count(ep)) {
      reached_infinity = true;
      // A finite rate with eta+ unbounded at a finite window under-states
      // it, unless the window merely holds more events than the generic
      // inversion searches (kEtaSearchCeiling).
      if (!r.is_unbounded() && r * dt < Rate::of(kEtaSearchCeiling / 2, 1))
        record("AX14", id, dt,
               "eta+(" + std::to_string(dt) + ")=inf but the " + rate_str +
                   " is finite (r*dt=" + (r * dt).str() + ")");
      break;
    }
    if (dt >= base) sweep.push_back(ep);
    if (!r.is_unbounded() && Rate::of(ep, dt) < r)
      record("AX14", id, dt,
             rate_str + " exceeds eta+(" + std::to_string(dt) + ")/" + std::to_string(dt) +
                 "=" + count_str(ep) + "/" + std::to_string(dt) +
                 ": an overload check on the rate would reject loads the curves admit");
  }
  if (r.is_unbounded()) {
    if (!reached_infinity)
      record("AX14", id, probes.back(),
             rate_str + " but eta+(" + std::to_string(probes.back()) +
                 ")=" + count_str(model.eta_plus(probes.back())) + " is finite");
    return;
  }
  if (sweep.size() != static_cast<std::size_t>(kRateSweep) + 1) return;

  const auto excess = [&](std::size_t j) {
    const Time dt = sat_mul(base, Count{1} << j);
    return static_cast<long double>(sweep[j]) - static_cast<long double>(r.num()) *
                                                    static_cast<long double>(dt) /
                                                    static_cast<long double>(r.den());
  };
  const long double grew = excess(kRateSweep) - excess(kRateSweep - 1);
  if (grew > static_cast<long double>(sweep.front()))
    record("AX14", id, sat_mul(base, Count{1} << kRateSweep),
           "eta+(dt) - r*dt grew by " + std::to_string(static_cast<double>(grew)) +
               " over the last doubling to dt=" +
               std::to_string(sat_mul(base, Count{1} << kRateSweep)) + ", above eta+(" +
               std::to_string(base) + ")=" + count_str(sweep.front()) + ": the " + rate_str +
               " under-states the slope of eta+");
}

void ModelChecker::check_hierarchical(const HierarchicalEventModel& hem, const std::string& path,
                                      bool outer_bounds_inner) {
  check_model(*hem.outer(), path + ".outer");
  const Count horizon = std::max<Count>(options_.horizon, 2);
  for (std::size_t i = 0; i < hem.inner_count(); ++i) {
    const std::string ipath = path + ".inner[" + std::to_string(i) + "]";
    const EventModel& inner = *hem.inner(i);
    check_model(inner, ipath);
    if (!outer_bounds_inner) continue;
    // AX9 (Def. 8): an inner stream is a subsequence of the outer stream, so
    // n inner events span at least what n outer events span.
    for (Count n = 2; n <= horizon; ++n) {
      const Time din = inner.delta_min(n);
      const Time dout = hem.outer()->delta_min(n);
      if (din < dout) {
        record("AX9", ipath + ": " + inner.describe(), n,
               "inner delta-(" + std::to_string(n) + ")=" + time_str(din) +
                   " < outer delta-(" + std::to_string(n) + ")=" + time_str(dout));
        break;
      }
    }
  }
}

void ModelChecker::check_inner_update(const EventModel& before, const EventModel& after,
                                      Time r_minus, Time r_plus, const std::string& path) {
  const std::string id = path + ": " + after.describe();
  const Count horizon = std::max<Count>(options_.horizon, 2);
  const std::string interval =
      " (response [" + time_str(r_minus) + ", " + time_str(r_plus) + "])";
  for (Count n = 2; n <= horizon; ++n) {
    // AX10: the eq.-8 fallback — events leaving a response-time operation are
    // serialised at least r- apart, so delta'-(n) >= (n-1)*r-.
    const Time floor = sat_mul(r_minus, n - 1);
    const Time da = after.delta_min(n);
    if (da < floor)
      record("AX10", id, n,
             "updated delta-(" + std::to_string(n) + ")=" + time_str(da) + " < (n-1)*r-=" +
                 time_str(floor) + interval);
    // AX11: the response spread can only widen the maximum distance.
    const Time dp_before = before.delta_plus(n);
    const Time dp_after = after.delta_plus(n);
    if (dp_after < dp_before)
      record("AX11", id, n,
             "updated delta+(" + std::to_string(n) + ")=" + time_str(dp_after) +
                 " < pre-update delta+(" + std::to_string(n) + ")=" + time_str(dp_before) +
                 interval);
  }
}

std::string ModelChecker::format() const {
  std::ostringstream os;
  for (const AxiomViolation& v : violations_) os << v.format() << "\n";
  return os.str();
}

}  // namespace hem::verify
