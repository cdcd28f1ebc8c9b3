#pragma once

/// \file model_checker.hpp
/// Model-algebra contract checker: verifies the paper's event-model axioms
/// on concrete EventModel instances over a configurable horizon.
///
/// The whole hierarchy of analyses rests on a handful of algebraic
/// properties of the characteristic functions (Rox/Ernst DATE'08, section 3
/// and Defs. 8-9); a model violating any of them silently produces
/// *optimistic* (wrong) response-time bounds downstream.  The checker tests:
///
///   AX1  delta-(n) non-decreasing in n, delta-(2) >= 0      (Def. of F)
///   AX2  delta+(n) non-decreasing in n, delta+(2) >= 0
///   AX3  delta-(n) <= delta+(n)
///   AX4  eta+(dt) non-decreasing in dt                      (eq. 1)
///   AX5  eta-(dt) non-decreasing in dt                      (eq. 2)
///   AX6  eta-(dt) <= eta+(dt)
///   AX7  eta+ is the pseudo-inverse of delta- (eq. 1):
///          eta+(delta-(n)) <= n-1 when delta-(n) > 0, and
///          eta+(delta-(n) + 1) >= n
///   AX8  eta- is the pseudo-inverse of delta+ (eq. 2):
///          eta-(delta+(n)) >= n-1, and
///          eta-(delta+(n) - 1) <= n-2 when delta+(n) > 0
///   AX9  HES conservativeness of pack outputs (Def. 8, eqs. 5-8): every
///        inner stream is a subsequence of the outer stream, so
///          delta-_inner(n) >= delta-_outer(n)
///   AX10 inner-update serialisation floor (Def. 9 / eq.-8 fallback):
///          delta'-(n) >= (n-1) * r-
///   AX11 inner update widens delta+ (Def. 9):
///          delta'+(n) >= delta+(n)
///   (ids 12 and 13 are retired with the compiled curve form they checked;
///   AX14 keeps its id so reports stay comparable)
///   AX14 rate exactness (core/rate.hpp): the structural rate r is the slope
///        of eta+, so r * dt <= eta+(dt) at every probe (no false overload)
///        and eta+(dt) - r * dt stays bounded over a doubling sweep of dt
///        (r never under-states the slope); an unbounded r needs eta+ to be
///        infinite at some probed window
///
/// Violations are *reported*, not thrown; see contracts.hpp for the
/// throwing HEM_VERIFY construction-time wrappers.

#include <set>
#include <string>
#include <vector>

#include "core/event_model.hpp"
#include "hierarchical/hierarchical_event_model.hpp"

namespace hem::verify {

/// One axiom violation: which axiom, on which model, witnessed where.
struct AxiomViolation {
  std::string axiom;   ///< stable axiom id, e.g. "AX1"
  std::string model;   ///< model path ("T3.activation: SEM(...)")
  Count witness = 0;   ///< witness point: n for delta axioms, dt for eta axioms
  std::string detail;  ///< the violated inequality with concrete values

  [[nodiscard]] std::string format() const;
};

/// Tuning knobs of a check run.
struct CheckerOptions {
  /// Largest n probed on the delta curves (and used to derive eta sample
  /// points).  Checks are O(horizon) delta queries + O(horizon) eta queries.
  Count horizon = 64;
  /// Probe the eta functions (AX4-AX8, AX14).  Costs a galloping search per
  /// sample; switched off by the cheap construction-time contracts.
  bool check_eta = true;
};

/// Axiom checker.  Accumulates violations across any number of check_*
/// calls; at most one violation per (axiom, model path) pair is recorded so
/// a single broken curve cannot flood the report.
class ModelChecker {
 public:
  explicit ModelChecker(CheckerOptions options = {}) : options_(options) {}

  /// Check AX1-AX8 and AX14 on one flat model.  `path` names the model in reports
  /// (e.g. "T3.activation"); the model's describe() is appended.
  void check_model(const EventModel& model, const std::string& path);

  /// Check every component model of a HEM (AX1-AX8 each) plus, when
  /// `outer_bounds_inner`, the Def.-8 conservativeness AX9.  Pack
  /// constructor outputs must satisfy AX9; results of the Def.-9 inner
  /// update need not (the updated inner bound is conservative and may fall
  /// below the updated outer's recursive serialisation bound), so
  /// after_response() outputs are checked with `outer_bounds_inner=false`.
  void check_hierarchical(const HierarchicalEventModel& hem, const std::string& path,
                          bool outer_bounds_inner = true);

  /// Check an inner-update result against Def. 9: AX10 (eq.-8 serialisation
  /// floor) and AX11 (delta+ only widens) relative to the pre-update model.
  void check_inner_update(const EventModel& before, const EventModel& after, Time r_minus,
                          Time r_plus, const std::string& path);

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<AxiomViolation>& violations() const noexcept {
    return violations_;
  }

  /// All violations, one formatted line each.
  [[nodiscard]] std::string format() const;

 private:
  void record(const std::string& axiom, const std::string& model, Count witness,
              std::string detail);

  /// AX14 over the eta sample points of check_model plus a doubling sweep
  /// past the widest of them.
  void check_rate(const EventModel& model, const std::string& id,
                  const std::set<Time>& samples);

  CheckerOptions options_;
  std::vector<AxiomViolation> violations_;
};

}  // namespace hem::verify
