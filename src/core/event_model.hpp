#pragma once

/// \file event_model.hpp
/// Abstract event model: the function tuple F = (delta-(n), delta+(n)).
///
/// Following Richter's compositional analysis framework (and section 3 of
/// Rox/Ernst, DATE'08), an event stream is abstracted by four characteristic
/// functions:
///
///   eta+(dt)   - maximum number of events in any time interval of size dt
///   eta-(dt)   - minimum number of events in any time interval of size dt
///   delta-(n)  - minimum distance between the first and last of any
///                n consecutive events (a lower bound)
///   delta+(n)  - maximum distance between the first and last of any
///                n consecutive events (an upper bound)
///
/// eta+ and eta- are derivable from delta- and delta+ via the paper's
/// eqs. (1) and (2):
///
///   eta+(dt) = max_{n >= 2} [ { n | delta-(n) < dt } U { 1 } ]       (1)
///   eta-(dt) = min_{n >= 0}   { n | delta+(n + 2) > dt }             (2)
///
/// hence the library stores F = (delta-, delta+) as the primitive pair and
/// derives the eta functions generically (concrete models may override the
/// derivation with closed forms; consistency is checked by property tests).
///
/// Event models are immutable, shareable nodes: stream operations (OR
/// combination, task output calculation, shaping, packing) produce new nodes
/// referencing their operands, forming a DAG.  Evaluation is lazy and
/// memoised per node, so deeply composed models remain cheap to query.
///
/// Every node also carries its exact long-run rate (rate.hpp), the slope of
/// eta+, fixed at construction from its operands' rates by the operation's
/// closed form: SEM 1/P, OR the sum of its inputs, Omega_pa the triggering
/// inputs plus the timer, Psi_pa on a pending input min(signal, frame), and
/// so on.  Load checks read it in O(1); AX14 checks it against eta+.

#include <memory>
#include <string>
#include <vector>

#include "core/curve_cache.hpp"
#include "core/rate.hpp"
#include "core/time.hpp"

namespace hem {

class EventModel;

/// Shared handle to an immutable event model node.
using ModelPtr = std::shared_ptr<const EventModel>;

/// Abstract base for all event models.
///
/// Derived classes implement `delta_min_raw(n)` / `delta_plus_raw(n)` for
/// n >= 2; the base class fixes the n < 2 boundary (distance between fewer
/// than two events is zero), memoises evaluations, and derives the eta
/// functions.  All query methods are `const`; models must be immutable after
/// construction.
class EventModel {
 public:
  virtual ~EventModel() = default;

  EventModel(const EventModel&) = delete;
  EventModel& operator=(const EventModel&) = delete;

  /// Minimum distance between n consecutive events.  Zero for n < 2.
  /// Non-decreasing in n.  Memoised per node.
  [[nodiscard]] Time delta_min(Count n) const;

  /// Maximum distance between n consecutive events.  Zero for n < 2.
  /// Non-decreasing in n; `kTimeInfinity` when unbounded.
  [[nodiscard]] Time delta_plus(Count n) const;

  /// Maximum number of events in any time interval of size dt (eq. 1).
  /// Returns 0 for dt <= 0 and `kCountInfinity` when the model allows
  /// unbounded bursts within dt.
  [[nodiscard]] Count eta_plus(Time dt) const;

  /// Minimum number of events in any time interval of size dt (eq. 2).
  /// Returns 0 when the stream can be silent for dt (e.g. delta+(2) = inf).
  [[nodiscard]] Count eta_minus(Time dt) const;

  /// Largest number of events that may occur simultaneously, i.e. the
  /// largest n with delta-(n) == 0.  Used as parameter `k` of the inner
  /// update function (paper Def. 9).  At least 1 for any non-empty stream.
  [[nodiscard]] Count max_simultaneous_events() const { return eta_plus(1); }

  /// Exact long-run event rate: lim eta+(dt)/dt, or unbounded when eta+ is
  /// infinite at some finite window.  Fixed at construction.
  [[nodiscard]] const Rate& rate() const noexcept { return rate_; }

  /// Human-readable description, used in reports and error messages.
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  /// Every subclass states its long-run rate (see `rate()`).
  explicit EventModel(Rate rate) : rate_(rate) {}

  /// An operand's rate for a constructor's initialiser list; zero for a null
  /// operand, which the constructor body then rejects.
  [[nodiscard]] static Rate rate_of(const ModelPtr& operand) noexcept {
    return operand ? operand->rate() : Rate{};
  }

  /// delta-(n) for n >= 2 (callee may assume n >= 2).
  [[nodiscard]] virtual Time delta_min_raw(Count n) const = 0;

  /// delta+(n) for n >= 2 (callee may assume n >= 2).
  [[nodiscard]] virtual Time delta_plus_raw(Count n) const = 0;

  /// Override point for closed-form eta+ (dt > 0 guaranteed).  `from` is a
  /// known lower bound on the result (1 when nothing is known; when
  /// from >= 2, delta-(from) < dt).  The default inverts delta- by a
  /// galloping + binary search that starts at `from`; closed forms may
  /// ignore it.
  [[nodiscard]] virtual Count eta_plus_raw(Time dt, Count from) const;

  /// Override point for closed-form eta- (dt > 0 guaranteed).
  [[nodiscard]] virtual Count eta_minus_raw(Time dt) const;

 private:
  friend class EtaPlusCursor;

  // Dense memoisation of delta values, indexed by n - 2.  Activation DAGs
  // are shared between resources that the CPA engine analyses on concurrent
  // worker threads; the memo tables are lock-free (see curve_cache.hpp) so
  // concurrent queries of one shared node never serialise behind each
  // other.  Raw evaluation happens before publication: models are pure, so
  // two threads racing on the same uncached n compute the same value and
  // the duplicated work is benign.
  mutable AtomicCurveCache dmin_cache_;
  mutable AtomicCurveCache dplus_cache_;

  const Rate rate_;
};

/// Search ceiling for the generic eta+ inversion.  A well-formed stream's
/// delta-(n) grows without bound; if delta-(n) is still below the queried
/// interval at this n, the stream is treated as allowing unbounded bursts
/// and `kCountInfinity` is returned.
inline constexpr Count kEtaSearchCeiling = Count{1} << 24;

/// eta+ for one stream of window queries against one model.
///
/// Busy-window fixpoints query eta+ at windows that only grow, and eta+ is
/// non-decreasing in dt, so the previous answer is a lower bound for the
/// next one: the eq.-(1) search resumes there instead of at n = 2.  A window
/// smaller than the previous one restarts the search at 1.  For any model
/// with a non-decreasing delta- (AX1), `at(dt)` equals `model.eta_plus(dt)`.
/// A cursor is cheap, belongs to one query stream on one thread, and does
/// not own the (shareable) model.
class EtaPlusCursor {
 public:
  explicit EtaPlusCursor(const EventModel& model) noexcept : model_(&model) {}

  [[nodiscard]] Count at(Time dt) {
    if (dt <= 0) return 0;
    if (dt < dt_) n_ = 1;
    dt_ = dt;
    n_ = model_->eta_plus_raw(dt, n_);
    return n_;
  }

 private:
  const EventModel* model_;
  Time dt_ = 0;  ///< window of the last query
  Count n_ = 1;  ///< eta+(dt_), or 1 before the first query
};

/// Compare two models by sampling both delta curves on n in [2, n_max].
/// Used for CPA fixpoint detection and in tests.
[[nodiscard]] bool models_equal(const EventModel& a, const EventModel& b, Count n_max);

}  // namespace hem
