#include "core/output_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace hem {

namespace {

// Probes for the materialised delta'- recursion shared across threads.
// publish_race counts prefix extensions another thread (redundantly,
// identically) computed first — the lock-free analogue of the old
// lock_contention probe.
obs::Counter& g_rec_hit = obs::registry().counter("engine.cache.rec_hit");
obs::Counter& g_rec_extend = obs::registry().counter("engine.cache.rec_extend");
obs::Counter& g_rec_race = obs::registry().counter("engine.cache.rec_publish_race");

}  // namespace

// Theta_tau keeps its input's rate; outputs also leave at least r- apart
// (the delta'- recursion), which only binds on an overloaded producer.
OutputModel::OutputModel(ModelPtr input, Time r_minus, Time r_plus)
    : EventModel(std::min(rate_of(input), Rate::of(1, r_minus))),
      input_(std::move(input)),
      r_minus_(r_minus),
      r_plus_(r_plus) {
  if (!input_) throw std::invalid_argument("OutputModel: null input model");
  if (r_minus < 0 || r_plus < r_minus)
    throw std::invalid_argument("OutputModel: need 0 <= r- <= r+");
  if (is_infinite(r_plus))
    throw std::invalid_argument("OutputModel: unbounded response time (analysis failed?)");
}

Time OutputModel::delta_min_raw(Count n) const {
  const auto need = static_cast<std::size_t>(n - 2);  // base class guarantees n >= 2
  const std::size_t have = rec_len_.load(std::memory_order_acquire);
  if (have > need) {
    // Slots below the published prefix length are complete: the release
    // CAS below pairs with this acquire load.
    obs::bump(g_rec_hit);
    return rec_.load(need);
  }
  obs::bump(g_rec_extend);

  // Extend the recursion in a private arena: `prev` rides in a register,
  // the input sub-DAG is queried with no lock held, and concurrent
  // extensions of the same range compute identical values (the model is
  // pure), so the racing slot stores are benign.
  const Time spread = r_plus_ - r_minus_;
  Time prev = have == 0 ? 0 : rec_.load(have - 1);  // delta'-(have + 1)
  for (std::size_t i = have; i <= need; ++i) {
    const auto m = static_cast<Count>(i) + 2;  // the n this slot holds
    const Time shifted = std::max<Time>(0, sat_sub(input_->delta_min(m), spread));
    prev = std::max(shifted, sat_add(prev, r_minus_));
    (void)rec_.store(i, prev);
  }

  // Publish the extended prefix with a CAS-max, capped at the table's
  // capacity (an unstored slot must never fall below the published length).
  const std::size_t len = std::min(need + 1, AtomicCurveCache::kCapacity);
  std::size_t cur = rec_len_.load(std::memory_order_relaxed);
  while (cur < len) {
    if (rec_len_.compare_exchange_weak(cur, len, std::memory_order_release,
                                       std::memory_order_relaxed))
      break;
    obs::bump(g_rec_race);
  }
  return prev;
}

Time OutputModel::delta_plus_raw(Count n) const {
  return sat_add(input_->delta_plus(n), r_plus_ - r_minus_);
}

std::string OutputModel::describe() const {
  std::ostringstream os;
  os << "Out(" << input_->describe() << ", r=[" << r_minus_ << ":" << r_plus_ << "])";
  return os.str();
}

}  // namespace hem
