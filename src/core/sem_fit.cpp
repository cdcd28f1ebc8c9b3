#include "core/sem_fit.hpp"

#include <algorithm>

#include "core/errors.hpp"

namespace hem {

std::shared_ptr<const StandardEventModel> fit_sem(const EventModel& model, Time period,
                                                  SemFitOptions options) {
  if (period < 0) throw std::invalid_argument("fit_sem: negative period");
  Time p = period;
  if (p == 0) {
    const Rate& rate = model.rate();
    if (rate.is_unbounded())
      throw AnalysisError("fit_sem: model admits unbounded bursts (" + model.describe() + ")");
    // Floor of 1/rate: a smaller period admits more events, the
    // conservative direction for interference bounds.  A finite stream
    // (rate 0) is fitted at the average spacing of its events; the jitter
    // below covers its bursts either way.
    if (!rate.is_zero()) {
      p = static_cast<Time>(std::max<std::uint64_t>(1, rate.den() / rate.num()));
    } else {
      Count n = 2;
      while (n < options.horizon_events && !is_infinite(model.delta_min(n + 1))) ++n;
      const Time span = model.delta_min(n);
      p = is_infinite(span) ? 1 : std::max<Time>(1, span / (n - 1));
    }
  }

  const Time d_min = std::min(model.delta_min(2), p);

  Time jitter = 0;
  for (Count n = 2; n <= options.horizon_events; ++n) {
    const Time nominal = sat_mul(p, n - 1);
    const Time dmin_n = model.delta_min(n);
    if (is_infinite(dmin_n)) break;  // finite stream; transient fully covered
    jitter = std::max(jitter, nominal - dmin_n);
    const Time dplus_n = model.delta_plus(n);
    // delta+ = inf (e.g. pending streams) cannot be matched by any finite
    // SEM; the fit then only bounds the eta+/delta- direction, which is
    // the one interference analysis consumes.
    if (!is_infinite(dplus_n)) jitter = std::max(jitter, dplus_n - nominal);
  }

  return std::make_shared<StandardEventModel>(p, jitter, std::max<Time>(d_min, 0));
}

}  // namespace hem
