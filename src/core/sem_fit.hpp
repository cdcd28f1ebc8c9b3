#pragma once

/// \file sem_fit.hpp
/// Fitting a Standard Event Model to an arbitrary event model.
///
/// Classic compositional tools (SymTA/S) propagate PARAMETERS, not curves:
/// after local analysis, the output stream is re-fitted to the (P, J, dmin)
/// triple, losing curve information but keeping the representation closed.
/// This module provides that lossy fit:
///
///   P    - preserved from the long-run rate (EventModel::rate, rounded
///          down to whole ticks for OR-combinations of periodic streams)
///   dmin - delta-(2)
///   J    - the smallest jitter such that the SEM curves bound the model's
///          curves on the fitted horizon:
///            J >= (n-1)P - delta-(n)   and   J >= delta+(n) - (n-1)P
///
/// The fitted SEM CONTAINS the original model (every behaviour admitted by
/// the model is admitted by the SEM) on the fitted horizon; the ablation
/// benchmark bench_ablation_semfit quantifies how much precision the fit
/// costs compared to exact curve propagation.

#include "core/event_model.hpp"
#include "core/standard_event_model.hpp"

namespace hem {

struct SemFitOptions {
  /// Number of curve points used for the fit (n = 2 .. horizon_events).
  Count horizon_events = 256;
};

/// Fit a SEM that conservatively bounds `model`.
/// \param period  long-run period to use; pass 0 to derive it from the
///                model's exact rate (rounded down, which is the
///                conservative direction for interference).
/// \throws AnalysisError if the model admits unbounded bursts (no finite
///         SEM can bound it) or the rate cannot be estimated.
[[nodiscard]] std::shared_ptr<const StandardEventModel> fit_sem(const EventModel& model,
                                                                Time period = 0,
                                                                SemFitOptions options = {});

}  // namespace hem
