#include "priority/special_case.h"

namespace besync {

double PoissonStalenessPriority::Priority(const PriorityContext& context,
                                          double /*now*/) const {
  const double staleness = context.tracker->current_divergence();
  if (staleness <= 0.0) return 0.0;  // up-to-date copies have zero priority
  const double lambda = context.lambda_estimate;
  if (lambda <= 0.0) return 0.0;  // never-updating object: nothing to gain
  return staleness / lambda * context.weight;
}

double PoissonLagPriority::Priority(const PriorityContext& context,
                                    double /*now*/) const {
  const double lag = context.tracker->current_divergence();
  if (lag <= 0.0) return 0.0;
  const double lambda = context.lambda_estimate;
  if (lambda <= 0.0) return 0.0;
  return lag * (lag + 1.0) / (2.0 * lambda) * context.weight;
}

}  // namespace besync
