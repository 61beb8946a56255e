#ifndef BESYNC_PRIORITY_SPECIAL_CASE_H_
#define BESYNC_PRIORITY_SPECIAL_CASE_H_

#include "priority/priority.h"

namespace besync {

/// Closed-form priority for Poisson updates under the staleness metric
/// (Section 3.4): P_s = D_s / lambda * W. Stale objects with low update
/// rates come first — they are "the most likely to remain up-to-date the
/// longest after being refreshed".
class PoissonStalenessPriority : public PriorityPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kPoissonStaleness; }
  double Priority(const PriorityContext& context, double now) const override;
};

/// Closed-form priority for Poisson updates under the lag metric
/// (Section 3.4): P_l = D_l (D_l + 1) / (2 lambda) * W — roughly quadratic
/// in the number of unpropagated updates and inversely proportional to the
/// update rate.
class PoissonLagPriority : public PriorityPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kPoissonLag; }
  double Priority(const PriorityContext& context, double now) const override;
};

}  // namespace besync

#endif  // BESYNC_PRIORITY_SPECIAL_CASE_H_
