#ifndef BESYNC_PRIORITY_NAIVE_H_
#define BESYNC_PRIORITY_NAIVE_H_

#include "priority/priority.h"

namespace besync {

/// The intuitive-but-suboptimal policy of Section 4.3: prioritize objects by
/// their current weighted divergence, P = D(O,t) * W(O,t). The paper shows
/// this performs up to 64-84% worse than the area priority under skewed
/// weights/rates; bench_paper's validation_* claims reproduce that
/// comparison.
class NaivePriority : public PriorityPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kNaive; }
  double Priority(const PriorityContext& context, double now) const override;
};

}  // namespace besync

#endif  // BESYNC_PRIORITY_NAIVE_H_
