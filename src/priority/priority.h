#ifndef BESYNC_PRIORITY_PRIORITY_H_
#define BESYNC_PRIORITY_PRIORITY_H_

#include <memory>
#include <string>

#include "divergence/tracker.h"

namespace besync {

/// Available refresh-priority policies.
enum class PolicyKind {
  /// The paper's general priority (Sections 3.3, 4, Eq. 2):
  ///   P(O, t) = [ (t - t_last) * D(O,t) - ∫_{t_last}^{t} D dτ ] * W(O,t)
  /// — the weighted area *above* the divergence curve since the last
  /// refresh. Applies to any divergence metric.
  kArea,
  /// The "simpler alternative" P = D(O,t) * W(O,t) used as a strawman in
  /// Section 4.3.
  kNaive,
  /// Closed form for Poisson updates + staleness metric (Section 3.4):
  ///   P = D_s / lambda * W.
  kPoissonStaleness,
  /// Closed form for Poisson updates + lag metric (Section 3.4):
  ///   P = D_l (D_l + 1) / (2 lambda) * W.
  kPoissonLag,
  /// Divergence bounding (Section 9): P = R (t - t_last)^2 / 2 * W, where R
  /// is the object's maximum divergence rate. Minimizes the average upper
  /// bound on divergence instead of the actual divergence.
  kBound,
  /// History-extended area priority (Section 10.1 future work): blends the
  /// per-interval area with a learned historical divergence rate. See
  /// priority/history.h.
  kAreaHistory,
};

std::string PolicyKindToString(PolicyKind kind);

/// Everything a policy may need to price one object at one instant.
struct PriorityContext {
  /// Source-side divergence bookkeeping (never null).
  const DivergenceTracker* tracker = nullptr;
  /// W(O, t_now).
  double weight = 1.0;
  /// The object's Poisson update rate (special-case policies); schedulers
  /// pass the true rate (DESIGN.md, "Substitutions").
  double lambda_estimate = 0.0;
  /// Maximum divergence rate R (bound policy).
  double max_divergence_rate = 0.0;
  /// Learned historical divergence growth rate (history policy); maintained
  /// by the scheduler across refresh intervals.
  double history_rate = 0.0;
};

/// A refresh-priority policy. For all policies except kBound the priority is
/// constant between updates to the object (Section 8.2), so schedulers only
/// re-evaluate priorities on update events; kBound is time-varying and
/// additionally exposes the threshold-crossing time in closed form.
class PriorityPolicy {
 public:
  virtual ~PriorityPolicy() = default;

  virtual PolicyKind kind() const = 0;

  /// Weighted refresh priority of the object at time `now`.
  virtual double Priority(const PriorityContext& context, double now) const = 0;

  /// Whether the priority changes between updates.
  virtual bool time_varying() const { return false; }

  /// Whether updates to the object change its priority (true for all
  /// divergence-driven policies; false for the purely deterministic bound
  /// policy). Time-varying, update-sensitive policies need both wake-ups
  /// and update notifications.
  virtual bool update_sensitive() const { return true; }

  /// For time-varying policies: the earliest time >= `now` at which the
  /// priority reaches `threshold` (+infinity if never). Default: unsupported.
  virtual double ThresholdCrossTime(const PriorityContext& context, double threshold,
                                    double now) const;
};

/// The paper's general area-above-the-divergence-curve priority.
class AreaPriority : public PriorityPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kArea; }
  double Priority(const PriorityContext& context, double now) const override;
};

/// `history_beta` applies only to kAreaHistory (share of the historical
/// prediction in the blended priority).
std::unique_ptr<PriorityPolicy> MakePolicy(PolicyKind kind, double history_beta = 0.5);

}  // namespace besync

#endif  // BESYNC_PRIORITY_PRIORITY_H_
