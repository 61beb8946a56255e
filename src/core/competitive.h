#ifndef BESYNC_CORE_COMPETITIVE_H_
#define BESYNC_CORE_COMPETITIVE_H_

#include <string>
#include <vector>

#include "core/system.h"

namespace besync {

/// How the Ψ fraction of cache-side bandwidth reserved for source objectives
/// is divided among sources (Section 7).
enum class ShareOption {
  /// (1) All sources are given an equal share.
  kEqualShare,
  /// (2) Shares proportional to the number of cached objects per source.
  kProportionalShare,
  /// (3) Sources may piggyback Ψ/(1-Ψ) objects of their own choosing along
  /// with every object refreshed under the cache's threshold policy — i.e.
  /// shares proportional to how much each source contributes to the cache's
  /// own objectives.
  kPiggyback,
};

std::string ShareOptionToString(ShareOption option);

/// Section 7 configuration: cooperative protocol plus conflicting-objective
/// resource partitioning.
struct CompetitiveConfig {
  CooperativeConfig base;
  /// Fraction Ψ of cache-side bandwidth dedicated to source priorities.
  double psi = 0.25;
  ShareOption option = ShareOption::kEqualShare;
};

/// Cooperative scheduler for competitive environments (Section 7): each
/// source runs two priority schemes — the cache's (via the threshold
/// protocol on the primary queue) and its own (secondary queue, using the
/// per-object source weights). The Ψ share of bandwidth is spent on
/// source-priority refreshes according to the configured option; rate
/// grants are communicated on feedback messages.
class CompetitiveScheduler : public CooperativeScheduler {
 public:
  explicit CompetitiveScheduler(const CompetitiveConfig& config);

  std::string name() const override;
  void Initialize(Harness* harness) override;

 protected:
  void FillFeedback(ControlMessage* feedback, int source_index, double t) override;
  void SendPhase(double t) override;

 private:
  CompetitiveConfig competitive_;
  /// Per-source granted rate (options 1-2) in refreshes/second.
  std::vector<double> granted_rate_;
  /// Per-source accumulated send credit.
  std::vector<double> credit_;
};

/// Test/benchmark helper: gives every object an independent source-objective
/// weight — within each source, a randomly chosen half of the objects are
/// weighted `heavy`, the rest 1 — drawn independently of the cache weights,
/// so the two objectives genuinely conflict.
void AssignConflictingSourceWeights(Workload* workload, double heavy, uint64_t seed);

}  // namespace besync

#endif  // BESYNC_CORE_COMPETITIVE_H_
