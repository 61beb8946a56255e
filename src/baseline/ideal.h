#ifndef BESYNC_BASELINE_IDEAL_H_
#define BESYNC_BASELINE_IDEAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/harness.h"
#include "net/bandwidth.h"
#include "priority/history.h"
#include "priority/priority.h"
#include "priority/priority_queue.h"

namespace besync {

/// Configuration of the idealized cooperative scheduler.
struct IdealConfig {
  double cache_bandwidth_avg = 10.0;
  /// <= 0 means unconstrained source-side bandwidth.
  double source_bandwidth_avg = -1.0;
  double bandwidth_change_rate = 0.0;
  PolicyKind policy = PolicyKind::kArea;
  /// History blend share for PolicyKind::kAreaHistory.
  double history_beta = 0.5;
  /// Divide priorities by refresh cost (Section 10.1); identity for unit
  /// costs.
  bool cost_aware_priority = true;
};

/// The idealized global scheduler of Section 3.3: "each time there is enough
/// cache-side bandwidth to accept a refresh, the object with the highest
/// refresh priority among all objects at all sources should be refreshed",
/// falling through to lower-priority objects when the hosting source's
/// bandwidth is exhausted. Coordination and refresh propagation are free and
/// instantaneous — this is the theoretical best case that Figures 4-6
/// compare against ("ideal cooperative" / "theoretically achievable
/// divergence").
class IdealCooperativeScheduler : public Scheduler {
 public:
  explicit IdealCooperativeScheduler(const IdealConfig& config);

  std::string name() const override { return "ideal-cooperative"; }
  void Initialize(Harness* harness) override;
  void OnObjectUpdate(ObjectIndex index, double t) override;
  void Tick(double t) override;
  void OnMeasurementStart(double t) override;
  SchedulerStats stats() const override;

 private:
  double ComputePriority(ObjectIndex index, double now) const;
  void MaybeCompact();

  IdealConfig config_;
  Harness* harness_ = nullptr;
  std::unique_ptr<PriorityPolicy> policy_;
  std::unique_ptr<BandwidthModel> cache_bandwidth_;
  std::vector<std::unique_ptr<BandwidthModel>> source_bandwidths_;
  LazyMaxHeap queue_;
  /// Time-varying (bound/history) policies use wake-ups as well as (for
  /// update-sensitive policies) update notifications.
  TimeMinHeap wake_queue_;
  std::vector<uint64_t> epochs_;
  std::vector<HistoryRateEstimator> history_;
  std::vector<int32_t> object_source_;
  std::vector<int64_t> source_budget_;  // scratch, per tick
  std::vector<int64_t> source_debt_;    // carryover from costly refreshes
  int64_t cache_debt_ = 0;
  int64_t refreshes_ = 0;
  double tick_length_ = 1.0;
};

}  // namespace besync

#endif  // BESYNC_BASELINE_IDEAL_H_
