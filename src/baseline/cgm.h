#ifndef BESYNC_BASELINE_CGM_H_
#define BESYNC_BASELINE_CGM_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/ideal_cache.h"
#include "baseline/lambda_estimator.h"
#include "core/harness.h"
#include "net/link.h"
#include "priority/priority_queue.h"

namespace besync {

/// Which estimator input the practical CGM variants use (Section 6.3).
enum class CGMVariant {
  /// CGM1: sources report the time of the most recent update per poll.
  kLastModified,
  /// CGM2: the cache only learns whether the object changed since the last
  /// refresh.
  kBooleanChange,
};

/// Practical CGM parameters.
struct CGMConfig {
  CacheDrivenConfig network;
  CGMVariant variant = CGMVariant::kLastModified;
};

/// The practical cache-driven baselines CGM1/CGM2 of Section 6.3: the cache
/// schedules refreshes at per-object frequencies from the CGM allocator,
/// but (a) every refresh is a poll costing a round trip — one unit of
/// cache-side bandwidth for the request and one for the response — and
/// (b) the update rates lambda_i must be estimated online from poll
/// outcomes. Source-side bandwidth is unconstrained, matching the paper's
/// setup for this comparison.
class CGMScheduler : public Scheduler {
 public:
  explicit CGMScheduler(const CGMConfig& config);

  std::string name() const override {
    return config_.variant == CGMVariant::kLastModified ? "cgm1" : "cgm2";
  }
  void Initialize(Harness* harness) override;
  void OnObjectUpdate(ObjectIndex /*index*/, double /*t*/) override {}
  void Tick(double t) override;
  void OnMeasurementStart(double t) override;
  /// Flushes the last tick into the cache link's utilization stat.
  void Finalize(double t) override;
  SchedulerStats stats() const override;

  /// Current rate estimate for an object (tests).
  double EstimatedLambda(ObjectIndex index) const;

 private:
  void Reallocate(double t);
  void SendPoll(ObjectIndex index, double t);

  CGMConfig config_;
  Harness* harness_ = nullptr;
  std::unique_ptr<Link> cache_link_;
  std::vector<std::unique_ptr<LambdaEstimator>> estimators_;
  std::vector<int64_t> last_seen_version_;
  std::vector<double> intervals_;
  TimeMinHeap schedule_;
  double next_reallocation_ = 0.0;
  /// Exploration cursor cycling through all objects.
  ObjectIndex explore_cursor_ = 0;
  double explore_credit_ = 0.0;
  int64_t polls_sent_ = 0;
  int64_t refreshes_applied_ = 0;
  double tick_length_ = 1.0;
};

}  // namespace besync

#endif  // BESYNC_BASELINE_CGM_H_
