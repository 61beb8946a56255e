#include "baseline/cgm.h"

#include <cmath>
#include <limits>

#include "baseline/freq_allocation.h"
#include "util/logging.h"

namespace besync {

namespace {

/// Seconds between re-estimation of update rates + re-solving the frequency
/// allocation.
constexpr double kReallocationPeriod = 100.0;
/// Rate estimate used before an object has accumulated enough polls.
constexpr double kPriorLambda = 0.5;
/// Polls needed before an estimator's output replaces the prior.
constexpr int64_t kMinPolls = 2;
/// Fraction of bandwidth spent cycling through *all* objects regardless of
/// the allocation, so estimators keep receiving observations even for
/// objects the allocator currently starves (frequency 0). Without this, an
/// object mis-estimated once could never be re-observed. A small value is
/// charitable to CGM; 0 would be the pure allocator.
constexpr double kExplorationFraction = 0.05;

uint64_t ZeroEpoch(ObjectIndex) { return 0; }

}  // namespace

CGMScheduler::CGMScheduler(const CGMConfig& config) : config_(config) {}

void CGMScheduler::Initialize(Harness* harness) {
  harness_ = harness;
  tick_length_ = harness->config().tick_length;
  const Workload& workload = harness->workload();
  BESYNC_CHECK_EQ(workload.num_caches, 1)
      << "the CGM polling baselines model the paper's single-cache topology; "
         "their poll responses target cache 0 only";
  Rng* rng = harness->scheduler_rng();

  cache_link_ = std::make_unique<Link>(
      "cgm-cache",
      std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
          config_.network.cache_bandwidth_avg, config_.network.bandwidth_change_rate,
          rng)));

  const size_t n = workload.objects.size();
  estimators_.clear();
  estimators_.reserve(n);
  last_seen_version_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (config_.variant == CGMVariant::kLastModified) {
      estimators_.push_back(std::make_unique<LastModifiedEstimator>(
          kPriorLambda, kMinPolls, /*start_time=*/0.0));
    } else {
      estimators_.push_back(std::make_unique<BooleanChangeEstimator>(
          kPriorLambda, kMinPolls, /*start_time=*/0.0));
    }
  }
  next_reallocation_ = 0.0;
  Reallocate(0.0);
}

double CGMScheduler::EstimatedLambda(ObjectIndex index) const {
  return estimators_[index]->Estimate();
}

void CGMScheduler::Reallocate(double t) {
  const Workload& workload = harness_->workload();
  Rng* rng = harness_->scheduler_rng();
  std::vector<double> lambdas(workload.objects.size());
  std::vector<double> weights(workload.objects.size());
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    lambdas[i] = estimators_[i]->Estimate();
    weights[i] = workload.objects[i].weight->average();
  }
  // The poll round trip costs 2 bandwidth units, so the sustainable refresh
  // rate is half the cache-side bandwidth, minus the exploration share.
  const double refresh_budget = config_.network.cache_bandwidth_avg *
                                (1.0 - kExplorationFraction) / 2.0;
  auto allocation = SolveFreshnessAllocation(lambdas, weights, refresh_budget);
  BESYNC_CHECK(allocation.ok()) << allocation.status().ToString();

  intervals_.assign(workload.objects.size(), std::numeric_limits<double>::infinity());
  schedule_.Clear();
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    const double freq = allocation->frequencies[i];
    if (freq > 0.0) {
      intervals_[i] = 1.0 / freq;
      schedule_.Push(t + rng->Uniform(0.0, intervals_[i]), static_cast<ObjectIndex>(i),
                     0);
    }
  }
  next_reallocation_ = t + kReallocationPeriod;
}

void CGMScheduler::SendPoll(ObjectIndex index, double t) {
  // The poll request reaches the source within the tick (source-side
  // bandwidth is unconstrained in this model); the source snapshots its
  // object immediately and the response is queued on the cache-side link.
  const ObjectRuntime& object = harness_->object(index);
  cache_link_->Emplace([&](Message& response) {
    response.kind = MessageKind::kPollResponse;
    response.source_index = object.spec->source_index;
    response.replica = 0;  // single-cache model: cache 0 holds replica slot 0
    response.object_index = index;
    response.value = object.state.value;
    response.version = object.state.version;
    response.send_time = t;
    response.last_update_time = object.state.last_update_time;
  });
  ++polls_sent_;
}

void CGMScheduler::Tick(double t) {
  cache_link_->BeginTick(t, tick_length_);

  // 1. Deliver queued poll responses within the budget; each consumes one
  //    unit and applies a refresh + an estimator observation.
  cache_link_->DeliverQueued([&](const Message& response) {
    harness_->DeliverRefresh(response, t);
    const ObjectIndex i = response.object_index;
    const bool changed = response.version != last_seen_version_[i];
    estimators_[i]->RecordPoll(response.send_time, changed, response.last_update_time);
    last_seen_version_[i] = response.version;
    ++refreshes_applied_;
  });

  // 2. Spend remaining budget on new poll requests: exploration polls first
  //    (cycling over all objects at the configured fraction of bandwidth),
  //    then the frequency schedule.
  const int64_t total = static_cast<int64_t>(estimators_.size());
  explore_credit_ += kExplorationFraction *
                     config_.network.cache_bandwidth_avg * tick_length_ / 2.0;
  while (explore_credit_ >= 1.0 && cache_link_->ConsumeBudget(1) == 1) {
    explore_credit_ -= 1.0;
    SendPoll(explore_cursor_, t);
    explore_cursor_ = (explore_cursor_ + 1) % total;
  }

  QueueEntry due;
  while (cache_link_->remaining_budget() > 0 && schedule_.PopDue(t, ZeroEpoch, &due)) {
    const int64_t granted = cache_link_->ConsumeBudget(1);
    BESYNC_DCHECK(granted == 1);
    SendPoll(due.index, t);
    schedule_.Push(t + intervals_[due.index], due.index, 0);
  }

  // 3. Periodic re-estimation + re-allocation.
  if (t >= next_reallocation_) Reallocate(t);
}

void CGMScheduler::OnMeasurementStart(double /*t*/) {
  polls_sent_ = 0;
  refreshes_applied_ = 0;
  cache_link_->ResetStats();
}

void CGMScheduler::Finalize(double /*t*/) { cache_link_->FinishTick(); }

SchedulerStats CGMScheduler::stats() const {
  SchedulerStats stats;
  stats.polls_sent = polls_sent_;
  stats.refreshes_delivered = refreshes_applied_;
  stats.cache_utilization = cache_link_->utilization().utilization();
  stats.avg_cache_queue = cache_link_->queue_length_stat().mean();
  stats.max_cache_queue = static_cast<int64_t>(cache_link_->max_queue_size());
  return stats;
}

}  // namespace besync
