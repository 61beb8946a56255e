#include "baseline/ideal.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace besync {

IdealCooperativeScheduler::IdealCooperativeScheduler(const IdealConfig& config)
    : config_(config), policy_(MakePolicy(config.policy, config.history_beta)) {}

void IdealCooperativeScheduler::Initialize(Harness* harness) {
  harness_ = harness;
  tick_length_ = harness->config().tick_length;
  const Workload& workload = harness->workload();
  Rng* rng = harness->scheduler_rng();

  cache_bandwidth_ = std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
      config_.cache_bandwidth_avg, config_.bandwidth_change_rate, rng));
  source_bandwidths_.clear();
  for (int j = 0; j < workload.num_sources; ++j) {
    if (config_.source_bandwidth_avg > 0.0) {
      source_bandwidths_.push_back(std::make_unique<BandwidthModel>(
          MakeBandwidthFluctuation(config_.source_bandwidth_avg,
                                   config_.bandwidth_change_rate, rng)));
    } else {
      source_bandwidths_.push_back(nullptr);  // unconstrained
    }
  }
  source_budget_.assign(workload.num_sources, 0);
  source_debt_.assign(workload.num_sources, 0);
  cache_debt_ = 0;

  epochs_.assign(workload.objects.size(), 0);
  history_.assign(workload.objects.size(), HistoryRateEstimator());
  object_source_.resize(workload.objects.size());
  for (size_t i = 0; i < workload.objects.size(); ++i) {
    object_source_[i] = workload.objects[i].source_index;
  }
  if (policy_->time_varying()) {
    // The bound policy's priority rises deterministically with time; seed
    // one wake-up per object. Crossing the "top" position is detected by
    // re-evaluating due objects each tick, so wake every object every tick.
    for (size_t i = 0; i < epochs_.size(); ++i) {
      wake_queue_.Push(0.0, static_cast<ObjectIndex>(i), 0);
    }
  }
}

double IdealCooperativeScheduler::ComputePriority(ObjectIndex index, double now) const {
  const ObjectRuntime& object = harness_->object(index);
  PriorityContext context;
  context.tracker = &object.tracker();
  context.weight = harness_->WeightAt(index, now);
  if (config_.cost_aware_priority && object.spec->refresh_cost > 1) {
    context.weight /= static_cast<double>(object.spec->refresh_cost);
  }
  context.max_divergence_rate = object.spec->max_divergence_rate;
  context.history_rate = history_[index].rate();
  // The idealized scenario knows true update rates.
  context.lambda_estimate = object.spec->lambda;
  return policy_->Priority(context, now);
}

void IdealCooperativeScheduler::OnObjectUpdate(ObjectIndex index, double t) {
  if (policy_->time_varying()) {
    if (policy_->update_sensitive()) {
      ++epochs_[index];
      wake_queue_.Push(t, index, epochs_[index]);
    }
    return;
  }
  uint64_t& epoch = epochs_[index];
  ++epoch;
  queue_.Push(ComputePriority(index, t), index, epoch);
  MaybeCompact();
}

void IdealCooperativeScheduler::MaybeCompact() {
  if (queue_.size() > 4 * epochs_.size() + 64) {
    queue_.Compact([this](ObjectIndex i) { return epochs_[i]; });
  }
}

void IdealCooperativeScheduler::Tick(double t) {
  const EpochFn epoch_fn = [this](ObjectIndex i) { return epochs_[i]; };
  int64_t budget = cache_bandwidth_->BudgetForTick(t, tick_length_) + cache_debt_;
  for (size_t j = 0; j < source_bandwidths_.size(); ++j) {
    source_budget_[j] =
        source_bandwidths_[j]
            ? source_bandwidths_[j]->BudgetForTick(t, tick_length_) + source_debt_[j]
            : std::max<int64_t>(budget, 0);  // effectively unconstrained
  }

  if (policy_->time_varying()) {
    // Re-key every due object by its live priority, then fall through to the
    // same global selection loop.
    QueueEntry entry;
    while (wake_queue_.PopDue(t, epoch_fn, &entry)) {
      queue_.Push(ComputePriority(entry.index, t), entry.index, entry.epoch);
    }
  }

  // Global priority order: refresh the top object whose source still has
  // bandwidth; set aside objects whose source is exhausted (Section 3.3).
  std::vector<QueueEntry> blocked;
  QueueEntry top;
  while (budget > 0 && queue_.PopValid(epoch_fn, &top)) {
    if (top.key <= 0.0) {
      queue_.Restore(top);
      break;
    }
    const int32_t j = object_source_[top.index];
    if (source_budget_[j] <= 0) {
      blocked.push_back(top);
      continue;
    }
    // Costs are charged in full; a large object may drive the budgets
    // negative (its transmission conceptually spans ticks).
    const int64_t cost = harness_->object(top.index).spec->refresh_cost;
    source_budget_[j] -= cost;
    budget -= cost;
    {
      const DivergenceTracker& tracker = harness_->object(top.index).tracker();
      history_[top.index].OnRefresh(t - tracker.last_refresh_time(),
                                    tracker.IntegralTo(t));
    }
    harness_->RefreshInstant(top.index, t);
    ++epochs_[top.index];
    ++refreshes_;
    if (policy_->time_varying()) {
      wake_queue_.Push(t + tick_length_, top.index, epochs_[top.index]);
    }
  }
  for (const QueueEntry& entry : blocked) queue_.Restore(entry);

  // Carry cost overshoot into the next tick (multi-tick transmissions).
  cache_debt_ = std::min<int64_t>(budget, 0);
  for (size_t j = 0; j < source_bandwidths_.size(); ++j) {
    source_debt_[j] =
        source_bandwidths_[j] ? std::min<int64_t>(source_budget_[j], 0) : 0;
  }

  if (policy_->time_varying()) {
    // Objects popped into the priority queue but not refreshed this tick
    // must be reconsidered next tick with fresh priorities.
    QueueEntry leftover;
    while (queue_.PopValid(epoch_fn, &leftover)) {
      wake_queue_.Push(t + tick_length_, leftover.index, leftover.epoch);
    }
  }
}

void IdealCooperativeScheduler::OnMeasurementStart(double /*t*/) { refreshes_ = 0; }

SchedulerStats IdealCooperativeScheduler::stats() const {
  SchedulerStats stats;
  stats.refreshes_sent = refreshes_;
  stats.refreshes_delivered = refreshes_;
  stats.cache_utilization = 0.0;
  return stats;
}

}  // namespace besync
