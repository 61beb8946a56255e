#include "net/link.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace besync {

Link::Link(std::string name, std::unique_ptr<BandwidthModel> bandwidth,
           MessagePool* pool)
    : name_(std::move(name)),
      bandwidth_(std::move(bandwidth)),
      own_pool_(pool == nullptr ? std::make_unique<MessagePool>() : nullptr),
      pool_(pool == nullptr ? own_pool_.get() : pool) {
  BESYNC_CHECK(bandwidth_ != nullptr);
}

void Link::BeginTick(double tick_start, double tick_len) {
  // Account for the previous tick's budget usage before starting a new one.
  // Usage is measured against the recorded start-of-tick level, not the
  // budget: a tick that starts below budget (paying off deficit carried in
  // from an earlier tick) would otherwise re-report the borrowed units as
  // used, double-counting them across the run.
  if (in_tick_) {
    utilization_.Add(static_cast<double>(tick_start_remaining_ - remaining_),
                     static_cast<double>(tick_budget_));
  }
  // Debt from a multi-tick transmission carries forward; surplus does not.
  const int64_t debt = std::min<int64_t>(remaining_, 0);
  // The bandwidth model is always consulted (it may keep fractional-credit
  // state across ticks); fault overrides apply to the result only.
  int64_t budget = bandwidth_->BudgetForTick(tick_start, tick_len);
  if (down_) {
    budget = 0;
  } else if (bandwidth_factor_ != 1.0) {
    budget = static_cast<int64_t>(static_cast<double>(budget) * bandwidth_factor_);
  }
  tick_budget_ = budget;
  remaining_ = tick_budget_ + debt;
  tick_start_remaining_ = remaining_;
  queue_length_stat_.Add(static_cast<double>(queue_.size()));
  max_queue_size_ = std::max(max_queue_size_, queue_.size());
  in_tick_ = true;
  trace_now_ = tick_start;
}

void Link::RecordDrop(const Message& message, bool blackholed) {
  TraceEvent event;
  event.kind = TraceEventKind::kDrop;
  event.t = trace_now_;
  event.node = trace_node_;
  event.source = message.source_index;
  event.cache = message.cache_id;
  event.object = message.object_index;
  event.version = message.version;
  event.is_pull = message.is_pull;
  event.aux = blackholed ? 1 : 0;
  trace_->Record(event);
}

void Link::FinishTick() {
  if (!in_tick_) return;
  utilization_.Add(static_cast<double>(tick_start_remaining_ - remaining_),
                   static_cast<double>(tick_budget_));
  in_tick_ = false;
}

void Link::EnqueueHandle(MessageHandle handle) {
  if (down_) {
    ++messages_blackholed_;
    if (trace_ != nullptr) RecordDrop((*pool_)[handle], /*blackholed=*/true);
    pool_->Release(handle);
    return;
  }
  queue_.push_back(handle);
  max_queue_size_ = std::max(max_queue_size_, queue_.size());
}

int64_t Link::ConsumeBudget(int64_t amount) {
  BESYNC_CHECK_GE(amount, 0);
  const int64_t granted = std::max<int64_t>(std::min(amount, remaining_), 0);
  remaining_ -= granted;
  return granted;
}

bool Link::TryConsumeAllowingDeficit(int64_t amount) {
  BESYNC_CHECK_GE(amount, 0);
  if (down_) return false;
  if (remaining_ <= 0) return false;
  remaining_ -= amount;
  return true;
}

void Link::ConsumeAllowingDebt(int64_t amount) {
  BESYNC_CHECK_GE(amount, 0);
  // A partitioned link charges nothing: the traffic it would have carried
  // was blackholed, and charging would bury the recovered link in debt.
  if (down_) return;
  remaining_ -= amount;
}

std::vector<MessageHandle> Link::TakeQueue() {
  std::vector<MessageHandle> taken;
  taken.reserve(queue_.size());
  for (size_t i = 0; i < queue_.size(); ++i) taken.push_back(queue_[i]);
  queue_.clear();
  return taken;
}

void Link::SetLossRate(double rate, uint64_t seed) {
  BESYNC_CHECK_GE(rate, 0.0);
  BESYNC_CHECK_LT(rate, 1.0);
  loss_rate_ = rate;
  loss_rng_ = Rng(seed);
}

void Link::ResetStats() {
  utilization_.Reset();
  queue_length_stat_.Reset();
  messages_delivered_ = 0;
  messages_dropped_ = 0;
  pull_units_delivered_ = 0;
  push_units_delivered_ = 0;
  messages_blackholed_ = 0;
  max_queue_size_ = queue_.size();
}

}  // namespace besync
