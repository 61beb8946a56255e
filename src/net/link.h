#ifndef BESYNC_NET_LINK_H_
#define BESYNC_NET_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/bandwidth.h"
#include "net/message.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/stats.h"

namespace besync {

/// A bandwidth-constrained link with a FIFO queue, operated in per-tick
/// budget mode. Implements the paper's "standard underlying network model
/// where any messages for which there is not enough capacity become enqueued
/// for later transmission" (Section 1.2).
///
/// Per tick, the owner calls BeginTick() to establish the message budget,
/// then any mix of:
///  - Enqueue()       -- add a message to the FIFO (no budget consumed yet),
///  - DeliverQueued() -- deliver queued messages up to the remaining budget,
///  - ConsumeBudget() -- spend budget on unqueued traffic (e.g. the cache
///                       spending surplus capacity on feedback messages).
class Link {
 public:
  Link(std::string name, std::unique_ptr<BandwidthModel> bandwidth);

  /// Starts a new tick: computes the tick's budget and records queue stats.
  /// Debt from a transmission that spilled past the previous tick carries
  /// over (large messages occupy the link across ticks).
  void BeginTick(double tick_start, double tick_len);

  /// Flushes the in-progress tick's usage into the utilization stat (a
  /// tick is otherwise only accounted at the *next* BeginTick, so the last
  /// tick of a run would go missing). Idempotent; call at end of run.
  void FinishTick();

  /// Adds a message to the FIFO queue.
  void Enqueue(Message message);

  /// Delivers queued messages (FIFO) while budget remains, invoking `sink`
  /// for each; a message's `cost` is charged in full when its transmission
  /// starts, possibly driving the budget negative (the debt reduces the
  /// next tick's budget). Returns the number delivered. Messages may be
  /// dropped instead of delivered when a loss rate is configured (their
  /// cost is still spent — the transmission happened, the content was
  /// lost).
  int64_t DeliverQueued(const std::function<void(const Message&)>& sink);

  /// Attempts to consume `amount` units of remaining budget; returns the
  /// number of units actually granted (possibly fewer).
  int64_t ConsumeBudget(int64_t amount);

  /// Consumes `amount` units if any budget remains, allowing the balance to
  /// go negative (multi-tick transmission of a large message). Returns
  /// whether the consumption happened.
  bool TryConsumeAllowingDeficit(int64_t amount);

  /// Unconditionally consumes `amount` units, allowing the balance to go
  /// negative even when already exhausted. For demand traffic that must be
  /// sent (miss-triggered pull responses): the debt reduces the following
  /// ticks' budgets, throttling subsequent pushes instead of dropping the
  /// pull.
  void ConsumeAllowingDebt(int64_t amount);

  /// Configures random message loss on delivery (0 = lossless, default).
  void SetLossRate(double rate, uint64_t seed);

  /// Observability wiring (obs/trace.h): records this link's message drops
  /// (random loss and blackholing while down) into `trace`, attributed to
  /// `node` (the downstream endpoint — a cache id for leaf edges, a relay
  /// node id for tree edges). Null (the default) disables recording. Drop
  /// timestamps are the current tick's start time (the finest clock the
  /// link sees).
  void SetTrace(TraceBuffer* trace, int32_t node) {
    trace_ = trace;
    trace_node_ = node;
  }

  /// Partitions / heals the link (fault injection). While down the link
  /// blackholes: new Enqueue()s are dropped, every budget grant is refused,
  /// and the tick budget is 0 — queued messages freeze in place and deliver
  /// once the link comes back. Deficit carried into the outage is preserved
  /// (the interrupted transmission resumes on recovery).
  void SetDown(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Temporary bandwidth degradation (fault injection): each tick's budget
  /// is scaled by `factor` (1 = nominal). Only consulted when != 1, so
  /// fault-free runs keep their exact budget arithmetic.
  void SetBandwidthFactor(double factor) { bandwidth_factor_ = factor; }
  double bandwidth_factor() const { return bandwidth_factor_; }

  /// Messages dropped at Enqueue because the link was down.
  int64_t messages_blackholed() const { return messages_blackholed_; }

  /// Removes and returns every queued message in FIFO order (relay
  /// failover: the caller re-routes or drops them per policy). Budget and
  /// statistics are untouched.
  std::vector<Message> TakeQueue();

  int64_t remaining_budget() const { return remaining_; }
  int64_t tick_budget() const { return tick_budget_; }
  size_t queue_size() const { return queue_.size(); }
  size_t max_queue_size() const { return max_queue_size_; }
  const std::string& name() const { return name_; }
  double average_bandwidth() const { return bandwidth_->average(); }

  /// Cumulative used/offered capacity across ticks.
  const UtilizationStat& utilization() const { return utilization_; }
  /// Queue length sampled at each BeginTick.
  const RunningStat& queue_length_stat() const { return queue_length_stat_; }
  int64_t messages_delivered() const { return messages_delivered_; }
  int64_t messages_dropped() const { return messages_dropped_; }
  /// Bandwidth units spent by DeliverQueued transmissions, split by traffic
  /// class: pull responses (Message::is_pull) vs everything else ("push" —
  /// refreshes and poll responses). Lost transmissions count too (their
  /// cost was spent); budget consumed outside the queue (feedback or pull
  /// requests via ConsumeBudget/TryConsumeAllowingDeficit) is not included.
  int64_t pull_units_delivered() const { return pull_units_delivered_; }
  int64_t push_units_delivered() const { return push_units_delivered_; }

  /// Resets statistics (e.g. at the end of the warm-up period). The queue
  /// contents and budget state are preserved.
  void ResetStats();

 private:
  /// Records a kDrop event for `message` (callers test trace_ first).
  /// `blackholed` distinguishes down-link blackholing (aux=1) from random
  /// loss (aux=0).
  void RecordDrop(const Message& message, bool blackholed);

  std::string name_;
  std::unique_ptr<BandwidthModel> bandwidth_;
  std::deque<Message> queue_;
  int64_t tick_budget_ = 0;
  int64_t remaining_ = 0;
  /// `remaining_` as of the last BeginTick (== tick_budget_ minus any
  /// deficit carried in); the baseline utilization is measured against.
  int64_t tick_start_remaining_ = 0;
  int64_t messages_delivered_ = 0;
  int64_t messages_dropped_ = 0;
  int64_t pull_units_delivered_ = 0;
  int64_t push_units_delivered_ = 0;
  size_t max_queue_size_ = 0;
  UtilizationStat utilization_;
  RunningStat queue_length_stat_;
  bool in_tick_ = false;
  double loss_rate_ = 0.0;
  Rng loss_rng_{0};
  bool down_ = false;
  double bandwidth_factor_ = 1.0;
  int64_t messages_blackholed_ = 0;
  /// Drop tracing; null unless observability tracing is on.
  TraceBuffer* trace_ = nullptr;
  int32_t trace_node_ = -1;
  double trace_now_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_NET_LINK_H_
