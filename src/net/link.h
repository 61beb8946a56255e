#ifndef BESYNC_NET_LINK_H_
#define BESYNC_NET_LINK_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/bandwidth.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/ring.h"
#include "util/stats.h"

namespace besync {

/// A bandwidth-constrained link with a FIFO queue, operated in per-tick
/// budget mode. Implements the paper's "standard underlying network model
/// where any messages for which there is not enough capacity become enqueued
/// for later transmission" (Section 1.2).
///
/// The queue holds handles into a MessagePool: the Network's, shared by
/// every link and relay of one network so a message crosses hops without a
/// copy, or a private one for a standalone link (pass none).
///
/// Per tick, the owner calls BeginTick() to establish the message budget,
/// then any mix of:
///  - Emplace()       -- write a message into its pool slot and add it to the
///                       FIFO (no budget consumed yet),
///  - DeliverQueued() -- deliver queued messages up to the remaining budget,
///  - ConsumeBudget() -- spend budget on unqueued traffic (e.g. the cache
///                       spending surplus capacity on feedback messages).
class Link {
 public:
  Link(std::string name, std::unique_ptr<BandwidthModel> bandwidth,
       MessagePool* pool = nullptr);

  /// Starts a new tick: computes the tick's budget and records queue stats.
  /// Debt from a transmission that spilled past the previous tick carries
  /// over (large messages occupy the link across ticks).
  void BeginTick(double tick_start, double tick_len);

  /// Flushes the in-progress tick's usage into the utilization stat (a
  /// tick is otherwise only accounted at the *next* BeginTick, so the last
  /// tick of a run would go missing). Idempotent; call at end of run.
  void FinishTick();

  /// Writes a new message where it will stay: `fill(Message&)` fills a
  /// pool slot that holds a default Message, and the message joins the
  /// FIFO. While the link is down the message is still written (the
  /// sender's bookkeeping runs in `fill`), then blackholed: counted,
  /// traced and its slot released.
  template <typename Fill>
  void Emplace(Fill&& fill) {
    const MessageHandle handle = pool_->Acquire();
    fill((*pool_)[handle]);
    EnqueueHandle(handle);
  }
  /// Adds a message already in the pool (a hop of a relayed message); the
  /// link owns the handle from here on and releases it if it blackholes.
  void EnqueueHandle(MessageHandle handle);

  /// Delivers queued messages (FIFO) while budget remains, invoking `sink`
  /// for each; a message's `cost` is charged in full when its transmission
  /// starts, possibly driving the budget negative (the debt reduces the
  /// next tick's budget). Returns the number delivered. Messages may be
  /// dropped instead of delivered when a loss rate is configured (their
  /// cost is still spent — the transmission happened, the content was
  /// lost). The message leaves the network once `sink` returns.
  template <typename Sink>
  int64_t DeliverQueued(Sink&& sink) {
    return DeliverHandles([this, &sink](MessageHandle handle) {
      const Message& message = (*pool_)[handle];
      sink(message);
      pool_->Release(handle);
    });
  }

  /// DeliverQueued, handing `sink` each delivered message's handle instead:
  /// the sink owns it (a relay storing the message for its next hop).
  template <typename Sink>
  int64_t DeliverHandles(Sink&& sink) {
    int64_t delivered = 0;
    while (remaining_ > 0 && !queue_.empty()) {
      const MessageHandle handle = queue_.front();
      queue_.pop_front();
      const Message& message = (*pool_)[handle];
      const int64_t cost = std::max<int64_t>(message.cost, 1);
      remaining_ -= cost;
      (message.is_pull ? pull_units_delivered_ : push_units_delivered_) += cost;
      if (loss_rate_ > 0.0 && loss_rng_.Bernoulli(loss_rate_)) {
        ++messages_dropped_;
        if (trace_ != nullptr) RecordDrop(message, /*blackholed=*/false);
        pool_->Release(handle);
        continue;  // transmission spent, content lost
      }
      ++messages_delivered_;
      ++delivered;
      sink(handle);
    }
    return delivered;
  }

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

  /// Removes and returns every queued message's handle in FIFO order
  /// (relay failover: the caller re-routes or releases them per policy).
  /// Budget and statistics are untouched.
  std::vector<MessageHandle> TakeQueue();

  /// Calls `fn(const Message&)` on every queued message in FIFO order
  /// (tests and audits). Changes nothing.
  template <typename Fn>
  void ForEachQueued(Fn fn) const {
    for (size_t i = 0; i < queue_.size(); ++i) fn((*pool_)[queue_[i]]);
  }

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
  /// Set only for a standalone link; pool_ points at it then.
  std::unique_ptr<MessagePool> own_pool_;
  MessagePool* pool_;
  Ring<MessageHandle> queue_;
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
