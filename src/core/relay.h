#ifndef BESYNC_CORE_RELAY_H_
#define BESYNC_CORE_RELAY_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/message_pool.h"
#include "obs/trace.h"
#include "util/ring.h"

namespace besync {

/// Order in which a relay drains its store when forwarding downstream.
enum class RelayForwardPolicy {
  /// Arrival order. Preserves the per-leaf emission order exactly, so a
  /// pass-through FIFO relay is invisible (the degenerate-tree anchor).
  kFifo,
  /// Highest Message::forward_priority first (ties by arrival order): under
  /// egress pressure the relay keeps spending its budget on the refreshes
  /// the sources deemed most urgent, mirroring the paper's priority
  /// scheduling one tier up.
  kPriority,
};

std::string RelayForwardPolicyToString(RelayForwardPolicy policy);

/// One relay node in a multi-tier topology: receives refreshes off its
/// ingress edge, stores them, and forwards each downstream toward its
/// Message::cache_id leaf under the relay's own egress-link budget
/// (store-and-forward). A configurable ingress latency models the per-edge
/// propagation/processing delay: a message becomes eligible for forwarding
/// `latency` seconds after arrival. Time spent in the store is real
/// protocol lag — the leaf replica keeps diverging until the refresh lands,
/// so relay queueing delay flows into the divergence objective by
/// construction (see DESIGN.md).
///
/// The agent is network-agnostic: Forward() hands eligible messages to a
/// callback (wired by the scheduler to the next-hop edge link) once the
/// egress budget admits them, which keeps the class unit-testable. The
/// store holds handles into the network's MessagePool (`pool`), each with
/// its arrival time and forward priority, so ordering the store never reads
/// a message body.
class RelayAgent {
 public:
  RelayAgent(int32_t node_id, RelayForwardPolicy policy, double ingress_latency,
             MessagePool* pool);

  int32_t node_id() const { return node_id_; }
  RelayForwardPolicy policy() const { return policy_; }

  /// Observability wiring (obs/trace.h): records this relay's store and
  /// forward events into `trace`. Null (the default) disables recording at
  /// the cost of one pointer test per hook.
  void SetTraceBuffer(TraceBuffer* trace) { trace_ = trace; }

  /// Stores a refresh delivered off the ingress edge at time `t`; the relay
  /// owns `handle` until it forwards the message or hands it back.
  void OnArrival(MessageHandle handle, double t);

  /// Forwards stored, eligible messages in policy order while
  /// `try_consume(cost)` grants egress budget, invoking `forward(handle)`
  /// for each; the handle passes to `forward`. Returns the number
  /// forwarded. Messages denied budget stay stored for a later tick (and
  /// keep accruing queueing delay).
  template <typename TryConsume, typename ForwardFn>
  int64_t Forward(double now, TryConsume&& try_consume, ForwardFn&& forward) {
    PromoteEligible(now);
    int64_t sent = 0;
    while (num_ready_ > 0) {
      const size_t pick = PickNext();
      const Stored stored = store_[pick];
      const Message& message = (*pool_)[stored.handle];
      // Budget semantics mirror the source send phase: a large message may
      // start on the last sliver of budget and spill into the next tick
      // (deficit carryover at the egress link).
      if (!try_consume(std::max<int64_t>(message.cost, 1))) break;
      store_.erase(pick);
      --num_ready_;
      total_queue_delay_ += now - stored.arrival;
      total_transit_delay_ += now - message.send_time;
      ++sent;
      if (trace_ != nullptr) {
        RecordTrace(TraceEventKind::kRelayForward, message, now,
                    /*value=*/now - stored.arrival);
      }
      forward(stored.handle);
    }
    return sent;
  }

  // --- statistics ---
  size_t store_size() const { return store_.size(); }
  size_t max_store_size() const { return max_store_size_; }
  /// Total store wait (forward time - arrival time) over forwarded
  /// refreshes; divide by the forward count (the sum of Forward's return
  /// values) for the mean queueing delay. Zero as long as the egress budget
  /// keeps up with ingress deliveries.
  double total_queue_delay() const { return total_queue_delay_; }
  /// Total transit lag (forward time - Message::send_time) over forwarded
  /// refreshes — the full source-to-here latency including upstream link
  /// queueing, the component of leaf divergence the relay tier adds.
  double total_transit_delay() const { return total_transit_delay_; }

  /// Resets the store-wait sums and the store maximum (measurement start).
  /// Stored messages stay.
  void ResetStats();

  /// Removes and returns the handle of everything in the store, eligible
  /// or not, in arrival order — relay failover: the scheduler re-routes or
  /// releases the stranded refreshes per policy. Statistics are untouched.
  std::vector<MessageHandle> TakeStored();

 private:
  struct Stored {
    double arrival = 0.0;
    /// Message::forward_priority, copied so the kPriority scan reads only
    /// the store.
    double forward_priority = 0.0;
    MessageHandle handle = -1;
  };

  /// Extends the eligible prefix over the stored messages whose latency
  /// has elapsed.
  void PromoteEligible(double now);
  /// Store index of the next eligible message to forward under the policy.
  size_t PickNext() const;

  /// Records one store/forward event into trace_ (callers test trace_
  /// first). `value` carries the store wait for forward events.
  void RecordTrace(TraceEventKind kind, const Message& message, double t,
                   double value);

  int32_t node_id_;
  RelayForwardPolicy policy_;
  double ingress_latency_;
  MessagePool* pool_;
  /// This relay's trace buffer; null unless observability tracing is on.
  TraceBuffer* trace_ = nullptr;
  /// Stored messages in arrival order. Arrivals are time-ordered, so
  /// eligibility times are nondecreasing and the first num_ready_ entries
  /// are the ones whose ingress latency has elapsed. FIFO drains the front;
  /// priority scans that prefix for the maximum forward_priority (stores
  /// stay small relative to the per-tick work, and eligibility cutoffs make
  /// a heap awkward).
  Ring<Stored> store_;
  size_t num_ready_ = 0;
  size_t max_store_size_ = 0;
  double total_queue_delay_ = 0.0;
  double total_transit_delay_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_CORE_RELAY_H_
