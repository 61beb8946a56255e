#ifndef BESYNC_CORE_RELAY_H_
#define BESYNC_CORE_RELAY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/message.h"
#include "obs/trace.h"

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
/// egress budget admits them, which keeps the class unit-testable.
class RelayAgent {
 public:
  RelayAgent(int32_t node_id, RelayForwardPolicy policy, double ingress_latency);

  int32_t node_id() const { return node_id_; }
  RelayForwardPolicy policy() const { return policy_; }

  /// Observability wiring (obs/trace.h): records this relay's store and
  /// forward events into `trace`. Null (the default) disables recording at
  /// the cost of one pointer test per hook.
  void SetTraceBuffer(TraceBuffer* trace) { trace_ = trace; }

  /// Stores a refresh delivered off the ingress edge at time `t`.
  void OnArrival(const Message& message, double t);

  /// Forwards stored, eligible messages in policy order while
  /// `try_consume(cost)` grants egress budget, invoking `forward` for each.
  /// Returns the number forwarded. Messages denied budget stay stored for a
  /// later tick (and keep accruing queueing delay).
  int64_t Forward(double now, const std::function<bool(int64_t)>& try_consume,
                  const std::function<void(const Message&)>& forward);

  // --- statistics ---
  size_t store_size() const { return pending_.size() + ready_.size(); }
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

  /// Removes and returns everything in the store (pending + ready) in
  /// arrival (seq) order — relay failover: the scheduler re-routes or drops
  /// the stranded refreshes per policy. Statistics are untouched.
  std::vector<Message> TakeStored();

 private:
  struct Stored {
    Message message;
    double arrival = 0.0;
    uint64_t seq = 0;
  };

  /// Moves messages whose latency has elapsed from pending_ into ready_.
  void PromoteEligible(double now);
  /// Index of the next ready_ message to forward under the policy.
  size_t PickNext() const;

  /// Records one store/forward event into trace_ (callers test trace_
  /// first). `value` carries the store wait for forward events.
  void RecordTrace(TraceEventKind kind, const Message& message, double t,
                   double value);

  int32_t node_id_;
  RelayForwardPolicy policy_;
  double ingress_latency_;
  /// This relay's trace buffer; null unless observability tracing is on.
  TraceBuffer* trace_ = nullptr;
  uint64_t next_seq_ = 0;
  /// Awaiting the ingress latency, in arrival order (arrivals are
  /// time-ordered, so eligibility times are nondecreasing).
  std::deque<Stored> pending_;
  /// Eligible for forwarding. FIFO drains the front; priority scans for the
  /// maximum forward_priority (stores stay small relative to the per-tick
  /// work, and eligibility cutoffs make a heap awkward).
  std::deque<Stored> ready_;
  size_t max_store_size_ = 0;
  double total_queue_delay_ = 0.0;
  double total_transit_delay_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_CORE_RELAY_H_
