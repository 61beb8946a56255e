#include "core/relay.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {

std::string RelayForwardPolicyToString(RelayForwardPolicy policy) {
  switch (policy) {
    case RelayForwardPolicy::kFifo:
      return "fifo";
    case RelayForwardPolicy::kPriority:
      return "priority";
  }
  return "unknown";
}

RelayAgent::RelayAgent(int32_t node_id, RelayForwardPolicy policy,
                       double ingress_latency, MessagePool* pool)
    : node_id_(node_id), policy_(policy), ingress_latency_(ingress_latency), pool_(pool) {
  BESYNC_CHECK_GE(ingress_latency, 0.0);
  BESYNC_CHECK(pool_ != nullptr);
}

void RelayAgent::RecordTrace(TraceEventKind kind, const Message& message,
                             double t, double value) {
  TraceEvent event;
  event.kind = kind;
  event.t = t;
  event.node = node_id_;
  event.source = message.source_index;
  event.cache = message.cache_id;
  event.object = message.object_index;
  event.version = message.version;
  event.is_pull = message.is_pull;
  event.value = value;
  trace_->Record(event);
}

void RelayAgent::OnArrival(MessageHandle handle, double t) {
  const Message& message = (*pool_)[handle];
  if (trace_ != nullptr) {
    RecordTrace(TraceEventKind::kRelayStore, message, t, /*value=*/0.0);
  }
  store_.push_back(Stored{t, message.forward_priority, handle});
  max_store_size_ = std::max(max_store_size_, store_size());
}

void RelayAgent::PromoteEligible(double now) {
  while (num_ready_ < store_.size() &&
         store_[num_ready_].arrival + ingress_latency_ <= now) {
    ++num_ready_;
  }
}

size_t RelayAgent::PickNext() const {
  if (policy_ == RelayForwardPolicy::kFifo) return 0;
  size_t best = 0;
  for (size_t i = 1; i < num_ready_; ++i) {
    // Strictly-greater keeps arrival order among equal priorities (the
    // store is in arrival order).
    if (store_[i].forward_priority > store_[best].forward_priority) best = i;
  }
  return best;
}

int64_t RelayAgent::Forward(double now,
                            const std::function<bool(int64_t)>& try_consume,
                            const std::function<void(MessageHandle)>& forward) {
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

std::vector<MessageHandle> RelayAgent::TakeStored() {
  std::vector<MessageHandle> taken;
  taken.reserve(store_.size());
  for (size_t i = 0; i < store_.size(); ++i) taken.push_back(store_[i].handle);
  store_.clear();
  num_ready_ = 0;
  return taken;
}

void RelayAgent::ResetStats() {
  total_queue_delay_ = 0.0;
  total_transit_delay_ = 0.0;
  max_store_size_ = store_size();
}

}  // namespace besync
