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
