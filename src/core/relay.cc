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
                       double ingress_latency)
    : node_id_(node_id), policy_(policy), ingress_latency_(ingress_latency) {
  BESYNC_CHECK_GE(ingress_latency, 0.0);
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

void RelayAgent::OnArrival(const Message& message, double t) {
  if (trace_ != nullptr) {
    RecordTrace(TraceEventKind::kRelayStore, message, t, /*value=*/0.0);
  }
  pending_.push_back(Stored{message, t, next_seq_++});
  max_store_size_ = std::max(max_store_size_, store_size());
}

void RelayAgent::PromoteEligible(double now) {
  while (!pending_.empty() &&
         pending_.front().arrival + ingress_latency_ <= now) {
    ready_.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
}

size_t RelayAgent::PickNext() const {
  if (policy_ == RelayForwardPolicy::kFifo) return 0;
  size_t best = 0;
  for (size_t i = 1; i < ready_.size(); ++i) {
    // Strictly-greater keeps arrival order among equal priorities (seq is
    // ascending along the deque).
    if (ready_[i].message.forward_priority >
        ready_[best].message.forward_priority) {
      best = i;
    }
  }
  return best;
}

int64_t RelayAgent::Forward(double now,
                            const std::function<bool(int64_t)>& try_consume,
                            const std::function<void(const Message&)>& forward) {
  PromoteEligible(now);
  int64_t sent = 0;
  while (!ready_.empty()) {
    const size_t pick = PickNext();
    // Budget semantics mirror the source send phase: a large message may
    // start on the last sliver of budget and spill into the next tick
    // (deficit carryover at the egress link).
    if (!try_consume(std::max<int64_t>(ready_[pick].message.cost, 1))) break;
    Stored stored = std::move(ready_[pick]);
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pick));
    total_queue_delay_ += now - stored.arrival;
    total_transit_delay_ += now - stored.message.send_time;
    ++sent;
    if (trace_ != nullptr) {
      RecordTrace(TraceEventKind::kRelayForward, stored.message, now,
                  /*value=*/now - stored.arrival);
    }
    forward(stored.message);
  }
  return sent;
}

std::vector<Message> RelayAgent::TakeStored() {
  // ready_ messages arrived before anything still in pending_, so ready_
  // then pending_ is arrival order.
  std::vector<Message> taken;
  taken.reserve(ready_.size() + pending_.size());
  for (Stored& stored : ready_) taken.push_back(std::move(stored.message));
  for (Stored& stored : pending_) taken.push_back(std::move(stored.message));
  ready_.clear();
  pending_.clear();
  return taken;
}

void RelayAgent::ResetStats() {
  total_queue_delay_ = 0.0;
  total_transit_delay_ = 0.0;
  max_store_size_ = store_size();
}

}  // namespace besync
