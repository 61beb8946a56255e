#include "obs/trace.h"

#include <algorithm>
#include <tuple>

namespace besync {
namespace {

/// Tick-phase slices are emitted for at most this many ticks inside the
/// trace window (they exist to show cadence, not to be exhaustive).
constexpr int kMaxPhaseSliceTicks = 2000;

}  // namespace

const char* TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kSend:
      return "send";
    case TraceEventKind::kRelayStore:
      return "relay_store";
    case TraceEventKind::kRelayForward:
      return "relay_forward";
    case TraceEventKind::kDeliver:
      return "deliver";
    case TraceEventKind::kApply:
      return "apply";
    case TraceEventKind::kPullRequest:
      return "pull_request";
    case TraceEventKind::kInvalidateSend:
      return "invalidate_send";
    case TraceEventKind::kInvalidateApply:
      return "invalidate_apply";
    case TraceEventKind::kEvict:
      return "evict";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kFault:
      return "fault";
    case TraceEventKind::kResyncStart:
      return "resync_start";
    case TraceEventKind::kResyncDone:
      return "resync_done";
  }
  return "unknown";
}

ObsCollector::ObsCollector(const ObsConfig& config, int num_sources,
                           int num_caches, int num_relays, double tick_length)
    : config_(config),
      filter_{config.trace_start, config.trace_end},
      num_sources_(num_sources),
      num_caches_(num_caches),
      tick_length_(tick_length) {
  if (config_.trace) {
    buffers_.resize(1 + static_cast<size_t>(num_sources) + num_caches +
                    num_relays);
    for (TraceBuffer& buffer : buffers_) {
      buffer.Init(&filter_);
    }
  }
}

void ObsCollector::NoteTick(double t) {
  if (!config_.trace) return;
  if (static_cast<int>(tick_times_.size()) >= kMaxPhaseSliceTicks) return;
  if (!filter_.PassTime(t)) return;
  tick_times_.push_back(t);
}

std::shared_ptr<ObsOutput> ObsCollector::Finish() {
  auto output = std::make_shared<ObsOutput>();
  output->series = std::move(series_);
  output->tick_times = std::move(tick_times_);
  output->tick_length = tick_length_;
  output->num_caches = num_caches_;

  // Merge: concatenate in buffer order (main, sources, caches, relays —
  // each buffer internally in record order), then stable-sort on keys that
  // are all functions of the event itself. Ties beyond the key keep the
  // concatenation order, i.e. (buffer id, in-buffer sequence).
  size_t total = 0;
  for (const TraceBuffer& buffer : buffers_) {
    total += buffer.events().size();
    output->trace_dropped += buffer.dropped();
  }
  output->trace.reserve(total);
  for (const TraceBuffer& buffer : buffers_) {
    output->trace.insert(output->trace.end(), buffer.events().begin(),
                         buffer.events().end());
  }
  buffers_.clear();
  std::stable_sort(output->trace.begin(), output->trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.t, a.kind, a.cache, a.node, a.source,
                                     a.object, a.version) <
                            std::tie(b.t, b.kind, b.cache, b.node, b.source,
                                     b.object, b.version);
                   });
  if (static_cast<int64_t>(output->trace.size()) > kMaxTraceEvents) {
    output->trace_dropped += static_cast<int64_t>(output->trace.size()) - kMaxTraceEvents;
    output->trace.resize(static_cast<size_t>(kMaxTraceEvents));
  }
  return output;
}

}  // namespace besync
