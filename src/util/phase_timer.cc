#include "util/phase_timer.h"

#include <chrono>

namespace besync {

PhaseTimer::Snapshot PhaseTimer::TakeSnapshot() const {
  Snapshot snapshot;
  for (int phase = 0; phase < kNumPhases; ++phase) {
    snapshot.nanos[phase] = nanos_[phase];
  }
  return snapshot;
}

PhaseTimer::Snapshot PhaseTimer::Delta(const Snapshot& now,
                                       const Snapshot& prev) {
  Snapshot delta;
  for (int phase = 0; phase < kNumPhases; ++phase) {
    delta.nanos[phase] = now.nanos[phase] - prev.nanos[phase];
  }
  return delta;
}

const char* PhaseTimer::Name(Phase phase) {
  switch (phase) {
    case Phase::kBeginTick:
      return "begin_tick";
    case Phase::kSend:
      return "send";
    case Phase::kRelay:
      return "relay";
    case Phase::kDeliverApply:
      return "deliver_apply";
    case Phase::kReadPath:
      return "read_path";
    case Phase::kFeedback:
      return "feedback";
  }
  return "unknown";
}

int64_t PhaseTimer::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace besync
