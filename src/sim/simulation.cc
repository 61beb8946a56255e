#include "sim/simulation.h"

#include "util/logging.h"

namespace besync {

void Simulation::RegisterHandler(uint8_t kind, EventHandler handler, void* context) {
  BESYNC_CHECK_LT(static_cast<int>(kind), kMaxEventKinds);
  BESYNC_CHECK(handler != nullptr);
  BESYNC_CHECK(handlers_[kind].fn == nullptr)
      << "event kind " << static_cast<int>(kind) << " registered twice";
  handlers_[kind].fn = handler;
  handlers_[kind].context = context;
}

void Simulation::ScheduleAt(double time, uint8_t kind, uint64_t payload) {
  BESYNC_CHECK_GE(time, now_);
  BESYNC_DCHECK(payload <= kMaxTimerPayload);
  wheel_.Push(time, MakeTimerKey(kind, payload));
}

void Simulation::ScheduleAfter(double delay, uint8_t kind, uint64_t payload) {
  BESYNC_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, kind, payload);
}

void Simulation::Fire(double time, TimerKey key) {
  now_ = time;
  ++events_fired_;
  const uint8_t kind = TimerKeyKind(key);
  BESYNC_CHECK(kind < kMaxEventKinds && handlers_[kind].fn != nullptr)
      << "no handler for event kind " << static_cast<int>(kind);
  const Handler& handler = handlers_[kind];
  handler.fn(handler.context, TimerKeyPayload(key), time);
}

void Simulation::RunUntil(double time) {
  BESYNC_CHECK_GE(time, now_);
  while (!wheel_.empty() && wheel_.NextTime() <= time) {
    double event_time;
    TimerKey key;
    wheel_.PopInto(&event_time, &key);
    Fire(event_time, key);
  }
  now_ = time;
}

bool Simulation::Step() {
  if (wheel_.empty()) return false;
  double event_time;
  TimerKey key;
  wheel_.PopInto(&event_time, &key);
  BESYNC_CHECK_GE(event_time, now_);
  Fire(event_time, key);
  return true;
}

}  // namespace besync
