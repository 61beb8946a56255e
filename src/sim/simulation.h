#ifndef BESYNC_SIM_SIMULATION_H_
#define BESYNC_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>

#include "util/timer_wheel.h"

namespace besync {

/// Event kinds of the engine. An event is a (time, kind, payload) triple;
/// the kind selects one handler registered once per simulation, and the
/// 56-bit payload says what the handler acts on.
enum EventKind : uint8_t {
  /// Harness: the next update of one object (payload = ObjectIndex).
  kObjectUpdateEvent = 0,
  /// SourceAgent: one divergence sample (payload = source index and the
  /// agent's flat (channel, slot) id; see core/source.h).
  kSampleEvent = 1,
};

/// Level-0 bucket width of the simulation's timer wheel, in simulated
/// seconds. The pop order is (time, seq) whatever the width (the exactness
/// argument in util/timer_wheel.h never uses it); the width sets only how
/// many pending events share the near heap, and so how deep every pop sifts.
/// At 1 s, `update_heavy`'s near heap held a whole second of updates (~30k
/// items, 720 KB); at 1/64 s it holds ~470 (DESIGN.md, "Event-wheel bucket
/// width").
constexpr double kEventBucketWidth = 1.0 / 64.0;

/// Handler of one event kind: receives the context it was registered with,
/// the event's payload and the event's timestamp.
using EventHandler = void (*)(void* context, uint64_t payload, double time);

/// Optional look-ahead hook of one event kind: receives the context the kind
/// was registered with and the payload of an event that fires soon —
/// `fires_next` is true for the event due right after the one now firing,
/// false for a candidate for the one after that. It may only issue cache
/// prefetches (`__builtin_prefetch`) and must not change any state: whether
/// an event is announced at all depends on where it sits in the timer wheel
/// (only near-heap events are), not on the simulated history alone.
using EventPrefetcher = void (*)(void* context, uint64_t payload, bool fires_next);

/// Discrete event simulation driver.
///
/// The besync evaluation uses a hybrid scheme: object updates are scheduled
/// as continuous-time events, while scheduling decisions, network pumping and
/// feedback happen on fixed ticks driven by the caller:
///
///   Simulation sim;
///   sim.RegisterHandler(kObjectUpdateEvent, &OnUpdate, &state);
///   sim.ScheduleAt(0.37, kObjectUpdateEvent, object_index);
///   while (sim.now() < end) {
///     sim.RunUntil(sim.now() + tick);   // fire all events in the tick
///     DoTickWork(sim.now());            // scheduling / network / stats
///   }
///
/// Events are typed keys in a timer wheel (util/timer_wheel.h), not
/// closures: scheduling stores 24 bytes and firing is one indirect call
/// through the handler table. Events pop in exact (time, insertion-sequence)
/// order, so events at one instant fire first-scheduled first whatever
/// their kinds.
///
/// Dispatch is software-pipelined: after popping event k and before firing
/// it, the simulation peeks at the wheel's near heap (TimerWheel::PeekNear) and
/// hands event k+1 (the head) and the candidates for k+2 (the head's two
/// children) to their kinds' prefetchers, so the records those events touch
/// load while event k runs. Prefetching never changes what fires or when.
class Simulation {
 public:
  /// Size of the handler table; kinds are 0 .. kMaxEventKinds-1.
  static constexpr int kMaxEventKinds = 8;

  Simulation() = default;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (seconds).
  double now() const { return now_; }

  /// Installs the handler of `kind`, and optionally its prefetcher. Each
  /// kind is registered at most once per simulation; `context` must outlive
  /// every event of the kind.
  void RegisterHandler(uint8_t kind, EventHandler handler, void* context,
                       EventPrefetcher prefetcher = nullptr);
  bool has_handler(uint8_t kind) const {
    return kind < kMaxEventKinds && handlers_[kind].fn != nullptr;
  }

  /// Schedules a `kind` event carrying `payload` (< 2^56) at absolute time
  /// `time` (must be >= now()). The kind's handler must be registered
  /// before the event fires.
  void ScheduleAt(double time, uint8_t kind, uint64_t payload);

  /// Schedules a `kind` event `delay` seconds from now (delay >= 0).
  void ScheduleAfter(double delay, uint8_t kind, uint64_t payload);

  /// Fires all events with timestamp <= `time` in order, then advances the
  /// clock to exactly `time`. Events scheduled while running (with timestamps
  /// <= `time`) fire within the same call.
  void RunUntil(double time);

  /// Fires the single earliest event, if any; returns whether one fired.
  bool Step();

  size_t pending_events() const { return wheel_.size(); }
  uint64_t events_fired() const { return events_fired_; }

 private:
  struct Handler {
    EventHandler fn = nullptr;
    void* context = nullptr;
    EventPrefetcher prefetch = nullptr;
  };

  /// Passes the near heap's head and its children to their kinds'
  /// prefetchers; called between popping an event and firing it.
  void Lookahead() const;

  /// Advances the clock to the popped event and calls its kind's handler.
  void Fire(double time, TimerKey key);

  TimerWheel wheel_{TimerWheel::Options{kEventBucketWidth}};
  Handler handlers_[kMaxEventKinds];
  double now_ = 0.0;
  uint64_t events_fired_ = 0;
};

}  // namespace besync

#endif  // BESYNC_SIM_SIMULATION_H_
