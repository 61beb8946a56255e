#ifndef BESYNC_UTIL_PHASE_TIMER_H_
#define BESYNC_UTIL_PHASE_TIMER_H_

#include <cstdint>

namespace besync {

/// Wall-clock accumulator for the cooperative tick's phases: each phase of
/// every tick adds its duration. hostbench (hostbench/hostbench.cc) attaches
/// one per run and snapshots it around every Tick to split the tick's wall
/// time into named spans. One timer serves one run on one thread, so the
/// accumulators are plain integers. The numbers are wall times and
/// therefore nondeterministic — they never enter run results.
///
/// A null-timer Scope is a branch and nothing else, so wiring the timer
/// through the hot loop costs nothing when profiling is off.
class PhaseTimer {
 public:
  /// The tick phases of core/system.cc's CooperativeScheduler::Tick, in
  /// execution order. kBeginTick covers fault application, link advancement
  /// and the control-mail drain; kSend covers recovery + send phases (push
  /// or invalidation); kDeliverApply covers the delivery pop and the
  /// cache-major apply; kReadPath covers reads + pull requests; kFeedback
  /// the surplus-feedback phase.
  enum class Phase : int {
    kBeginTick = 0,
    kSend,
    kRelay,
    kDeliverApply,
    kReadPath,
    kFeedback,
  };
  static constexpr int kNumPhases = 6;

  PhaseTimer() = default;
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  void Add(Phase phase, int64_t nanos) { nanos_[static_cast<int>(phase)] += nanos; }

  /// A copy of the accumulators. Snapshot at the edges of a window (e.g.
  /// one tick) and Delta() the two for that window's per-phase cost.
  struct Snapshot {
    int64_t nanos[kNumPhases] = {};
  };
  Snapshot TakeSnapshot() const;
  /// Per-phase `now - prev` (the cost of the window between two snapshots).
  static Snapshot Delta(const Snapshot& now, const Snapshot& prev);

  /// Stable snake_case phase name ("begin_tick", "send", "relay",
  /// "deliver_apply", "read_path", "feedback").
  static const char* Name(Phase phase);

  /// Monotonic now, in nanoseconds.
  static int64_t NowNanos();

  /// RAII phase section: measures construction-to-destruction and adds it
  /// to `timer`. A null timer skips the clock reads entirely.
  class Scope {
   public:
    Scope(PhaseTimer* timer, Phase phase) : timer_(timer), phase_(phase) {
      if (timer_ != nullptr) start_ = NowNanos();
    }
    ~Scope() {
      if (timer_ != nullptr) timer_->Add(phase_, NowNanos() - start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimer* timer_;
    Phase phase_;
    int64_t start_ = 0;
  };

 private:
  int64_t nanos_[kNumPhases] = {};
};

}  // namespace besync

#endif  // BESYNC_UTIL_PHASE_TIMER_H_
