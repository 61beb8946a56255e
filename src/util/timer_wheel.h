#ifndef BESYNC_UTIL_TIMER_WHEEL_H_
#define BESYNC_UTIL_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace besync {

/// A timer's identity: an 8-bit kind in the top byte and a 56-bit payload
/// below it. The wheel never interprets a key; Simulation (sim/simulation.h)
/// uses the kind to pick a handler and hands it the payload.
using TimerKey = uint64_t;

constexpr int kTimerPayloadBits = 56;
constexpr uint64_t kMaxTimerPayload = (uint64_t{1} << kTimerPayloadBits) - 1;

/// Packs (kind, payload); `payload` must fit in 56 bits.
constexpr TimerKey MakeTimerKey(uint8_t kind, uint64_t payload) {
  return (static_cast<uint64_t>(kind) << kTimerPayloadBits) | payload;
}
constexpr uint8_t TimerKeyKind(TimerKey key) {
  return static_cast<uint8_t>(key >> kTimerPayloadBits);
}
constexpr uint64_t TimerKeyPayload(TimerKey key) { return key & kMaxTimerPayload; }

/// Hierarchical timer wheel with an *exact* global pop order: timers pop in
/// strictly increasing (time, insertion-sequence) order — bit-for-bit the
/// order a binary min-heap with a FIFO tie-break produces — while Push costs
/// O(1) instead of O(log n). With ~1M scheduled object updates in flight,
/// the heap's log-factor (and its cache-hostile sift paths) is a measurable
/// slice of every simulated tick; the wheel replaces it with an append to a
/// bucket.
///
/// Structure (continuous double timestamps, bucketed at `resolution` r with
/// N = `level_slots` slots per level):
///   - near heap: every timer whose level-0 bucket index floor(t/r) is at or
///     before the current bucket. This is the only region ordered by
///     (time, seq), and it is a plain binary heap.
///   - level 0: the next N buckets of width r, unsorted vectors.
///   - level 1: the next N buckets of width N*r, unsorted.
///   - far list: everything beyond the level-1 horizon, with a cached
///     minimum time; re-routed wholesale as soon as the advancing level-1
///     horizon covers that minimum (or the wheels run dry), so a far timer
///     is never overtaken by a later push into the wheels.
///
/// Exactness argument: floor-bucketing partitions the time axis, so every
/// timer outside the near heap has time >= (current bucket + 1) * r, which
/// is strictly greater than every near-heap timer's time. Popping the near
/// heap to exhaustion before advancing the wheel therefore always pops the
/// global (time, seq) minimum, and timers with equal times share a bucket by
/// construction, so the heap's seq tie-break settles them exactly as the
/// monolithic heap did. Timers pushed at-or-before the current bucket
/// (including past times) go straight to the near heap, preserving the
/// invariant.
///
/// A timer is a 24-byte POD (time, seq, key): nothing type-erased is stored,
/// moved or destroyed per timer, so push and pop cost only the bucket
/// append and the near-heap sift.
///
/// Not thread-safe; one wheel per simulation.
class TimerWheel {
 public:
  struct Options {
    /// Level-0 bucket width in simulated seconds. Any positive value is
    /// correct (ordering never depends on it); it trades the near heap's
    /// size (every timer of the current bucket sits there, so each pop
    /// sifts log2 of it) against the empty buckets advancing steps over.
    /// Simulation uses kEventBucketWidth (sim/simulation.h).
    double resolution = 1.0;
    /// Slots per level (two levels: horizon = slots^2 * resolution).
    int level_slots = 256;
  };

  TimerWheel() : TimerWheel(Options{}) {}
  explicit TimerWheel(Options options);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  void Push(double time, TimerKey key);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Timestamp of the earliest timer; wheel must be non-empty. Non-const:
  /// may advance buckets into the near heap.
  double NextTime();

  /// Pops the earliest timer into (time, key); wheel must be non-empty.
  void PopInto(double* time, TimerKey* key);

  /// Pops the earliest timer into (time, key) if the wheel holds one with
  /// time <= `limit`, and returns whether it did: NextTime and PopInto in
  /// one step, so a drain loop advances the wheel once per timer.
  bool PopIfDue(double limit, double* time, TimerKey* key);

  /// Most keys PeekNear reports: the near heap's head and its two children.
  static constexpr int kPeekNear = 3;

  /// Look-ahead for prefetching. Copies the keys of the near heap's first
  /// min(near-heap size, kPeekNear) items into `keys` and returns how many.
  /// keys[0] is the head: the item the next PopInto returns unless a push
  /// lands ahead of it first. The rest are the head's heap children, and
  /// the item after the head is always one of them. Never advances the
  /// wheel, so it returns 0 whenever the near heap is drained, even with
  /// timers pending in the buckets.
  int PeekNear(TimerKey keys[kPeekNear]) const {
    const int n = near_.size() < kPeekNear ? static_cast<int>(near_.size()) : kPeekNear;
    for (int i = 0; i < n; ++i) keys[i] = near_[i].key;
    return n;
  }

 private:
  /// POD routed through buckets and the near heap.
  struct Item {
    double time;
    uint64_t seq;
    TimerKey key;
  };
  static_assert(sizeof(Item) == 24, "timer items stay 24 bytes");

  // Near-heap ordering: earlier time first; FIFO for equal times. A struct
  // (not a free function) so std::push_heap/pop_heap inline the comparison.
  struct LaterCmp {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  int64_t BucketOf(double time) const;

  /// Ensures the near heap holds the global minimum (fills it from the
  /// wheels/far list when empty). Requires size_ > 0.
  void Prepare();

  /// Moves every timer of level-1 bucket `b1` into level 0 / the near heap,
  /// then pulls in far timers the grown level-1 horizon now covers.
  void Cascade(int64_t b1);

  /// Places one timer by its bucket relative to cur_bucket_: near heap,
  /// level 0, level 1 or the far list.
  void Route(const Item& item);

  /// Re-routes the whole far list against the current horizon.
  void RouteFar();

  /// Pops the near heap's head; Prepare must have run.
  void PopNear(double* time, TimerKey* key);

  const double resolution_;
  const int64_t slots_;
  std::vector<Item> near_;                  // binary heap under LaterCmp
  std::vector<std::vector<Item>> level0_;   // bucket b at slot b % slots_
  std::vector<std::vector<Item>> level1_;
  std::vector<Item> far_;
  double far_min_time_ = 0.0;
  int64_t cur_bucket_;                      // near/wheel boundary (absolute)
  size_t level0_count_ = 0;
  size_t level1_count_ = 0;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_TIMER_WHEEL_H_
