#include "util/timer_wheel.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace besync {
namespace {

// Saturation bound for bucket indices: far enough out that no simulation
// reaches it, small enough that bucket arithmetic (+slots_) cannot
// overflow. Bucketing stays monotone under saturation, which is all the
// exactness argument needs (ties inside one bucket are settled by the
// near heap on actual (time, seq)).
constexpr double kMaxBucket = 9.0e15;

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

TimerWheel::TimerWheel(Options options)
    : resolution_(options.resolution),
      slots_(options.level_slots),
      level0_(options.level_slots),
      level1_(options.level_slots),
      cur_bucket_(-1) {
  BESYNC_CHECK(resolution_ > 0.0) << "wheel resolution must be positive";
  BESYNC_CHECK(slots_ >= 2) << "wheel needs at least 2 slots per level";
}

int64_t TimerWheel::BucketOf(double time) const {
  const double bucket = std::floor(time / resolution_);
  if (bucket >= kMaxBucket) return static_cast<int64_t>(kMaxBucket);
  if (bucket <= -kMaxBucket) return -static_cast<int64_t>(kMaxBucket);
  return static_cast<int64_t>(bucket);
}

void TimerWheel::Push(double time, TimerKey key) {
  ++size_;
  Route(Item{time, next_seq_++, key});
}

void TimerWheel::Route(const Item& item) {
  const int64_t bucket = BucketOf(item.time);
  if (bucket <= cur_bucket_) {
    near_.push_back(item);
    std::push_heap(near_.begin(), near_.end(), LaterCmp{});
    return;
  }
  if (bucket - cur_bucket_ <= slots_) {
    level0_[bucket % slots_].push_back(item);
    ++level0_count_;
    return;
  }
  const int64_t b1 = FloorDiv(bucket, slots_);
  if (b1 - FloorDiv(cur_bucket_, slots_) <= slots_) {
    level1_[b1 % slots_].push_back(item);
    ++level1_count_;
    return;
  }
  if (far_.empty() || item.time < far_min_time_) far_min_time_ = item.time;
  far_.push_back(item);
}

void TimerWheel::Cascade(int64_t b1) {
  std::vector<Item>& bucket = level1_[b1 % slots_];
  if (!bucket.empty()) {
    level1_count_ -= bucket.size();
    for (const Item& item : bucket) Route(item);
    bucket.clear();
  }
  // The level-1 horizon just grew by one bucket: far timers it now covers
  // must join the wheels, or later pushes into that bucket would pop ahead
  // of them.
  if (!far_.empty() &&
      FloorDiv(BucketOf(far_min_time_), slots_) - b1 <= slots_) {
    RouteFar();
  }
}

void TimerWheel::RouteFar() {
  std::vector<Item> pending;
  pending.swap(far_);
  for (const Item& item : pending) Route(item);
}

void TimerWheel::Prepare() {
  while (near_.empty()) {
    if (level0_count_ > 0) {
      // Step one bucket: cascade on level-1 boundary crossings, then drain
      // the bucket that just entered the near region.
      ++cur_bucket_;
      if (cur_bucket_ % slots_ == 0) Cascade(FloorDiv(cur_bucket_, slots_));
      std::vector<Item>& bucket = level0_[cur_bucket_ % slots_];
      level0_count_ -= bucket.size();
      for (const Item& item : bucket) {
        near_.push_back(item);
        std::push_heap(near_.begin(), near_.end(), LaterCmp{});
      }
      bucket.clear();
    } else if (level1_count_ > 0) {
      // Level 0 is dry: jump straight to the next level-1 boundary.
      cur_bucket_ = (FloorDiv(cur_bucket_, slots_) + 1) * slots_;
      Cascade(FloorDiv(cur_bucket_, slots_));
    } else {
      // Wheels are dry: jump to the far list's minimum and re-bucket it.
      BESYNC_CHECK(!far_.empty()) << "TimerWheel::Prepare on an empty wheel";
      cur_bucket_ = BucketOf(far_min_time_) - 1;
      RouteFar();
    }
  }
}

double TimerWheel::NextTime() {
  BESYNC_CHECK(size_ > 0) << "TimerWheel::NextTime on an empty wheel";
  Prepare();
  return near_.front().time;
}

void TimerWheel::PopInto(double* time, TimerKey* key) {
  BESYNC_CHECK(size_ > 0) << "TimerWheel::PopInto on an empty wheel";
  Prepare();
  std::pop_heap(near_.begin(), near_.end(), LaterCmp{});
  const Item item = near_.back();
  near_.pop_back();
  *time = item.time;
  *key = item.key;
  --size_;
}

}  // namespace besync
