#include "util/timer_wheel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/random.h"

namespace besync {
namespace {

/// Reference implementation: the (time, insertion-seq) order the wheel must
/// reproduce exactly — a stable sort of the push stream by time.
struct Ref {
  double time;
  int id;
};

std::vector<int> StableOrder(std::vector<Ref> refs) {
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.time < b.time; });
  std::vector<int> ids;
  for (const Ref& ref : refs) ids.push_back(ref.id);
  return ids;
}

/// Pushes every (time, id) pair with the id as the key payload, then pops
/// the whole wheel and returns the ids in pop order, checking popped
/// timestamps are what was pushed.
std::vector<int> DrainOrder(TimerWheel* wheel, const std::vector<Ref>& refs) {
  std::vector<double> times(refs.size());
  std::vector<int> order;
  for (const Ref& ref : refs) {
    times[static_cast<size_t>(ref.id)] = ref.time;
    wheel->Push(ref.time, static_cast<TimerKey>(ref.id));
  }
  while (!wheel->empty()) {
    const double next = wheel->NextTime();
    double time = 0.0;
    TimerKey key = 0;
    wheel->PopInto(&time, &key);
    EXPECT_EQ(time, next);
    order.push_back(static_cast<int>(key));
    EXPECT_EQ(time, times[static_cast<size_t>(order.back())]);
  }
  return order;
}

TEST(TimerWheelTest, PopsInTimeOrderWithFifoTies) {
  TimerWheel wheel;
  const std::vector<Ref> refs = {
      {5.0, 0}, {1.0, 1}, {5.0, 2}, {0.25, 3}, {1.0, 4}, {5.0, 5}, {0.25, 6},
  };
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, CascadesAcrossLevelsExactly) {
  TimerWheel::Options options;
  options.resolution = 1.0;
  options.level_slots = 4;  // level-0 horizon 4s, level-1 horizon 16s
  TimerWheel wheel(options);
  std::vector<Ref> refs;
  int id = 0;
  // Spread timers across near, level 0, level 1, and the far list, with
  // deliberate duplicates straddling the level-1 bucket boundaries.
  for (double t : {0.5, 3.9, 4.0, 4.0, 7.5, 15.0, 16.0, 16.0, 63.0, 64.0,
                   200.0, 200.0, 17.25, 3.9}) {
    refs.push_back({t, id++});
  }
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, InterleavedPushAndPopKeepsGlobalOrder) {
  TimerWheel::Options options;
  options.level_slots = 8;
  TimerWheel wheel(options);
  std::vector<int> order;
  std::vector<Ref> refs;

  auto push = [&](double t) {
    const int id = static_cast<int>(refs.size());
    refs.push_back({t, id});
    wheel.Push(t, static_cast<TimerKey>(id));
  };
  auto pop = [&] {
    double time = 0.0;
    TimerKey key = 0;
    wheel.PopInto(&time, &key);
    order.push_back(static_cast<int>(key));
  };

  push(10.0);
  push(2.0);
  pop();  // 2.0 fires; wheel has advanced near bucket 2
  // Pushes at-or-before the current bucket must still pop before later ones.
  push(2.5);
  push(1.0);
  push(300.0);
  while (!wheel.empty()) pop();

  // Expected: 2.0 popped first, then a stable sort of what remained at each
  // pop. 1.0 was pushed after 2.0 fired, so it pops second (past-time
  // pushes are served immediately, not dropped).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0, 4}));
}

TEST(TimerWheelTest, RandomizedAgainstStableSort) {
  Rng rng(20260807);
  for (int round = 0; round < 20; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 2 == 0 ? 1.0 : 0.125;
    options.level_slots = round % 3 == 0 ? 4 : 32;
    TimerWheel wheel(options);
    std::vector<Ref> refs;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      // Mix of near, mid, far, and repeated times to force tie-breaks.
      double t = 0.0;
      switch (rng.UniformInt(0, 3)) {
        case 0: t = static_cast<double>(rng.UniformInt(0, 9)); break;
        case 1: t = rng.Uniform(0.0, 50.0); break;
        case 2: t = rng.Uniform(0.0, 5000.0); break;
        default: t = rng.Uniform(0.0, 2.0e6); break;
      }
      refs.push_back({t, i});
    }
    EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs)) << "round " << round;
  }
  // Rows at the simulation's width (kEventBucketWidth; 256 slots as in
  // Simulation, 4 to force cascades): equal-time bursts just below a bucket
  // edge, on it and just above it, pushed interleaved, so one instant's ties
  // and the two buckets they straddle must both come out in push order.
  for (int round = 0; round < 10; ++round) {
    TimerWheel::Options options;
    options.resolution = kEventBucketWidth;
    options.level_slots = round % 2 == 0 ? 256 : 4;
    TimerWheel wheel(options);
    std::vector<Ref> refs;
    int id = 0;
    while (id < 400) {
      const double edge =
          static_cast<double>(rng.UniformInt(0, 3000)) * kEventBucketWidth;
      if (rng.Bernoulli(0.7)) {
        const double near[3] = {std::nextafter(edge, -1.0), edge,
                                std::nextafter(edge, 1.0e9)};
        const int64_t burst = rng.UniformInt(3, 12);
        for (int64_t k = 0; k < burst; ++k) {
          refs.push_back({near[rng.UniformInt(0, 2)], id++});
        }
      } else {
        refs.push_back({edge + rng.Uniform(0.0, 1.0e4), id++});
      }
    }
    EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs)) << "width row " << round;
  }
}

TEST(TimerWheelTest, PopIfDueDrainsUpToTheLimitInOrder) {
  // PopIfDue(limit) pops exactly the timers a NextTime() <= limit /
  // PopInto loop pops, in the same order, across every region and at a
  // limit equal to a timer's time, and leaves the rest in place.
  Rng rng(20261019);
  for (int round = 0; round < 10; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 2 == 0 ? kEventBucketWidth : 1.0;
    options.level_slots = round % 3 == 0 ? 4 : 256;
    TimerWheel popped_if_due(options);
    TimerWheel reference(options);
    double time = 0.0;
    TimerKey key = 0;
    EXPECT_FALSE(popped_if_due.PopIfDue(1.0e9, &time, &key));
    std::vector<Ref> refs;
    for (int i = 0; i < 300; ++i) {
      const double t = rng.Bernoulli(0.2) ? static_cast<double>(rng.UniformInt(0, 40))
                                          : rng.Uniform(0.0, 3000.0);
      refs.push_back({t, i});
      popped_if_due.Push(t, static_cast<TimerKey>(i));
      reference.Push(t, static_cast<TimerKey>(i));
    }
    for (double limit : {-1.0, 0.0, 7.0, 7.0, 40.0, 999.5, 1.0e9}) {
      std::vector<TimerKey> got;
      std::vector<TimerKey> want;
      while (popped_if_due.PopIfDue(limit, &time, &key)) {
        EXPECT_LE(time, limit);
        EXPECT_EQ(time, refs[static_cast<size_t>(key)].time);
        got.push_back(key);
      }
      while (!reference.empty() && reference.NextTime() <= limit) {
        reference.PopInto(&time, &key);
        want.push_back(key);
      }
      EXPECT_EQ(got, want) << "round " << round << " limit " << limit;
      EXPECT_EQ(popped_if_due.size(), reference.size());
    }
    EXPECT_TRUE(popped_if_due.empty());
  }
}

TEST(TimerWheelTest, FarFutureTimersSurviveSaturation) {
  TimerWheel wheel;
  const std::vector<Ref> refs = {
      {1.0e18, 0}, {3.0, 1}, {1.0e18, 2}, {5.0e17, 3},
  };
  EXPECT_EQ(DrainOrder(&wheel, refs), StableOrder(refs));
}

TEST(TimerWheelTest, SizeTracksAcrossRegions) {
  TimerWheel::Options options;
  options.level_slots = 4;
  TimerWheel wheel(options);
  EXPECT_TRUE(wheel.empty());
  wheel.Push(0.5, 0);
  wheel.Push(10.0, 1);
  wheel.Push(1.0e6, 2);
  EXPECT_EQ(wheel.size(), 3u);
  double time = 0.0;
  TimerKey key = 0;
  wheel.PopInto(&time, &key);
  EXPECT_EQ(time, 0.5);
  EXPECT_EQ(wheel.size(), 2u);
  wheel.PopInto(&time, &key);
  wheel.PopInto(&time, &key);
  EXPECT_EQ(time, 1.0e6);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, KeyRoundTripsKindAndMaximumPayload) {
  for (uint8_t kind : {uint8_t{0}, uint8_t{1}, uint8_t{7}, uint8_t{255}}) {
    for (uint64_t payload : {uint64_t{0}, uint64_t{1}, kMaxTimerPayload}) {
      const TimerKey key = MakeTimerKey(kind, payload);
      EXPECT_EQ(TimerKeyKind(key), kind);
      EXPECT_EQ(TimerKeyPayload(key), payload);
    }
  }
  EXPECT_EQ(kMaxTimerPayload, (uint64_t{1} << 56) - 1);
  // The full key survives a trip through every wheel region untouched.
  TimerWheel::Options options;
  options.level_slots = 4;
  TimerWheel wheel(options);
  const TimerKey max_key = MakeTimerKey(255, kMaxTimerPayload);
  const TimerKey kinded = MakeTimerKey(1, kMaxTimerPayload - 1);
  wheel.Push(1.0e6, max_key);  // far list
  wheel.Push(9.0, kinded);     // level 1
  wheel.Push(0.5, 0);          // near heap
  double time = 0.0;
  TimerKey key = 1;
  wheel.PopInto(&time, &key);
  EXPECT_EQ(key, 0u);
  wheel.PopInto(&time, &key);
  EXPECT_EQ(key, kinded);
  wheel.PopInto(&time, &key);
  EXPECT_EQ(key, max_key);
  EXPECT_EQ(TimerKeyKind(key), 255);
  EXPECT_EQ(TimerKeyPayload(key), kMaxTimerPayload);
}

TEST(TimerWheelTest, InterleavedKindsAtEqualTimesPopInPushOrder) {
  // Two kinds pushed alternately at the same instants: the kind plays no
  // part in ordering, so each instant pops its keys in push order.
  TimerWheel wheel;
  std::vector<TimerKey> pushed;
  for (int round = 0; round < 3; ++round) {
    for (double t : {2.0, 0.5}) {
      for (uint64_t payload = 0; payload < 4; ++payload) {
        const TimerKey key = MakeTimerKey(payload % 2 == 0 ? 0 : 1,
                                          payload + 10 * static_cast<uint64_t>(round));
        wheel.Push(t, key);
        if (t == 0.5) pushed.push_back(key);
      }
    }
  }
  for (int round = 0; round < 3; ++round) {
    for (uint64_t payload = 0; payload < 4; ++payload) {
      pushed.push_back(MakeTimerKey(payload % 2 == 0 ? 0 : 1,
                                    payload + 10 * static_cast<uint64_t>(round)));
    }
  }
  std::vector<TimerKey> popped;
  while (!wheel.empty()) {
    double time = 0.0;
    TimerKey key = 0;
    wheel.PopInto(&time, &key);
    EXPECT_EQ(time, popped.size() < 12 ? 0.5 : 2.0);
    popped.push_back(key);
  }
  EXPECT_EQ(popped, pushed);
}

TEST(TimerWheelTest, RandomizedKeysAgainstHeapReference) {
  // A binary min-heap on (time, seq) — the order the wheel replaced — fed
  // the same interleaved push/pop stream of random keys, including past
  // pushes, ties and far-future times.
  struct Entry {
    double time;
    uint64_t seq;
    TimerKey key;
  };
  auto later = [](const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  };
  Rng rng(20261017);
  for (int round = 0; round < 20; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 2 == 0 ? 1.0 : 0.25;
    options.level_slots = round % 3 == 0 ? 4 : 16;
    TimerWheel wheel(options);
    std::vector<Entry> heap;
    uint64_t seq = 0;
    double now = 0.0;
    for (int op = 0; op < 2000; ++op) {
      if (heap.empty() || rng.Bernoulli(0.55)) {
        double t = now;
        switch (rng.UniformInt(0, 3)) {
          case 0: t = std::floor(now) + static_cast<double>(rng.UniformInt(0, 3)); break;
          case 1: t = now + rng.Uniform(0.0, 20.0); break;
          case 2: t = now + rng.Uniform(0.0, 2000.0); break;
          default: t = now + rng.Uniform(0.0, 1.0e7); break;
        }
        const TimerKey key = MakeTimerKey(
            static_cast<uint8_t>(rng.UniformInt(0, 255)),
            static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(kMaxTimerPayload))));
        wheel.Push(t, key);
        heap.push_back({t, seq++, key});
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        std::pop_heap(heap.begin(), heap.end(), later);
        const Entry expected = heap.back();
        heap.pop_back();
        ASSERT_EQ(wheel.NextTime(), expected.time) << "round " << round;
        double time = 0.0;
        TimerKey key = 0;
        wheel.PopInto(&time, &key);
        ASSERT_EQ(time, expected.time) << "round " << round << " op " << op;
        ASSERT_EQ(key, expected.key) << "round " << round << " op " << op;
        now = time;
      }
      ASSERT_EQ(wheel.size(), heap.size());
    }
  }
}

TEST(TimerWheelTest, PeekNearSeesOnlyTheNearHeap) {
  // The pushes below are placed against 1 s buckets.
  TimerWheel::Options options;
  options.resolution = 1.0;
  TimerWheel wheel(options);
  TimerKey keys[TimerWheel::kPeekNear] = {};
  EXPECT_EQ(wheel.PeekNear(keys), 0);
  // Future timers wait in the buckets until NextTime or PopInto advances.
  wheel.Push(0.5, 1);
  wheel.Push(0.75, 2);
  wheel.Push(3.0, 3);
  EXPECT_EQ(wheel.PeekNear(keys), 0);
  // A past push goes straight to the near heap.
  wheel.Push(-0.5, 4);
  ASSERT_EQ(wheel.PeekNear(keys), 1);
  EXPECT_EQ(keys[0], 4u);
  EXPECT_EQ(wheel.NextTime(), -0.5);
  double time = 0.0;
  TimerKey key = 0;
  wheel.PopInto(&time, &key);
  EXPECT_EQ(key, 4u);
  // The near heap is drained again; the 0.5 and 0.75 bucket has not moved.
  EXPECT_EQ(wheel.PeekNear(keys), 0);
  EXPECT_EQ(wheel.NextTime(), 0.5);
  ASSERT_EQ(wheel.PeekNear(keys), 2);
  EXPECT_EQ(keys[0], 1u);
  EXPECT_EQ(keys[1], 2u);
  // Peeking is const: the pops are unchanged.
  wheel.PopInto(&time, &key);
  EXPECT_EQ(key, 1u);
  wheel.PopInto(&time, &key);
  EXPECT_EQ(key, 2u);
}

TEST(TimerWheelTest, PeekNearHeadIsNextPopAndChildrenHoldTheOneAfter) {
  // Before each pop: the head is the item popped, every peeked item shares
  // its level-0 bucket (the near heap holds exactly the current bucket), as
  // many items are peeked as that bucket still holds (up to kPeekNear), and
  // the item popped after the head, if it is in the same bucket, was among
  // the head's children.
  Rng rng(20261018);
  for (int round = 0; round < 12; ++round) {
    TimerWheel::Options options;
    options.resolution = round % 2 == 0 ? 1.0 : 0.25;
    options.level_slots = round % 3 == 0 ? 4 : 16;
    TimerWheel wheel(options);
    std::vector<Ref> refs;
    for (int i = 0; i < 300; ++i) {
      double t = 0.0;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          t = static_cast<double>(rng.UniformInt(0, 20)) * options.resolution;
          break;
        case 1: t = rng.Uniform(0.0, 10.0); break;
        case 2: t = rng.Uniform(0.0, 500.0); break;
        default: t = rng.Uniform(0.0, 1.0e5); break;
      }
      refs.push_back({t, i});
      wheel.Push(t, static_cast<TimerKey>(i));
    }
    const std::vector<int> order = StableOrder(refs);
    auto bucket = [&](int id) {
      return std::floor(refs[static_cast<size_t>(id)].time / options.resolution);
    };
    for (size_t k = 0; k < order.size(); ++k) {
      wheel.NextTime();  // brings the current bucket into the near heap
      TimerKey keys[TimerWheel::kPeekNear] = {};
      const int n = wheel.PeekNear(keys);
      size_t same_bucket = 0;
      while (k + same_bucket < order.size() &&
             bucket(order[k + same_bucket]) == bucket(order[k])) {
        ++same_bucket;
      }
      ASSERT_EQ(static_cast<size_t>(n),
                std::min<size_t>(same_bucket, TimerWheel::kPeekNear))
          << "round " << round << " pop " << k;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(bucket(static_cast<int>(keys[i])), bucket(order[k]));
      }
      EXPECT_EQ(keys[0], static_cast<TimerKey>(order[k]));
      if (same_bucket > 1) {
        const TimerKey after = static_cast<TimerKey>(order[k + 1]);
        EXPECT_TRUE(keys[1] == after || (n > 2 && keys[2] == after))
            << "round " << round << " pop " << k;
      }
      double time = 0.0;
      TimerKey key = 0;
      wheel.PopInto(&time, &key);
      ASSERT_EQ(key, static_cast<TimerKey>(order[k]));
    }
  }
}

}  // namespace
}  // namespace besync
