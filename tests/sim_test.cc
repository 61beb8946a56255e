#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/random.h"

namespace besync {
namespace {

/// Records every fired event as (kind, payload, time); registered as the
/// handler of each kind under test with a per-kind context.
struct Recorder {
  struct Fired {
    uint8_t kind;
    uint64_t payload;
    double time;
  };
  std::vector<Fired> fired;
};

struct KindContext {
  Recorder* recorder;
  uint8_t kind;
};

void Record(void* context, uint64_t payload, double time) {
  const KindContext& kc = *static_cast<KindContext*>(context);
  kc.recorder->fired.push_back({kc.kind, payload, time});
}

/// A simulation with kinds 0 and 1 both recording into one log.
class SimulationTest : public ::testing::Test {
 protected:
  SimulationTest() {
    sim_.RegisterHandler(0, &Record, &kind0_);
    sim_.RegisterHandler(1, &Record, &kind1_);
  }

  std::vector<double> Times() const {
    std::vector<double> times;
    for (const Recorder::Fired& f : recorder_.fired) times.push_back(f.time);
    return times;
  }
  std::vector<uint64_t> Payloads() const {
    std::vector<uint64_t> payloads;
    for (const Recorder::Fired& f : recorder_.fired) payloads.push_back(f.payload);
    return payloads;
  }

  Recorder recorder_;
  KindContext kind0_{&recorder_, 0};
  KindContext kind1_{&recorder_, 1};
  Simulation sim_;
};

TEST_F(SimulationTest, RunUntilAdvancesClockExactly) {
  sim_.RunUntil(12.5);
  EXPECT_DOUBLE_EQ(sim_.now(), 12.5);
}

TEST_F(SimulationTest, OrdersByTime) {
  sim_.ScheduleAt(3.0, 0, 3);
  sim_.ScheduleAt(1.0, 0, 1);
  sim_.ScheduleAt(2.0, 0, 2);
  sim_.RunUntil(10.0);
  EXPECT_EQ(Payloads(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(Times(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_F(SimulationTest, FifoForEqualTimes) {
  for (uint64_t i = 0; i < 10; ++i) sim_.ScheduleAt(5.0, 0, i);
  sim_.RunUntil(5.0);
  ASSERT_EQ(recorder_.fired.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(recorder_.fired[i].payload, i);
}

TEST_F(SimulationTest, EventsFireAtTheirTimestamps) {
  sim_.ScheduleAt(1.5, 0, 0);
  sim_.ScheduleAt(0.5, 0, 1);
  sim_.RunUntil(2.0);
  ASSERT_EQ(recorder_.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder_.fired[0].time, 0.5);
  EXPECT_DOUBLE_EQ(recorder_.fired[1].time, 1.5);
  EXPECT_EQ(sim_.events_fired(), 2u);
}

TEST_F(SimulationTest, EventsBeyondHorizonStayPending) {
  sim_.ScheduleAt(10.0, 0, 0);
  sim_.RunUntil(5.0);
  EXPECT_TRUE(recorder_.fired.empty());
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.RunUntil(10.0);  // inclusive boundary
  EXPECT_EQ(recorder_.fired.size(), 1u);
}

TEST_F(SimulationTest, ScheduleAfterUsesCurrentTime) {
  sim_.RunUntil(3.0);
  sim_.ScheduleAfter(2.0, 0, 0);
  sim_.RunUntil(10.0);
  ASSERT_EQ(recorder_.fired.size(), 1u);
  EXPECT_DOUBLE_EQ(recorder_.fired[0].time, 5.0);
}

TEST_F(SimulationTest, StepFiresSingleEvent) {
  sim_.ScheduleAt(1.0, 0, 0);
  sim_.ScheduleAt(2.0, 1, 1);
  EXPECT_TRUE(sim_.Step());
  EXPECT_EQ(recorder_.fired.size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.now(), 1.0);
  EXPECT_TRUE(sim_.Step());
  EXPECT_EQ(recorder_.fired.back().kind, 1);
  EXPECT_DOUBLE_EQ(sim_.now(), 2.0);
  EXPECT_FALSE(sim_.Step());
}

TEST_F(SimulationTest, KindsSelectHandlersAndInterleaveInScheduleOrder) {
  // Equal timestamps across kinds fire in the order they were scheduled.
  sim_.ScheduleAt(1.0, 1, 10);
  sim_.ScheduleAt(1.0, 0, 11);
  sim_.ScheduleAt(0.5, 1, 12);
  sim_.ScheduleAt(1.0, 1, 13);
  sim_.ScheduleAt(1.0, 0, kMaxTimerPayload);
  sim_.RunUntil(1.0);
  ASSERT_EQ(recorder_.fired.size(), 5u);
  const std::vector<std::pair<int, uint64_t>> expected = {
      {1, 12}, {1, 10}, {0, 11}, {1, 13}, {0, kMaxTimerPayload}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(recorder_.fired[i].kind, expected[i].first) << i;
    EXPECT_EQ(recorder_.fired[i].payload, expected[i].second) << i;
  }
}

/// Handler state for events that schedule more events from inside RunUntil.
struct Chain {
  Simulation* sim;
  std::vector<double> fired;
  double last = 100.0;
};

void ChainStep(void* context, uint64_t /*payload*/, double t) {
  Chain& chain = *static_cast<Chain*>(context);
  chain.fired.push_back(t);
  if (t + 1.0 <= chain.last) chain.sim->ScheduleAt(t + 1.0, 0, 0);
}

TEST(SimulationChainTest, SelfReschedulingEventChain) {
  // Mimics the update-process pattern: each event schedules the next.
  Simulation sim;
  Chain chain{&sim, {}, 100.0};
  sim.RegisterHandler(0, &ChainStep, &chain);
  sim.ScheduleAt(1.0, 0, 0);
  sim.RunUntil(100.0);
  EXPECT_EQ(chain.fired.size(), 100u);
  EXPECT_EQ(sim.events_fired(), 100u);
}

void ScheduleHalfLater(void* context, uint64_t payload, double t) {
  Chain& chain = *static_cast<Chain*>(context);
  chain.fired.push_back(t);
  if (payload == 0) chain.sim->ScheduleAt(t + 0.5, 0, 1);
}

TEST(SimulationChainTest, EventsScheduledDuringRunFireInSameRun) {
  Simulation sim;
  Chain chain{&sim, {}, 0.0};
  sim.RegisterHandler(0, &ScheduleHalfLater, &chain);
  sim.ScheduleAt(1.0, 0, 0);
  sim.RunUntil(2.0);
  ASSERT_EQ(chain.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(chain.fired[1], 1.5);
}

TEST(SimulationDeathTest, KindRegisteredTwiceDies) {
  Simulation sim;
  Recorder recorder;
  KindContext context{&recorder, 0};
  sim.RegisterHandler(0, &Record, &context);
  EXPECT_DEATH(sim.RegisterHandler(0, &Record, &context), "registered twice");
}

TEST(SimulationDeathTest, EventWithoutHandlerDies) {
  Simulation sim;
  sim.ScheduleAt(1.0, 3, 0);
  EXPECT_DEATH(sim.RunUntil(2.0), "no handler for event kind 3");
}

// ------------------------------------------------- lookahead prefetching

/// One log of fired events and prefetch announcements, in call order.
struct PipelineLog {
  struct Entry {
    bool fired;        // false: a prefetch announcement
    uint8_t kind;      // the kind whose handler or prefetcher was called
    uint64_t payload;
    bool fires_next;   // announcements only
    double time;       // fired events only
  };
  std::vector<Entry> entries;
};

struct PipelineKind {
  PipelineLog* log;
  uint8_t kind;
};

void LogFire(void* context, uint64_t payload, double time) {
  const PipelineKind& pk = *static_cast<PipelineKind*>(context);
  pk.log->entries.push_back({true, pk.kind, payload, false, time});
}

void LogPrefetch(void* context, uint64_t payload, bool fires_next) {
  const PipelineKind& pk = *static_cast<PipelineKind*>(context);
  pk.log->entries.push_back({false, pk.kind, payload, fires_next, 0.0});
}

/// A simulation whose kinds kObjectUpdateEvent and kSampleEvent both log
/// into one PipelineLog, through a handler and a prefetcher each.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    sim_.RegisterHandler(kObjectUpdateEvent, &LogFire, &update_, &LogPrefetch);
    sim_.RegisterHandler(kSampleEvent, &LogFire, &sample_, &LogPrefetch);
  }

  /// Checks the announcements made before each fired event k against the
  /// fired sequence, for schedules whose handlers schedule nothing. The
  /// wheel's near heap holds exactly the current bucket of width
  /// kEventBucketWidth (the simulation's wheel resolution), so event k+1 is
  /// announced as firing
  /// next iff it shares event k's bucket, and then event k+2, if it does
  /// too, is announced as a candidate. Every announcement reaches the
  /// prefetcher of its own kind. Returns the number of fired events.
  size_t CheckAnnouncements() const {
    std::vector<PipelineLog::Entry> fired;
    std::vector<std::vector<PipelineLog::Entry>> before;  // per fired event
    std::vector<PipelineLog::Entry> pending;
    for (const PipelineLog::Entry& entry : log_.entries) {
      if (entry.fired) {
        fired.push_back(entry);
        before.push_back(pending);
        pending.clear();
      } else {
        pending.push_back(entry);
      }
    }
    EXPECT_TRUE(pending.empty());
    auto same_bucket = [&](size_t a, size_t b) {
      return b < fired.size() && std::floor(fired[a].time / kEventBucketWidth) ==
                                     std::floor(fired[b].time / kEventBucketWidth);
    };
    auto announced = [&](size_t k, size_t event, bool fires_next) {
      int count = 0;
      for (const PipelineLog::Entry& entry : before[k]) {
        if (entry.fires_next == fires_next && entry.kind == fired[event].kind &&
            entry.payload == fired[event].payload) {
          ++count;
        }
      }
      return count;
    };
    for (size_t k = 0; k < fired.size(); ++k) {
      int nexts = 0;
      for (const PipelineLog::Entry& entry : before[k]) nexts += entry.fires_next;
      if (same_bucket(k, k + 1)) {
        EXPECT_EQ(nexts, 1) << "event " << k;
        EXPECT_EQ(announced(k, k + 1, /*fires_next=*/true), 1) << "event " << k;
      } else {
        EXPECT_EQ(nexts, 0) << "event " << k;
      }
      if (same_bucket(k, k + 1) && same_bucket(k, k + 2)) {
        EXPECT_EQ(announced(k, k + 2, /*fires_next=*/false), 1) << "event " << k;
      }
      EXPECT_LE(before[k].size(), static_cast<size_t>(TimerWheel::kPeekNear));
    }
    return fired.size();
  }

  PipelineLog log_;
  PipelineKind update_{&log_, kObjectUpdateEvent};
  PipelineKind sample_{&log_, kSampleEvent};
  Simulation sim_;
};

TEST_F(PipelineTest, EqualTimeTiesAnnounceEveryNextEvent) {
  for (uint64_t i = 0; i < 20; ++i) {
    sim_.ScheduleAt(2.5, i % 3 == 0 ? kSampleEvent : kObjectUpdateEvent, i);
  }
  sim_.RunUntil(3.0);
  EXPECT_EQ(CheckAnnouncements(), 20u);
  // All 20 share one bucket: 19 events announce their successor.
  int nexts = 0;
  for (const PipelineLog::Entry& entry : log_.entries) {
    nexts += !entry.fired && entry.fires_next;
  }
  EXPECT_EQ(nexts, 19);
}

TEST_F(PipelineTest, BucketDrainsAndCascadesAnnounceWithinTheBucket) {
  // Single and paired events per bucket, across the first level-1
  // boundary (bucket 256 of the default 256 slots), deep into level 1 and
  // out in the far list. Times are in bucket widths, so the schedule keeps
  // its shape whatever kEventBucketWidth is.
  uint64_t payload = 0;
  for (double b : {0.2, 0.7, 1.1, 1.9, 1.95, 3.5, 255.5, 255.9, 256.0, 256.0,
                   256.5, 300.25, 700.1, 700.3, 70000.0, 70000.5, 70000.5}) {
    sim_.ScheduleAt(b * kEventBucketWidth,
                    payload % 2 == 0 ? kObjectUpdateEvent : kSampleEvent, payload);
    ++payload;
  }
  sim_.RunUntil(80000.0 * kEventBucketWidth);
  EXPECT_EQ(CheckAnnouncements(), payload);
}

TEST_F(PipelineTest, StepAnnouncesLikeRunUntil) {
  uint64_t payload = 0;
  for (double t : {0.5, 0.5, 0.75, 2.0, 300.0, 300.5}) {
    sim_.ScheduleAt(t, payload % 2 == 0 ? kSampleEvent : kObjectUpdateEvent, payload);
    ++payload;
  }
  while (sim_.Step()) {
  }
  EXPECT_EQ(CheckAnnouncements(), payload);
}

/// Handler state of the randomized pipeline schedule: each event logs
/// itself and reschedules its payload a random delay later, sometimes with
/// the other kind, until a horizon. The prefetcher only counts.
struct ChurnState {
  Simulation* sim;
  Rng rng;
  std::vector<PipelineLog::Entry> fired;
  int64_t announcements = 0;
};

struct ChurnKind {
  ChurnState* state;
  uint8_t kind;
};

void ChurnFire(void* context, uint64_t payload, double time) {
  const ChurnKind& ck = *static_cast<ChurnKind*>(context);
  ChurnState& state = *ck.state;
  state.fired.push_back({true, ck.kind, payload, false, time});
  if (time > 600.0 * kEventBucketWidth) return;
  // Ties (a zero delay), same-bucket hops, and hops past the level-1 edge;
  // delays are drawn in bucket widths, so the schedule has the same shape
  // against the wheel whatever kEventBucketWidth is.
  double delay = 0.0;
  switch (state.rng.UniformInt(0, 3)) {
    case 0: delay = 0.0; break;
    case 1: delay = state.rng.Uniform(0.0, 1.0); break;
    case 2: delay = state.rng.Exponential(0.2); break;
    default: delay = state.rng.Uniform(0.0, 400.0); break;
  }
  const uint8_t kind = state.rng.Bernoulli(0.3) ? kSampleEvent : kObjectUpdateEvent;
  state.sim->ScheduleAfter(delay * kEventBucketWidth, kind, payload);
}

void ChurnPrefetch(void* context, uint64_t /*payload*/, bool /*fires_next*/) {
  ++static_cast<ChurnKind*>(context)->state->announcements;
}

ChurnState RunChurn(Simulation* sim, bool with_prefetchers) {
  ChurnState state{sim, Rng(20261018), {}, 0};
  ChurnKind update{&state, kObjectUpdateEvent};
  ChurnKind sample{&state, kSampleEvent};
  const EventPrefetcher prefetcher = with_prefetchers ? &ChurnPrefetch : nullptr;
  sim->RegisterHandler(kObjectUpdateEvent, &ChurnFire, &update, prefetcher);
  sim->RegisterHandler(kSampleEvent, &ChurnFire, &sample, prefetcher);
  for (uint64_t i = 0; i < 200; ++i) {
    sim->ScheduleAt(state.rng.Uniform(0.0, 50.0) * kEventBucketWidth,
                    i % 4 == 0 ? kSampleEvent : kObjectUpdateEvent, i);
  }
  for (int step = 1; step <= 120; ++step) {
    sim->RunUntil(10.0 * step * kEventBucketWidth);
    if (step % 10 == 0) sim->Step();
  }
  return state;
}

TEST(PipelineChurnTest, RecordingPrefetchersLeaveTheFiredSequenceIdentical) {
  Simulation plain_sim;
  Simulation piped_sim;
  const ChurnState plain = RunChurn(&plain_sim, /*with_prefetchers=*/false);
  const ChurnState piped = RunChurn(&piped_sim, /*with_prefetchers=*/true);
  EXPECT_EQ(plain.announcements, 0);
  EXPECT_GT(piped.announcements, 1000);
  ASSERT_EQ(plain.fired.size(), piped.fired.size());
  ASSERT_GT(plain.fired.size(), 2000u);
  for (size_t i = 0; i < plain.fired.size(); ++i) {
    ASSERT_EQ(plain.fired[i].time, piped.fired[i].time) << i;
    ASSERT_EQ(plain.fired[i].kind, piped.fired[i].kind) << i;
    ASSERT_EQ(plain.fired[i].payload, piped.fired[i].payload) << i;
  }
}

}  // namespace
}  // namespace besync
