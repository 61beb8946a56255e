#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"

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

}  // namespace
}  // namespace besync
