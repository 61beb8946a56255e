// White-box tests of the cooperative protocol mechanics at the agent level:
// send ordering, threshold piggybacking, full-capacity semantics, secondary
// (competitive) sends, batching, and time-varying wake-up scheduling.

#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/competitive.h"
#include "core/harness.h"
#include "core/source.h"
#include "core/system.h"
#include "divergence/metric.h"
#include "net/link.h"

namespace besync {
namespace {

std::unique_ptr<Link> MakeLink(double rate) {
  return std::make_unique<Link>(
      "test", std::make_unique<BandwidthModel>(
                  std::make_unique<ConstantFluctuation>(rate)));
}

/// Agent-level fixture: a harness that is never Run; object state is driven
/// by hand so each protocol step can be observed in isolation.
class SourceAgentTest : public ::testing::Test {
 protected:
  SourceAgentTest() {
    WorkloadConfig config;
    config.num_sources = 1;
    config.objects_per_source = 5;
    config.seed = 3;
    workload_ = std::move(MakeWorkload(config)).ValueOrDie();
    metric_ = MakeMetric(MetricKind::kValueDeviation);
    harness_config_.warmup = 0.0;
    harness_config_.measure = 1000.0;
    harness_ = std::make_unique<Harness>(&workload_, metric_.get(), harness_config_);
    policy_ = MakePolicy(PolicyKind::kArea);
    source_link_ = MakeLink(100.0);
    cache_link_ = MakeLink(100.0);
  }

  SourceAgent MakeAgent(const SourceAgentConfig& config) {
    SourceAgent agent(0, config, /*expected_feedback_period=*/10.0, policy_.get(),
                      protocol_.get(), harness_.get(), &tally_);
    for (int i = 0; i < 5; ++i) agent.AddObject(i);
    agent.Start(&harness_->simulation(), /*tick_length=*/1.0);
    return agent;
  }

  /// Applies a synthetic update of `delta` to object `i` at time `t` and
  /// notifies the agent.
  void Update(SourceAgent* agent, ObjectIndex i, double t, double delta) {
    ObjectRuntime& object = harness_->objects()[i];
    object.state.value += delta;
    ++object.state.version;
    object.state.last_update_time = t;
    object.tracker().OnUpdate(t, object.state.value, object.state.version);
    agent->OnObjectUpdate(i, t);
  }

  void BeginTick(double t) {
    source_link_->BeginTick(t, 1.0);
    cache_link_->BeginTick(t, 1.0);
  }

  std::vector<Message> DrainCacheLink() {
    std::vector<Message> messages;
    cache_link_->DeliverQueued(
        [&messages](const Message& m) { messages.push_back(m); });
    return messages;
  }

  Workload workload_;
  std::unique_ptr<DivergenceMetric> metric_;
  HarnessConfig harness_config_;
  std::unique_ptr<Harness> harness_;
  /// The agents' count sink (the scheduler's tally in a real run).
  SchedulerStats tally_;
  std::unique_ptr<PriorityPolicy> policy_;
  const std::unique_ptr<SyncProtocol> protocol_ = SyncProtocol::Make(SyncProtocolConfig{});
  std::unique_ptr<Link> source_link_;
  std::unique_ptr<Link> cache_link_;
};

TEST_F(SourceAgentTest, SendsAboveThresholdInPriorityOrder) {
  SourceAgentConfig config;
  config.threshold.initial = 5.0;
  SourceAgent agent = MakeAgent(config);
  // For a single update of size d at time t_u (refreshed at 0), the area
  // priority is P = d * t_u: recent divergers win (Figure 3's intuition).
  Update(&agent, 1, 1.0, 3.0);  // P = 3*1 = 3  -> below the threshold of 5
  Update(&agent, 2, 8.0, 8.0);  // P = 8*8 = 64 -> highest
  Update(&agent, 3, 9.0, 1.0);  // P = 1*9 = 9
  BeginTick(10.0);
  const int64_t sent = agent.SendRefreshes(10.0, source_link_.get(), cache_link_.get());
  EXPECT_EQ(sent, 2);
  const auto messages = DrainCacheLink();
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].object_index, 2);  // highest priority first
  EXPECT_EQ(messages[1].object_index, 3);
}

TEST_F(SourceAgentTest, ThresholdRisesPerSendAndIsPiggybacked) {
  SourceAgentConfig config;
  config.threshold.initial = 1.0;
  config.threshold.increase = 1.1;
  SourceAgent agent = MakeAgent(config);
  Update(&agent, 0, 1.0, 5.0);
  Update(&agent, 1, 2.0, 5.0);
  BeginTick(10.0);
  agent.SendRefreshes(10.0, source_link_.get(), cache_link_.get());
  const auto messages = DrainCacheLink();
  ASSERT_EQ(messages.size(), 2u);
  // Each message carries the post-increase threshold at its send.
  EXPECT_NEAR(messages[0].piggyback_threshold, 1.1, 1e-12);
  EXPECT_NEAR(messages[1].piggyback_threshold, 1.21, 1e-12);
  EXPECT_NEAR(agent.threshold(), 1.21, 1e-12);
}

TEST_F(SourceAgentTest, FullCapacityFlagAndFeedbackSuppression) {
  SourceAgentConfig config;
  config.threshold.initial = 0.1;
  SourceAgent agent = MakeAgent(config);
  for (int i = 0; i < 5; ++i) Update(&agent, i, 1.0, 10.0);
  source_link_ = MakeLink(2.0);  // only 2 of 5 eligible fit
  BeginTick(5.0);
  const int64_t sent = agent.SendRefreshes(5.0, source_link_.get(), cache_link_.get());
  EXPECT_EQ(sent, 2);
  EXPECT_TRUE(agent.at_full_capacity());
  // Feedback must NOT lower the threshold while saturated (footnote 3)...
  const double before = agent.threshold();
  ControlMessage feedback;
  feedback.kind = MessageKind::kFeedback;
  agent.OnFeedback(feedback, 6.0);
  EXPECT_DOUBLE_EQ(agent.threshold(), before);
  // ...but once the backlog clears, feedback lowers it again.
  BeginTick(6.0);
  agent.SendRefreshes(6.0, source_link_.get(), cache_link_.get());
  BeginTick(7.0);
  agent.SendRefreshes(7.0, source_link_.get(), cache_link_.get());
  EXPECT_FALSE(agent.at_full_capacity());
  const double saturated = agent.threshold();
  agent.OnFeedback(feedback, 8.0);
  EXPECT_LT(agent.threshold(), saturated);
}

TEST_F(SourceAgentTest, SecondarySendsSkipThresholdAndDontBumpIt) {
  SourceAgentConfig config;
  config.threshold.initial = 1e6;  // nothing passes the threshold path
  SourceAgent agent = MakeAgent(config);
  agent.EnableSecondaryQueue();
  Update(&agent, 0, 1.0, 2.0);
  Update(&agent, 1, 1.0, 4.0);
  BeginTick(5.0);
  EXPECT_EQ(agent.SendRefreshes(5.0, source_link_.get(), cache_link_.get()), 0);
  const double threshold_before = agent.threshold();
  const int64_t sent =
      agent.SendSecondary(5.0, /*max_count=*/1, source_link_.get(), cache_link_.get());
  EXPECT_EQ(sent, 1);
  EXPECT_DOUBLE_EQ(agent.threshold(), threshold_before);
  const auto messages = DrainCacheLink();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].object_index, 1);  // own-priority order
}

TEST_F(SourceAgentTest, RefreshResetsTrackerAndSecondSendFindsNothing) {
  SourceAgentConfig config;
  config.threshold.initial = 0.5;
  SourceAgent agent = MakeAgent(config);
  Update(&agent, 0, 1.0, 5.0);
  BeginTick(4.0);
  EXPECT_EQ(agent.SendRefreshes(4.0, source_link_.get(), cache_link_.get()), 1);
  EXPECT_DOUBLE_EQ(harness_->objects()[0].tracker().current_divergence(), 0.0);
  BeginTick(5.0);
  EXPECT_EQ(agent.SendRefreshes(5.0, source_link_.get(), cache_link_.get()), 0);
}

TEST_F(SourceAgentTest, BatchingPacksFullBatchesImmediately) {
  SourceAgentConfig config;
  config.threshold.initial = 0.5;
  config.max_batch = 3;
  config.max_batch_delay = 100.0;  // partials wait a long time
  SourceAgent agent = MakeAgent(config);
  for (int i = 0; i < 4; ++i) Update(&agent, i, 1.0, 5.0);
  BeginTick(5.0);
  agent.SendRefreshes(5.0, source_link_.get(), cache_link_.get());
  const auto messages = DrainCacheLink();
  // 4 eligible -> one full batch of 3; the leftover partial is held back.
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].extra_refreshes.size(), 2u);
  EXPECT_EQ(messages[0].cost, 1);
  EXPECT_EQ(tally_.refreshes_sent, 3);
}

TEST_F(SourceAgentTest, PartialBatchFlushedAfterDelay) {
  SourceAgentConfig config;
  config.threshold.initial = 0.5;
  config.max_batch = 3;
  config.max_batch_delay = 10.0;
  SourceAgent agent = MakeAgent(config);
  Update(&agent, 0, 1.0, 5.0);
  BeginTick(5.0);
  agent.SendRefreshes(5.0, source_link_.get(), cache_link_.get());
  EXPECT_EQ(DrainCacheLink().size(), 0u);  // held: batch not full, not overdue
  BeginTick(11.0);  // > max_batch_delay since last emission (t=0)
  agent.SendRefreshes(11.0, source_link_.get(), cache_link_.get());
  const auto messages = DrainCacheLink();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].extra_refreshes.size(), 0u);  // partial of one
}

TEST_F(SourceAgentTest, TimeVaryingBoundPolicySendsByDeadline) {
  policy_ = MakePolicy(PolicyKind::kBound);
  SourceAgentConfig config;
  config.threshold.initial = 2.0;
  SourceAgent agent = MakeAgent(config);
  // Bound priority P = R t^2/2 * W with R = lambda from the workload; the
  // earliest-crossing object is the one with the largest R * W.
  double max_rate = 0.0;
  for (const auto& spec : workload_.objects) {
    max_rate = std::max(max_rate, spec.max_divergence_rate);
  }
  const double cross = std::sqrt(2.0 * 2.0 / max_rate);
  // Just before the earliest crossing: nothing to send.
  BeginTick(std::floor(cross) - 1.0);
  EXPECT_EQ(agent.SendRefreshes(std::floor(cross) - 1.0, source_link_.get(),
                                cache_link_.get()),
            0);
  // After it: at least that object goes out, with no update ever occurring.
  const double later = cross + 2.0;
  BeginTick(later);
  EXPECT_GE(agent.SendRefreshes(later, source_link_.get(), cache_link_.get()), 1);
}

// ------------------------------------------------ competitive grant rates

TEST(CompetitiveGrantTest, EqualAndProportionalRates) {
  WorkloadConfig wl;
  wl.num_sources = 4;
  wl.objects_per_source = 10;
  wl.seed = 5;
  auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness_config;
  harness_config.warmup = 10.0;
  harness_config.measure = 100.0;

  for (ShareOption option :
       {ShareOption::kEqualShare, ShareOption::kProportionalShare}) {
    Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
    Harness harness(&workload, metric.get(), harness_config);
    CompetitiveConfig config;
    config.base.cache_bandwidth_avg = 20.0;
    config.psi = 0.5;
    config.option = option;
    CompetitiveScheduler scheduler(config);
    ASSERT_TRUE(harness.Run(&scheduler).ok());
    // Reserved 0.5*20 = 10 msgs/s over 4 equal sources -> 2.5 each (both
    // options coincide for equal source sizes).
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(scheduler.source(j).granted_rate(), 2.5, 1e-9);
    }
  }
}

}  // namespace
}  // namespace besync
