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
#include "net/network.h"

namespace besync {
namespace {

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
    SetSourceBandwidth(100.0);
  }

  /// One source, one cache: both links at 100 messages/s unless the source
  /// side is set lower.
  void SetSourceBandwidth(double rate) {
    NetworkConfig config;
    config.cache_bandwidth_avg = 100.0;
    config.source_bandwidth_avg = rate;
    network_ = std::make_unique<Network>(config, &network_rng_);
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

  void BeginTick(double t) { network_->BeginTick(t, 1.0); }

  int64_t Send(SourceAgent* agent, double t) {
    return agent->SendPhase(t, &network_->source_link(0), network_.get());
  }

  std::vector<Message> DrainCacheLink() {
    std::vector<Message> messages;
    network_->cache_link().DeliverQueued(
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
  Rng network_rng_{1};
  std::unique_ptr<Network> network_;
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
  const int64_t sent = Send(&agent, 10.0);
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
  Send(&agent, 10.0);
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
  SetSourceBandwidth(2.0);  // only 2 of 5 eligible fit
  BeginTick(5.0);
  const int64_t sent = Send(&agent, 5.0);
  EXPECT_EQ(sent, 2);
  EXPECT_TRUE(agent.at_full_capacity());
  // Feedback must NOT lower the threshold while saturated (footnote 3)...
  const double before = agent.threshold();
  agent.DepositFeedback(/*cache_id=*/0, /*granted_rate=*/0.0);
  agent.ApplyFeedback(6.0, *network_);
  EXPECT_DOUBLE_EQ(agent.threshold(), before);
  // ...but once the backlog clears, feedback lowers it again.
  BeginTick(6.0);
  Send(&agent, 6.0);
  BeginTick(7.0);
  Send(&agent, 7.0);
  EXPECT_FALSE(agent.at_full_capacity());
  const double saturated = agent.threshold();
  agent.DepositFeedback(/*cache_id=*/0, /*granted_rate=*/0.0);
  agent.ApplyFeedback(8.0, *network_);
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
  EXPECT_EQ(Send(&agent, 5.0), 0);
  const double threshold_before = agent.threshold();
  const int64_t sent =
      agent.SendSecondary(5.0, /*max_count=*/1, &network_->source_link(0),
                          &network_->cache_link());
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
  EXPECT_EQ(Send(&agent, 4.0), 1);
  EXPECT_DOUBLE_EQ(harness_->objects()[0].tracker().current_divergence(), 0.0);
  BeginTick(5.0);
  EXPECT_EQ(Send(&agent, 5.0), 0);
}

TEST_F(SourceAgentTest, BatchingPacksFullBatchesImmediately) {
  SourceAgentConfig config;
  config.threshold.initial = 0.5;
  config.max_batch = 3;
  config.max_batch_delay = 100.0;  // partials wait a long time
  SourceAgent agent = MakeAgent(config);
  for (int i = 0; i < 4; ++i) Update(&agent, i, 1.0, 5.0);
  BeginTick(5.0);
  Send(&agent, 5.0);
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
  Send(&agent, 5.0);
  EXPECT_EQ(DrainCacheLink().size(), 0u);  // held: batch not full, not overdue
  BeginTick(11.0);  // > max_batch_delay since last emission (t=0)
  Send(&agent, 11.0);
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
  EXPECT_EQ(Send(&agent, std::floor(cross) - 1.0),
            0);
  // After it: at least that object goes out, with no update ever occurring.
  const double later = cross + 2.0;
  BeginTick(later);
  EXPECT_GE(Send(&agent, later), 1);
}

// --------------------------------------------- queued-channel send phase

/// Audits the send phase's visit list after every tick: a channel whose
/// queued bit is clear must have empty primary, wake and invalidation
/// queues, or skipping it would drop work. Counts the clear bits seen, so a
/// run that never skips anything cannot pass for coverage.
template <typename Base>
class QueuedChannelAudit : public Base {
 public:
  using Base::Base;

  void Tick(double t) override {
    Base::Tick(t);
    for (int j = 0; j < this->num_sources(); ++j) {
      const SourceAgent& source = this->source(j);
      if (!source.UnqueuedChannelsIdle()) {
        if (violations_ == 0) ADD_FAILURE() << "source " << j << " at t=" << t;
        ++violations_;
      }
      for (int k = 0; k < source.num_channels(); ++k) {
        if (!source.channel_queued(k)) ++skipped_;
      }
    }
  }

  int64_t violations_ = 0;
  int64_t skipped_ = 0;
};

/// A small multi-cache workload: 6 sources x 10 objects, every object at
/// each of 4 caches.
WorkloadConfig AuditWorkload() {
  WorkloadConfig config;
  config.num_sources = 6;
  config.objects_per_source = 10;
  config.num_caches = 4;
  config.interest_pattern = InterestPattern::kFullReplication;
  config.seed = 17;
  return config;
}

CooperativeConfig AuditCooperative(int num_caches) {
  CooperativeConfig config;
  config.num_caches = num_caches;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 4.0;
  return config;
}

/// Runs `scheduler` over `workload` and checks the audit held; with
/// `expect_skips`, also that some channel was skipped. Time-varying
/// policies keep a wake-up armed per replica and sampling re-keys every
/// replica on a schedule, so their channels rarely drain empty.
template <typename Scheduler>
void ExpectQueuedBitsExact(const WorkloadConfig& workload_config, Scheduler* scheduler,
                           bool expect_skips = true) {
  const Workload workload = std::move(MakeWorkload(workload_config)).ValueOrDie();
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness;
  harness.warmup = 20.0;
  harness.measure = 150.0;
  harness.seed = 5;
  const auto result = RunScheduler(&workload, metric.get(), harness, scheduler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(scheduler->violations_, 0);
  if (expect_skips) {
    EXPECT_GT(scheduler->skipped_, 0);
  }
  EXPECT_GT(result->scheduler.refreshes_sent + result->scheduler.invalidations_sent, 0);
}

TEST_F(SourceAgentTest, QueuedBitsCoverPushWithAreaPolicy) {
  QueuedChannelAudit<CooperativeScheduler> scheduler(AuditCooperative(4));
  ExpectQueuedBitsExact(AuditWorkload(), &scheduler);
}

TEST_F(SourceAgentTest, QueuedBitsCoverTimeVaryingBound) {
  CooperativeConfig config = AuditCooperative(4);
  config.policy = PolicyKind::kBound;
  QueuedChannelAudit<CooperativeScheduler> scheduler(config);
  ExpectQueuedBitsExact(AuditWorkload(), &scheduler, /*expect_skips=*/false);
}

TEST_F(SourceAgentTest, QueuedBitsCoverSampling) {
  CooperativeConfig config = AuditCooperative(4);
  config.source.monitor = MonitorMode::kSampling;
  config.source.sampling_interval = 4.0;
  QueuedChannelAudit<CooperativeScheduler> scheduler(config);
  ExpectQueuedBitsExact(AuditWorkload(), &scheduler, /*expect_skips=*/false);
}

TEST_F(SourceAgentTest, QueuedBitsCoverInvalidationWithCrashRecovery) {
  WorkloadConfig workload = AuditWorkload();
  workload.read.read_rate = 4.0;
  workload.read.capacity = 20;
  workload.fault.cache_crashes = 2;
  workload.fault.crash_duration = 15.0;
  workload.fault.window_start = 40.0;
  workload.fault.window_end = 140.0;
  CooperativeConfig config = AuditCooperative(4);
  config.protocol.kind = SyncProtocolKind::kInvalidation;
  config.recovery_policy = RecoveryPolicy::kRecoveryPriority;
  QueuedChannelAudit<CooperativeScheduler> scheduler(config);
  ExpectQueuedBitsExact(workload, &scheduler);
  EXPECT_GT(scheduler.stats().cache_restarts, 0);
}

TEST_F(SourceAgentTest, QueuedBitsCoverCompetitive) {
  WorkloadConfig workload = AuditWorkload();
  workload.num_caches = 1;
  workload.interest_pattern = InterestPattern::kSingleCache;
  CompetitiveConfig config;
  config.base = AuditCooperative(1);
  config.psi = 0.3;
  QueuedChannelAudit<CompetitiveScheduler> scheduler(config);
  ExpectQueuedBitsExact(workload, &scheduler);
}

TEST_F(SourceAgentTest, QueuedBitsCoverTreeWithRelayFailover) {
  WorkloadConfig workload = AuditWorkload();
  workload.relay_tiers = 2;
  workload.relay_fanout = 2;
  workload.relay_bandwidth_factor = 0.75;
  workload.fault.relay_failures = 2;
  workload.fault.window_start = 40.0;
  workload.fault.window_end = 140.0;
  CooperativeConfig config = AuditCooperative(4);
  config.relay_store_policy = RelayStorePolicy::kDrain;
  QueuedChannelAudit<CooperativeScheduler> scheduler(config);
  ExpectQueuedBitsExact(workload, &scheduler);
  EXPECT_GT(scheduler.stats().relay_failures, 0);
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
