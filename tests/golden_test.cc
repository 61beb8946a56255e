// N=1 equivalence goldens: pins RunResult.total_weighted_divergence for
// fixed-seed single-cache workloads across every scheduler family. The
// values were captured from the pre-multi-cache engine (the paper's
// single-cache code paths); the topology-aware engine must reproduce them
// to 1e-9 — the refactor is required to be behavior-preserving at one
// cache. PartitionedLossy adds one exact multi-cache pin. The half-large
// cost, equal-share and bound/pull/recovery rows pin the source's send
// paths (unbatched cost pass-through, rate-granted secondary sends, and
// wake-up re-arming after pulls and recovery sends).

#include <gtest/gtest.h>

#include "core/competitive.h"
#include "exp/experiment.h"

namespace besync {
namespace {

constexpr double kTolerance = 1e-9;

TEST(GoldenTest, CooperativeTrigger) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 8;
  config.workload.objects_per_source = 25;
  config.workload.seed = 42;
  config.harness.warmup = 50.0;
  config.harness.measure = 300.0;
  config.harness.seed = 7;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 4.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 226.69154803746471, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, 3150);
  EXPECT_EQ(result->scheduler.feedback_sent, 436);
  // The per-cache breakdown of a single-cache run is the whole objective.
  ASSERT_EQ(result->per_cache_weighted.size(), 1u);
  EXPECT_NEAR(result->per_cache_weighted[0], result->total_weighted_divergence,
              kTolerance);
}

TEST(GoldenTest, CooperativeSamplingWithFluctuatingBandwidth) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 30;
  config.workload.seed = 9;
  config.harness.warmup = 40.0;
  config.harness.measure = 200.0;
  config.bandwidth_change_rate = 0.02;
  config.cache_bandwidth_avg = 8.0;
  config.monitor = MonitorMode::kSampling;
  config.sampling_interval = 5.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 150.29820033333442, kTolerance);
}

TEST(GoldenTest, CooperativeBoundPolicy) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.policy = PolicyKind::kBound;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 20;
  config.workload.seed = 11;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 6.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 116.39735741125634, kTolerance);
}

TEST(GoldenTest, CooperativeBatching) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 13;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 5.0;
  config.max_batch = 3;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 78.306023107258085, kTolerance);
}

/// Unbatched pushes keep each object's own refresh cost: half the objects
/// cost 4 units, so the source and cache budgets both see the cost mix.
TEST(GoldenTest, CooperativeHalfLargeCosts) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 20;
  config.workload.seed = 31;
  config.workload.cost_scheme = CostScheme::kHalfLarge;
  config.workload.large_cost = 4;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 12.0;
  config.source_bandwidth_avg = 5.0;
  config.max_batch = 1;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 90.294721390724789, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, 786);
}

TEST(GoldenTest, CGM1Baseline) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCGM1;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 17;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 222.40519590948804, kTolerance);
}

TEST(GoldenTest, CompetitivePiggyback) {
  WorkloadConfig wl;
  wl.num_sources = 4;
  wl.objects_per_source = 20;
  wl.seed = 21;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  AssignConflictingSourceWeights(&workload, 8.0, 77);
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness_config;
  harness_config.warmup = 30.0;
  harness_config.measure = 150.0;
  Harness harness(&workload, metric.get(), harness_config);
  GroundTruth source_view(&workload, metric.get(), /*use_source_weights=*/true);
  harness.AddGroundTruth(&source_view);
  CompetitiveConfig config;
  config.base.cache_bandwidth_avg = 10.0;
  config.psi = 0.25;
  config.option = ShareOption::kPiggyback;
  CompetitiveScheduler scheduler(config);
  ASSERT_TRUE(harness.Run(&scheduler).ok());
  EXPECT_NEAR(harness.ground_truth().TotalWeightedAverage(), 61.817998329229859,
              kTolerance);
  EXPECT_NEAR(source_view.TotalWeightedAverage(), 296.74566796678164, kTolerance);
}

/// Rate-granted share: each source spends its equal share of Ψ on
/// own-priority refreshes ahead of the threshold protocol.
TEST(GoldenTest, CompetitiveEqualShare) {
  WorkloadConfig wl;
  wl.num_sources = 4;
  wl.objects_per_source = 20;
  wl.seed = 37;
  Workload workload = std::move(MakeWorkload(wl)).ValueOrDie();
  AssignConflictingSourceWeights(&workload, 8.0, 79);
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  HarnessConfig harness_config;
  harness_config.warmup = 30.0;
  harness_config.measure = 150.0;
  Harness harness(&workload, metric.get(), harness_config);
  GroundTruth source_view(&workload, metric.get(), /*use_source_weights=*/true);
  harness.AddGroundTruth(&source_view);
  CompetitiveConfig config;
  config.base.cache_bandwidth_avg = 10.0;
  config.psi = 0.3;
  config.option = ShareOption::kEqualShare;
  CompetitiveScheduler scheduler(config);
  ASSERT_TRUE(harness.Run(&scheduler).ok());
  EXPECT_NEAR(harness.ground_truth().TotalWeightedAverage(), 62.773009266700292,
              kTolerance);
  EXPECT_NEAR(source_view.TotalWeightedAverage(), 284.36099255144086, kTolerance);
  EXPECT_EQ(scheduler.stats().refreshes_sent, 1347);
}

/// Wake-up driven pushes (kBound) alongside demand pulls from a small LRU
/// cache and a priority recovery after a crash: a pull and a recovery send
/// both re-arm the object's wake-up.
TEST(GoldenTest, BoundPullsAndRecovery) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.policy = PolicyKind::kBound;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 20;
  config.workload.seed = 41;
  config.workload.read.read_rate = 4.0;
  config.workload.read.capacity = 30;
  config.workload.read.eviction = EvictionPolicy::kLru;
  config.workload.fault.cache_crashes = 1;
  config.workload.fault.crash_duration = 15.0;
  config.workload.fault.window_start = 60.0;
  config.workload.fault.window_end = 120.0;
  config.recovery_policy = RecoveryPolicy::kRecoveryPriority;
  config.harness.warmup = 30.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = 6.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->total_weighted_divergence, 135.79369656322112, kTolerance);
  EXPECT_EQ(result->scheduler.refreshes_sent, 446);
  EXPECT_EQ(result->scheduler.pulls_delivered, 301);
  EXPECT_EQ(result->scheduler.resync_deliveries, 80);
  // The row exercises what it claims: misses pulled and the crash resynced.
  EXPECT_GT(result->scheduler.pulls_delivered, 0);
  EXPECT_GT(result->scheduler.resync_deliveries, 0);
}

TEST(GoldenTest, IdealCooperative) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kIdealCooperative;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 23;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 69.689302650153195, kTolerance);
}

TEST(GoldenTest, RoundRobin) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kRoundRobin;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 25;
  config.workload.seed = 29;
  config.harness.warmup = 30.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_weighted_divergence, 96.44131748074895, kTolerance);
}

/// Three caches with disjoint partitions and lossy, bandwidth-constrained
/// links on both sides: source-link budgets, the shuffled send order over
/// shared tier-1 links, and per-link loss draws all feed this number.
/// Pinned exactly, not to kTolerance.
TEST(GoldenTest, PartitionedLossy) {
  ExperimentConfig config;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 20;
  config.workload.num_caches = 3;
  config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  config.workload.seed = 11;
  config.harness.warmup = 20.0;
  config.harness.measure = 120.0;
  config.harness.seed = 5;
  config.cache_bandwidth_avg = 6.0;
  config.source_bandwidth_avg = 3.0;
  config.loss_rate = 0.05;
  const auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->total_weighted_divergence, 77.886079675343225);
}

}  // namespace
}  // namespace besync
