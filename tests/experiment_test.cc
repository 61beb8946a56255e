#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "exp/experiment.h"
#include "exp/sweep.h"

namespace besync {
namespace {

TEST(SweepTest, LinSpace) {
  const auto values = LinSpace(0.0, 1.0, 5);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_DOUBLE_EQ(values[0], 0.0);
  EXPECT_DOUBLE_EQ(values[2], 0.5);
  EXPECT_DOUBLE_EQ(values[4], 1.0);
  EXPECT_EQ(LinSpace(3.0, 9.0, 1), std::vector<double>{3.0});
}

TEST(SchedulerKindTest, Names) {
  EXPECT_EQ(SchedulerKindToString(SchedulerKind::kCooperative), "cooperative");
  EXPECT_EQ(SchedulerKindToString(SchedulerKind::kIdealCooperative),
            "ideal-cooperative");
  EXPECT_EQ(SchedulerKindToString(SchedulerKind::kIdealCacheBased),
            "ideal-cache-based");
  EXPECT_EQ(SchedulerKindToString(SchedulerKind::kCGM1), "cgm1");
  EXPECT_EQ(SchedulerKindToString(SchedulerKind::kCGM2), "cgm2");
  EXPECT_EQ(SchedulerKindToString(SchedulerKind::kRoundRobin), "round-robin");
}

ExperimentConfig SmallExperiment(SchedulerKind scheduler) {
  ExperimentConfig config;
  config.scheduler = scheduler;
  config.metric = MetricKind::kStaleness;
  config.workload.num_sources = 3;
  config.workload.objects_per_source = 10;
  config.workload.rate_lo = 0.05;
  config.workload.rate_hi = 0.5;
  config.workload.seed = 2;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 10.0;
  return config;
}

class AllSchedulersTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AllSchedulersTest, RunsAndProducesFiniteDivergence) {
  auto result = RunExperiment(SmallExperiment(GetParam()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->per_object_unweighted, 0.0);
  EXPECT_LE(result->per_object_unweighted, 1.0);  // staleness is in [0, 1]
  EXPECT_EQ(result->scheduler_name, SchedulerKindToString(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllSchedulersTest,
    ::testing::Values(SchedulerKind::kCooperative, SchedulerKind::kIdealCooperative,
                      SchedulerKind::kIdealCacheBased, SchedulerKind::kCGM1,
                      SchedulerKind::kCGM2, SchedulerKind::kRoundRobin));

TEST(ExperimentTest, WorkloadReuseAcrossSchedulers) {
  // RunExperimentOnWorkload must leave the workload reusable (processes are
  // reset between runs).
  ExperimentConfig config = SmallExperiment(SchedulerKind::kCooperative);
  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  auto first = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(first.ok());
  auto second = RunExperimentOnWorkload(config, &workload);
  ASSERT_TRUE(second.ok());
  // Identical everything -> identical measurements.
  EXPECT_DOUBLE_EQ(first->per_object_unweighted, second->per_object_unweighted);
}

// The paper's central comparison, swept across metrics and bandwidths: the
// idealized oracle never loses to the practical cooperative protocol, and
// the cooperative protocol never loses to blind round-robin refreshing
// (allowing a small tolerance for simulation noise).
class OrderingSweepTest
    : public ::testing::TestWithParam<std::tuple<MetricKind, double>> {};

TEST_P(OrderingSweepTest, IdealLeqCooperativeLeqRoundRobin) {
  const auto [metric, bandwidth_fraction] = GetParam();
  ExperimentConfig config;
  config.metric = metric;
  config.workload.num_sources = 5;
  config.workload.objects_per_source = 10;
  config.workload.rate_lo = 0.0;
  config.workload.rate_hi = 1.0;
  config.workload.seed = 23;
  config.harness.warmup = 100.0;
  config.harness.measure = 400.0;
  config.cache_bandwidth_avg = bandwidth_fraction * 50.0;

  Workload workload = std::move(MakeWorkload(config.workload)).ValueOrDie();
  auto run = [&](SchedulerKind kind) {
    config.scheduler = kind;
    auto result = RunExperimentOnWorkload(config, &workload);
    EXPECT_TRUE(result.ok());
    return result->per_object_unweighted;
  };
  const double ideal = run(SchedulerKind::kIdealCooperative);
  const double cooperative = run(SchedulerKind::kCooperative);
  const double round_robin = run(SchedulerKind::kRoundRobin);
  EXPECT_LE(ideal, cooperative * 1.10 + 1e-6);
  // Round-robin is modeled with free, instantaneous refreshes (no queueing,
  // no feedback traffic), so at extreme scarcity it can come within a few
  // percent of — or marginally beat — the real protocol; the informed
  // policy must still win clearly overall.
  EXPECT_LE(cooperative, round_robin * 1.30 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OrderingSweepTest,
    ::testing::Combine(::testing::Values(MetricKind::kStaleness, MetricKind::kLag,
                                         MetricKind::kValueDeviation),
                       ::testing::Values(0.1, 0.3, 0.6)));

// Section 4.3's first validation result, at test scale: under *uniform*
// weights and rates, the area priority and the naive weighted-divergence
// priority perform within a modest factor of each other. The paper's setup
// prioritizes directly (single source, 10 refreshes/s), i.e. the idealized
// scheduler with the policy swapped.
TEST(ValidationExperimentTest, UniformCasePoliciesComparable) {
  ExperimentConfig config = SmallExperiment(SchedulerKind::kIdealCooperative);
  config.metric = MetricKind::kValueDeviation;
  config.workload.num_sources = 1;
  config.workload.objects_per_source = 100;
  config.workload.update_model = WorkloadConfig::UpdateModel::kBernoulli;
  config.workload.rate_lo = 0.0;
  config.workload.rate_hi = 1.0;
  config.cache_bandwidth_avg = 10.0;
  config.harness.warmup = 100.0;
  config.harness.measure = 600.0;

  config.policy = PolicyKind::kArea;
  auto area = RunExperiment(config);
  ASSERT_TRUE(area.ok());
  config.policy = PolicyKind::kNaive;
  auto naive = RunExperiment(config);
  ASSERT_TRUE(naive.ok());
  // "the difference ... was less than 10%" in the paper's long runs; allow
  // more slack at this small scale but demand the same ballpark.
  EXPECT_LT(naive->per_object_weighted / area->per_object_weighted, 1.35);
  EXPECT_GT(naive->per_object_weighted / area->per_object_weighted, 0.7);
}

// Section 4.3's second validation result: under skewed weights and rates,
// the naive policy is *much* worse (paper: +64%/+74%/+84% depending on the
// metric).
TEST(ValidationExperimentTest, SkewedCaseAreaWinsBigly) {
  ExperimentConfig config = SmallExperiment(SchedulerKind::kIdealCooperative);
  config.metric = MetricKind::kValueDeviation;
  config.workload.num_sources = 1;
  config.workload.objects_per_source = 100;
  config.workload.update_model = WorkloadConfig::UpdateModel::kBernoulli;
  config.workload.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.workload.slow_rate = 0.01;
  config.workload.fast_rate = 1.0;
  config.workload.weight_scheme = WeightScheme::kHalfHeavy;
  config.workload.heavy_weight = 10.0;
  config.cache_bandwidth_avg = 10.0;
  config.harness.warmup = 100.0;
  config.harness.measure = 800.0;

  config.policy = PolicyKind::kArea;
  auto area = RunExperiment(config);
  ASSERT_TRUE(area.ok());
  config.policy = PolicyKind::kNaive;
  auto naive = RunExperiment(config);
  ASSERT_TRUE(naive.ok());
  EXPECT_GT(naive->per_object_weighted / area->per_object_weighted, 1.3);
}

}  // namespace
}  // namespace besync
