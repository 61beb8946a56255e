// Property-based suites (parameterized sweeps and randomized fuzzing) over
// the library's core invariants:
//  - bookkeeping exactness (trackers and ground truth vs brute force),
//  - conservation laws (messages enqueued = delivered + dropped + queued),
//  - statistical properties of generators and estimators over grids,
//  - determinism of whole experiments,
//  - scale/metric invariants of the priority policies.

#include <cmath>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "baseline/freq_allocation.h"
#include "baseline/lambda_estimator.h"
#include "data/workload.h"
#include "divergence/ground_truth.h"
#include "divergence/metric.h"
#include "divergence/tracker.h"
#include "exp/experiment.h"
#include "net/link.h"
#include "priority/priority.h"
#include "util/random.h"

namespace besync {
namespace {

// ------------------------------------------------ Tracker vs brute force

class TrackerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrackerFuzzTest, IntegralMatchesBruteForce) {
  Rng rng(GetParam());
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);

  // Brute force: remember every (time, divergence) breakpoint.
  std::vector<std::pair<double, double>> breakpoints{{0.0, 0.0}};
  double t = 0.0;
  double value = 0.0;
  double shipped = 0.0;
  int64_t version = 0;
  for (int step = 0; step < 200; ++step) {
    t += rng.Exponential(1.0);
    if (rng.Bernoulli(0.15)) {
      tracker.OnRefresh(t, value, version);
      shipped = value;
      breakpoints.clear();
      breakpoints.emplace_back(t, 0.0);
    } else {
      value += rng.Bernoulli(0.5) ? 1.0 : -1.0;
      ++version;
      tracker.OnUpdate(t, value, version);
      breakpoints.emplace_back(t, std::abs(value - shipped));
    }
  }
  const double end = t + rng.Exponential(1.0);
  double brute = 0.0;
  for (size_t k = 0; k < breakpoints.size(); ++k) {
    const double until = k + 1 < breakpoints.size() ? breakpoints[k + 1].first : end;
    brute += breakpoints[k].second * (until - breakpoints[k].first);
  }
  EXPECT_NEAR(tracker.IntegralTo(end), brute, 1e-9 * (1.0 + brute));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------- GroundTruth vs brute force

class GroundTruthFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroundTruthFuzzTest, IntegralMatchesBruteForce) {
  WorkloadConfig workload_config;
  workload_config.num_sources = 1;
  workload_config.objects_per_source = 4;
  workload_config.seed = GetParam();
  Workload workload = std::move(MakeWorkload(workload_config)).ValueOrDie();
  LagMetric metric;
  GroundTruth ground_truth(&workload, &metric);
  ground_truth.Initialize(0.0);
  ground_truth.StartMeasurement(0.0);

  Rng rng(GetParam() * 1000 + 17);
  struct State {
    double source_value = 0.0;
    int64_t source_version = 0;
    double cached_value = 0.0;
    int64_t cached_version = 0;
  };
  std::vector<State> states(4);
  double t = 0.0;
  double brute = 0.0;
  double last_t = 0.0;
  auto total_divergence = [&states]() {
    double total = 0.0;
    for (const State& s : states) {
      total += static_cast<double>(s.source_version - s.cached_version);
    }
    return total;
  };
  for (int step = 0; step < 500; ++step) {
    t += rng.Exponential(2.0);
    brute += total_divergence() * (t - last_t);
    last_t = t;
    const int i = static_cast<int>(rng.UniformInt(0, 3));
    if (rng.Bernoulli(0.6)) {
      states[i].source_value += 1.0;
      ++states[i].source_version;
      ground_truth.OnSourceUpdate(i, t, states[i].source_value,
                                  states[i].source_version);
    } else {
      states[i].cached_value = states[i].source_value;
      states[i].cached_version = states[i].source_version;
      ground_truth.OnCacheApply(i, t, states[i].cached_value,
                                states[i].cached_version);
    }
  }
  const double end = t + 1.0;
  brute += total_divergence() * (end - last_t);
  ground_truth.FinishMeasurement(end);
  EXPECT_NEAR(ground_truth.TotalWeightedAverage() * end, brute,
              1e-9 * (1.0 + brute));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroundTruthFuzzTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// ------------------------------------------------------ Link conservation

class LinkConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(LinkConservationTest, EnqueuedEqualsDeliveredPlusDroppedPlusQueued) {
  const double loss = GetParam();
  Link link("fuzz", std::make_unique<BandwidthModel>(
                        std::make_unique<ConstantFluctuation>(3.0)));
  if (loss > 0.0) link.SetLossRate(loss, 77);
  Rng rng(5);
  int64_t enqueued = 0;
  int64_t delivered = 0;
  for (int tick = 0; tick < 500; ++tick) {
    link.BeginTick(tick, 1.0);
    const int64_t arrivals = rng.UniformInt(0, 6);
    for (int64_t k = 0; k < arrivals; ++k) {
      const int64_t cost = rng.Bernoulli(0.2) ? 3 : 1;  // mixed sizes
      link.Emplace([cost](Message& message) { message.cost = cost; });
      ++enqueued;
    }
    delivered += link.DeliverQueued([](const Message&) {});
  }
  EXPECT_EQ(enqueued, delivered + link.messages_dropped() +
                          static_cast<int64_t>(link.queue_size()));
}

INSTANTIATE_TEST_SUITE_P(LossRates, LinkConservationTest,
                         ::testing::Values(0.0, 0.1, 0.5));

// ----------------------------------------- Generator statistical sweeps

class BernoulliRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliRateSweep, LongRunRateMatches) {
  const double p = GetParam();
  BernoulliRandomWalkProcess process(p);
  Rng rng(31);
  double t = 0.0;
  int64_t count = 0;
  const double horizon = 50000.0;
  while (true) {
    t = process.NextUpdateTime(t, &rng);
    if (t >= horizon) break;
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / horizon, p, 0.02 + 0.03 * p);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, BernoulliRateSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 0.9, 1.0));

class PoissonRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonRateSweep, LongRunRateMatches) {
  const double lambda = GetParam();
  PoissonRandomWalkProcess process(lambda);
  Rng rng(33);
  double t = 0.0;
  int64_t count = 0;
  const double horizon = 20000.0;
  while (true) {
    t = process.NextUpdateTime(t, &rng);
    if (t >= horizon) break;
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / horizon, lambda, 0.05 * lambda + 0.005);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonRateSweep,
                         ::testing::Values(0.05, 0.3, 1.0, 3.0));

class BandwidthAverageSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BandwidthAverageSweep, LongRunBudgetMatchesAverage) {
  const auto [average, change_rate] = GetParam();
  Rng rng(7);
  BandwidthModel model(MakeBandwidthFluctuation(average, change_rate, &rng));
  int64_t total = 0;
  const int kTicks = 5000;
  for (int t = 0; t < kTicks; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_NEAR(static_cast<double>(total) / kTicks, average,
              0.05 * average + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BandwidthAverageSweep,
    ::testing::Combine(::testing::Values(0.5, 2.0, 17.0, 400.0),
                       ::testing::Values(0.0, 0.005, 0.05, 0.25)));

// -------------------------------------------------- Estimator grid sweep

class EstimatorSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EstimatorSweep, BothEstimatorsConvergeWhenPollsResolveChanges) {
  const auto [lambda, tau] = GetParam();
  Rng rng(101);
  BooleanChangeEstimator boolean(1.0, 3, 0.0);
  LastModifiedEstimator last_modified(1.0, 3, 0.0);
  double t = 0.0;
  double last_update = -1.0;
  for (int i = 0; i < 30000; ++i) {
    const double start = t;
    t += tau;
    double u = start;
    bool changed = false;
    while (true) {
      u += rng.Exponential(lambda);
      if (u > t) break;
      last_update = u;
      changed = true;
    }
    boolean.RecordPoll(t, changed, -1.0);
    last_modified.RecordPoll(t, changed, changed ? last_update : -1.0);
  }
  // The last-modified estimator is consistent everywhere.
  EXPECT_NEAR(last_modified.Estimate(), lambda, 0.1 * lambda + 0.01);
  // The boolean estimator is consistent while lambda*tau is moderate.
  if (lambda * tau < 1.0) {
    EXPECT_NEAR(boolean.Estimate(), lambda, 0.15 * lambda + 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, EstimatorSweep,
                         ::testing::Combine(::testing::Values(0.05, 0.2, 0.8),
                                            ::testing::Values(0.5, 1.0, 4.0)));

// ----------------------------------------------- Allocation grid sweep

class AllocationSweep : public ::testing::TestWithParam<double> {};

TEST_P(AllocationSweep, BudgetBindsAndFreshnessMonotone) {
  Rng rng(55);
  std::vector<double> lambdas(200);
  for (double& lambda : lambdas) lambda = rng.Uniform(0.01, 1.0);

  const double bandwidth = GetParam();
  auto result = SolveFreshnessAllocation(lambdas, {}, bandwidth);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (double f : result->frequencies) {
    EXPECT_GE(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, bandwidth, 1e-4 * bandwidth + 1e-9);

  // More bandwidth can only improve the optimum.
  auto more = SolveFreshnessAllocation(lambdas, {}, bandwidth * 1.5);
  ASSERT_TRUE(more.ok());
  EXPECT_GE(more->total_weighted_freshness,
            result->total_weighted_freshness - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, AllocationSweep,
                         ::testing::Values(1.0, 10.0, 60.0, 300.0));

// ---------------------------------------------- Policy scale invariance

class PolicyScaleTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyScaleTest, PriorityLinearInWeight) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 3.0, 1);
  tracker.OnUpdate(2.5, 5.0, 2);
  auto policy = MakePolicy(GetParam());
  PriorityContext context;
  context.tracker = &tracker;
  context.lambda_estimate = 0.4;
  context.max_divergence_rate = 0.7;
  context.history_rate = 0.2;
  context.weight = 1.0;
  const double base = policy->Priority(context, 6.0);
  context.weight = 3.5;
  EXPECT_NEAR(policy->Priority(context, 6.0), 3.5 * base,
              1e-12 * std::abs(base) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyScaleTest,
                         ::testing::Values(PolicyKind::kArea, PolicyKind::kNaive,
                                           PolicyKind::kPoissonStaleness,
                                           PolicyKind::kPoissonLag,
                                           PolicyKind::kBound,
                                           PolicyKind::kAreaHistory));

// ----------------------------------------------- Experiment determinism

class DeterminismTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(DeterminismTest, SameConfigSameResult) {
  ExperimentConfig config;
  config.scheduler = GetParam();
  config.metric = MetricKind::kValueDeviation;
  config.workload.num_sources = 4;
  config.workload.objects_per_source = 8;
  config.workload.seed = 77;
  config.harness.warmup = 20.0;
  config.harness.measure = 150.0;
  config.cache_bandwidth_avg = 8.0;
  auto a = RunExperiment(config);
  auto b = RunExperiment(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->per_object_weighted, b->per_object_weighted);
  EXPECT_EQ(a->scheduler.refreshes_delivered, b->scheduler.refreshes_delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, DeterminismTest,
    ::testing::Values(SchedulerKind::kCooperative, SchedulerKind::kIdealCooperative,
                      SchedulerKind::kIdealCacheBased, SchedulerKind::kCGM1,
                      SchedulerKind::kCGM2, SchedulerKind::kRoundRobin));

// ------------------------------------------------- Staleness range sweep

class StalenessRangeTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, double>> {};

TEST_P(StalenessRangeTest, StalenessAlwaysWithinUnitInterval) {
  const auto [kind, bandwidth] = GetParam();
  ExperimentConfig config;
  config.scheduler = kind;
  config.metric = MetricKind::kStaleness;
  config.workload.num_sources = 3;
  config.workload.objects_per_source = 10;
  config.workload.seed = 5;
  config.harness.warmup = 20.0;
  config.harness.measure = 200.0;
  config.cache_bandwidth_avg = bandwidth;
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->per_object_unweighted, 0.0);
  EXPECT_LE(result->per_object_unweighted, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StalenessRangeTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kCooperative,
                                         SchedulerKind::kIdealCooperative,
                                         SchedulerKind::kCGM2),
                       ::testing::Values(1.0, 10.0, 100.0)));

// ---------------------------------------- Message conservation end to end

TEST(ConservationTest, CooperativeSentVsDelivered) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.metric = MetricKind::kValueDeviation;
  config.workload.num_sources = 6;
  config.workload.objects_per_source = 15;
  config.workload.seed = 13;
  config.harness.warmup = 0.0;  // count from the very beginning
  config.harness.measure = 300.0;
  config.cache_bandwidth_avg = 10.0;
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  // Without loss, everything sent is delivered or still queued; since the
  // queue is bounded, sent and delivered stay close.
  EXPECT_GE(result->scheduler.refreshes_sent, result->scheduler.refreshes_delivered);
  EXPECT_LE(result->scheduler.refreshes_sent - result->scheduler.refreshes_delivered,
            result->scheduler.max_cache_queue + 1);
}

// ---------------------------------------------- Lag monotonicity property

TEST(LagMonotonicityTest, LagNeverDecreasesWithoutRefresh) {
  LagMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  Rng rng(3);
  double previous = 0.0;
  double t = 0.0;
  for (int i = 1; i <= 300; ++i) {
    t += rng.Exponential(1.0);
    tracker.OnUpdate(t, rng.NextDouble(), i);
    EXPECT_GE(tracker.current_divergence(), previous);
    previous = tracker.current_divergence();
  }
  EXPECT_DOUBLE_EQ(previous, 300.0);
}

}  // namespace
}  // namespace besync
