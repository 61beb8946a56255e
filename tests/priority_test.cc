#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "divergence/metric.h"
#include "divergence/tracker.h"
#include "priority/bound.h"
#include "priority/naive.h"
#include "priority/priority.h"
#include "priority/priority_queue.h"
#include "priority/sampling.h"
#include "priority/special_case.h"
#include "util/random.h"
#include "util/stats.h"

namespace besync {
namespace {

PriorityContext MakeContext(const DivergenceTracker* tracker, double weight = 1.0,
                            double lambda = 0.0, double max_rate = 0.0) {
  PriorityContext context;
  context.tracker = tracker;
  context.weight = weight;
  context.lambda_estimate = lambda;
  context.max_divergence_rate = max_rate;
  return context;
}

// -------------------------------------------------------------- Area policy

// Figure 3's intuition: two objects with equal current divergence; O1
// diverged late (small area under the curve), O2 diverged early. O1 must get
// the higher priority.
TEST(AreaPriorityTest, LateDivergerBeatsEarlyDiverger) {
  ValueDeviationMetric metric;
  AreaPriority policy;

  DivergenceTracker late(&metric);  // O1: jumped recently
  late.OnRefresh(0.0, 0.0, 0);
  late.OnUpdate(9.0, 5.0, 1);  // D = 5 since t = 9

  DivergenceTracker early(&metric);  // O2: jumped right after refresh
  early.OnRefresh(0.0, 0.0, 0);
  early.OnUpdate(1.0, 5.0, 1);  // D = 5 since t = 1

  const double now = 10.0;
  const double p_late = policy.Priority(MakeContext(&late), now);
  const double p_early = policy.Priority(MakeContext(&early), now);
  EXPECT_DOUBLE_EQ(late.current_divergence(), early.current_divergence());
  EXPECT_GT(p_late, p_early);
  // Exact areas: late = 10*5 - 5*1 = 45; early = 10*5 - 5*9 = 5.
  EXPECT_DOUBLE_EQ(p_late, 45.0);
  EXPECT_DOUBLE_EQ(p_early, 5.0);
}

TEST(AreaPriorityTest, FreshObjectHasNonPositivePriority) {
  ValueDeviationMetric metric;
  AreaPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  EXPECT_DOUBLE_EQ(policy.Priority(MakeContext(&tracker), 100.0), 0.0);
  // Diverged and returned: negative priority (refreshing buys nothing).
  tracker.OnUpdate(1.0, 2.0, 1);
  tracker.OnUpdate(3.0, 0.0, 2);
  EXPECT_LT(policy.Priority(MakeContext(&tracker), 10.0), 0.0);
}

TEST(AreaPriorityTest, WeightScalesPriority) {
  ValueDeviationMetric metric;
  AreaPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 3.0, 1);
  const double p1 = policy.Priority(MakeContext(&tracker, 1.0), 5.0);
  const double p10 = policy.Priority(MakeContext(&tracker, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(p10, 10.0 * p1);
}

// Expected priority growth is nonnegative (Section 4.1): simulate a random
// walk under value deviation and check the priority trend statistically.
TEST(AreaPriorityTest, PriorityGrowsInExpectation) {
  ValueDeviationMetric metric;
  AreaPriority policy;
  Rng rng(11);
  RunningStat deltas;
  for (int run = 0; run < 400; ++run) {
    DivergenceTracker tracker(&metric);
    tracker.OnRefresh(0.0, 0.0, 0);
    double value = 0.0;
    double t = 0.0;
    double previous = 0.0;
    for (int step = 0; step < 50; ++step) {
      t += rng.Exponential(1.0);
      value += rng.Bernoulli(0.5) ? 1.0 : -1.0;
      tracker.OnUpdate(t, value, step + 1);
      const double p = policy.Priority(MakeContext(&tracker), t);
      deltas.Add(p - previous);
      previous = p;
    }
  }
  EXPECT_GT(deltas.mean(), 0.0);
}

// ------------------------------------------------------------- Naive policy

TEST(NaivePriorityTest, EqualsWeightedDivergence) {
  ValueDeviationMetric metric;
  NaivePriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 4.0, 1);
  EXPECT_DOUBLE_EQ(policy.Priority(MakeContext(&tracker, 2.5), 9.0), 10.0);
}

// ------------------------------------------------- Poisson special cases

TEST(PoissonStalenessPriorityTest, ClosedForm) {
  StalenessMetric metric;
  PoissonStalenessPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  EXPECT_DOUBLE_EQ(policy.Priority(MakeContext(&tracker, 2.0, 0.5), 1.0), 0.0);
  tracker.OnUpdate(1.0, 1.0, 1);
  // P = D/lambda * W = 1/0.5 * 2 = 4.
  EXPECT_DOUBLE_EQ(policy.Priority(MakeContext(&tracker, 2.0, 0.5), 2.0), 4.0);
}

TEST(PoissonLagPriorityTest, ClosedForm) {
  LagMetric metric;
  PoissonLagPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  for (int u = 1; u <= 4; ++u) tracker.OnUpdate(u, u, u);
  // u = 4: P = 4*5 / (2*0.5) = 20.
  EXPECT_DOUBLE_EQ(policy.Priority(MakeContext(&tracker, 1.0, 0.5), 5.0), 20.0);
}

TEST(PoissonPriorityTest, ZeroLambdaGuarded) {
  LagMetric metric;
  PoissonLagPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 1.0, 1);
  const double p = policy.Priority(MakeContext(&tracker, 1.0, 0.0), 2.0);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_DOUBLE_EQ(p, 0.0);
}

// Property (Section 4.2): for Poisson updates, the *expected* general area
// priority immediately after the u-th update equals the closed forms:
//   lag:       u(u+1) / (2 lambda)
//   staleness: D_s / lambda  (with D_s = 1 right after an update... only if
//              the value actually differs; with monotone counters it does).
class PoissonEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonEquivalenceTest, AreaMatchesLagClosedFormInExpectation) {
  const double lambda = GetParam();
  LagMetric metric;
  AreaPriority area;
  Rng rng(1234 + static_cast<uint64_t>(lambda * 100));
  const int kRuns = 4000;
  const int kTargetUpdates = 5;
  RunningStat measured;
  for (int run = 0; run < kRuns; ++run) {
    DivergenceTracker tracker(&metric);
    tracker.OnRefresh(0.0, 0.0, 0);
    double t = 0.0;
    for (int u = 1; u <= kTargetUpdates; ++u) {
      t += rng.Exponential(lambda);
      tracker.OnUpdate(t, static_cast<double>(u), u);
    }
    measured.Add(area.Priority(MakeContext(&tracker), t));
  }
  const double expected =
      kTargetUpdates * (kTargetUpdates + 1) / (2.0 * lambda);
  EXPECT_NEAR(measured.mean(), expected,
              4.0 * measured.stddev() / std::sqrt(kRuns));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonEquivalenceTest,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0));

// ---------------------------------------------------------------- Bound

TEST(BoundPriorityTest, QuadraticGrowth) {
  ValueDeviationMetric metric;
  BoundPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  const auto context = MakeContext(&tracker, 2.0, 0.0, /*max_rate=*/0.5);
  // P = R t^2 / 2 * W = 0.5 * 16 / 2 * 2 = 8 at t = 4.
  EXPECT_DOUBLE_EQ(policy.Priority(context, 4.0), 8.0);
  EXPECT_TRUE(policy.time_varying());
}

TEST(BoundPriorityTest, CrossTimeInvertsPriority) {
  ValueDeviationMetric metric;
  BoundPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(10.0, 0.0, 0);
  const auto context = MakeContext(&tracker, 1.5, 0.0, 0.8);
  const double threshold = 7.0;
  const double cross = policy.ThresholdCrossTime(context, threshold, 10.0);
  EXPECT_NEAR(policy.Priority(context, cross), threshold, 1e-9);
  EXPECT_GT(cross, 10.0);
}

TEST(BoundPriorityTest, ZeroRateNeverCrosses) {
  ValueDeviationMetric metric;
  BoundPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  const auto context = MakeContext(&tracker, 1.0, 0.0, 0.0);
  EXPECT_TRUE(std::isinf(policy.ThresholdCrossTime(context, 1.0, 0.0)));
}

TEST(PolicyFactoryTest, ProducesAllKinds) {
  for (PolicyKind kind : {PolicyKind::kArea, PolicyKind::kNaive,
                          PolicyKind::kPoissonStaleness, PolicyKind::kPoissonLag,
                          PolicyKind::kBound}) {
    auto policy = MakePolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
  }
}

// ------------------------------------------------------------------- Heaps

TEST(LazyMaxHeapTest, PopsInPriorityOrder) {
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(3, 1);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  heap.Push(1.0, 0, 1);
  heap.Push(3.0, 1, 1);
  heap.Push(2.0, 2, 1);
  QueueEntry entry;
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_EQ(entry.index, 1);
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_EQ(entry.index, 2);
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_EQ(entry.index, 0);
  EXPECT_FALSE(heap.PopValid(fn, &entry));
}

TEST(LazyMaxHeapTest, StaleEntriesSkipped) {
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(2, 1);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  heap.Push(5.0, 0, 1);  // will be stale
  heap.Push(1.0, 1, 1);
  epochs[0] = 2;          // invalidate object 0's entry
  heap.Push(0.5, 0, 2);   // its replacement (lower priority now)
  QueueEntry entry;
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_EQ(entry.index, 1);
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_EQ(entry.index, 0);
  EXPECT_DOUBLE_EQ(entry.key, 0.5);
}

TEST(LazyMaxHeapTest, PeekDoesNotRemove) {
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(1, 1);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  heap.Push(2.0, 0, 1);
  QueueEntry entry;
  ASSERT_TRUE(heap.PeekValid(fn, &entry));
  ASSERT_TRUE(heap.PeekValid(fn, &entry));
  EXPECT_EQ(heap.size(), 1u);
}

TEST(LazyMaxHeapTest, CompactDropsStale) {
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(4, 0);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  for (int round = 0; round < 100; ++round) {
    for (ObjectIndex i = 0; i < 4; ++i) {
      ++epochs[i];
      heap.Push(static_cast<double>(round + i), i, epochs[i]);
    }
  }
  EXPECT_EQ(heap.size(), 400u);
  heap.Compact(fn);
  EXPECT_EQ(heap.size(), 4u);  // one live entry per object
  QueueEntry entry;
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_DOUBLE_EQ(entry.key, 102.0);  // round 99, i = 3
}

TEST(LazyMaxHeapTest, RestorePutsEntryBack) {
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(1, 1);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  heap.Push(2.0, 0, 1);
  QueueEntry entry;
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  heap.Restore(entry);
  ASSERT_TRUE(heap.PopValid(fn, &entry));
  EXPECT_DOUBLE_EQ(entry.key, 2.0);
}

TEST(TimeMinHeapTest, PopsOnlyDueEntries) {
  TimeMinHeap heap;
  std::vector<uint64_t> epochs(3, 1);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  heap.Push(5.0, 0, 1);
  heap.Push(1.0, 1, 1);
  heap.Push(3.0, 2, 1);
  QueueEntry entry;
  ASSERT_TRUE(heap.PopDue(3.0, fn, &entry));
  EXPECT_EQ(entry.index, 1);
  ASSERT_TRUE(heap.PopDue(3.0, fn, &entry));
  EXPECT_EQ(entry.index, 2);
  EXPECT_FALSE(heap.PopDue(3.0, fn, &entry));  // 5.0 not due
  ASSERT_TRUE(heap.PopDue(5.0, fn, &entry));
  EXPECT_EQ(entry.index, 0);
}

TEST(TimeMinHeapTest, StaleEntriesSkipped) {
  TimeMinHeap heap;
  std::vector<uint64_t> epochs(1, 1);
  const EpochFn fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  heap.Push(1.0, 0, 1);
  epochs[0] = 2;
  heap.Push(2.0, 0, 2);
  QueueEntry entry;
  ASSERT_TRUE(heap.PopDue(10.0, fn, &entry));
  EXPECT_DOUBLE_EQ(entry.key, 2.0);
  EXPECT_FALSE(heap.PopDue(10.0, fn, &entry));
}

// ---------------------------------------------------------------- Sampling

TEST(SampledTrackerTest, MidpointIntegralAttribution) {
  SampledTracker tracker;
  tracker.OnRefresh(0.0);
  tracker.AddSample(2.0, 4.0);  // D=4 observed at t=2
  tracker.AddSample(4.0, 6.0);  // D=6 observed at t=4
  // Segments: D=0 on [0,1), D=4 on [1,3), D=6 on [3,4]:
  // ∫ to 4 = 0*1 + 4*2 + 6*1 = 14.
  EXPECT_DOUBLE_EQ(tracker.EstimatedIntegralTo(4.0), 14.0);
  EXPECT_DOUBLE_EQ(tracker.estimated_divergence(), 6.0);
  // Priority = 4*6 - 14 = 10.
  EXPECT_DOUBLE_EQ(tracker.EstimatedPriority(4.0), 10.0);
}

TEST(SampledTrackerTest, RefreshResets) {
  SampledTracker tracker;
  tracker.OnRefresh(0.0);
  tracker.AddSample(1.0, 5.0);
  tracker.OnRefresh(2.0);
  EXPECT_DOUBLE_EQ(tracker.estimated_divergence(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.EstimatedIntegralTo(5.0), 0.0);
  EXPECT_EQ(tracker.samples_since_refresh(), 0);
}

TEST(SampledTrackerTest, PredictCrossTimeMatchesPaperFormula) {
  SampledTracker tracker(/*rate_smoothing=*/1.0);
  tracker.OnRefresh(0.0);
  tracker.AddSample(1.0, 1.0);
  tracker.AddSample(2.0, 2.0);  // rate = 1/s
  const double now = 2.0;
  const double threshold = 10.0;
  const double weight = 1.0;
  const double priority_now = tracker.EstimatedPriority(now) * weight;
  const double expected =
      0.0 + std::sqrt(now * now + 2.0 * (threshold - priority_now) /
                                      (tracker.estimated_rate() * weight));
  EXPECT_DOUBLE_EQ(tracker.PredictCrossTime(threshold, weight, now), expected);
}

TEST(SampledTrackerTest, AlreadyOverThresholdReturnsNow) {
  SampledTracker tracker;
  tracker.OnRefresh(0.0);
  tracker.AddSample(1.0, 100.0);
  EXPECT_DOUBLE_EQ(tracker.PredictCrossTime(0.5, 1.0, 2.0), 2.0);
}

TEST(SampledTrackerTest, NoRateMeansNeverCrosses) {
  SampledTracker tracker;
  tracker.OnRefresh(0.0);
  EXPECT_TRUE(std::isinf(tracker.PredictCrossTime(5.0, 1.0, 1.0)));
}

TEST(SampledTrackerTest, EstimateApproachesExactWithDenseSampling) {
  // Sample a known piecewise-constant divergence curve densely; the sampled
  // integral should approach the exact one.
  LagMetric metric;
  DivergenceTracker exact(&metric);
  exact.OnRefresh(0.0, 0.0, 0);
  SampledTracker sampled;
  sampled.OnRefresh(0.0);
  Rng rng(3);
  double t = 0.0;
  int version = 0;
  double next_update = rng.Exponential(0.5);
  for (int step = 1; step <= 2000; ++step) {
    const double sample_time = step * 0.05;
    while (next_update <= sample_time) {
      ++version;
      exact.OnUpdate(next_update, version, version);
      next_update += rng.Exponential(0.5);
    }
    t = sample_time;
    sampled.AddSample(t, exact.current_divergence());
  }
  EXPECT_NEAR(sampled.EstimatedIntegralTo(t), exact.IntegralTo(t),
              0.05 * exact.IntegralTo(t) + 1.0);
}

}  // namespace
}  // namespace besync
