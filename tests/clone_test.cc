// Deep-copyable workloads: CloneWorkload must (a) reproduce exactly the run
// a config-rebuilt workload produces, (b) share no mutable state with the
// original, and (c) let one trace-derived workload fan out across the
// parallel runner with byte-identical JSON at any thread count.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "data/buoy_trace.h"
#include "data/workload.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "util/fluctuation.h"

namespace besync {
namespace {

WorkloadConfig SmallSyntheticConfig() {
  WorkloadConfig config;
  config.num_sources = 3;
  config.objects_per_source = 5;
  config.rate_distribution = RateDistribution::kHalfSlowHalfFast;
  config.weight_scheme = WeightScheme::kHalfHeavy;
  config.cost_scheme = CostScheme::kHalfLarge;
  config.weight_fluctuation_amplitude = 0.4;  // exercises SineFluctuation::Clone
  config.seed = 42;
  return config;
}

BuoyTraceConfig SmallBuoyConfig() {
  BuoyTraceConfig config;
  config.num_buoys = 3;
  config.duration = 4.0 * 3600.0;
  config.seed = 2026;
  return config;
}

// Every UpdateProcess subclass: the clone, fed the same RNG stream, emits
// exactly the update stream the original would have emitted — including
// mid-replay cursor state for TraceProcess.
TEST(CloneTest, ProcessClonesReplayIdenticalStreams) {
  std::vector<std::unique_ptr<UpdateProcess>> processes;
  processes.push_back(std::make_unique<PoissonRandomWalkProcess>(0.7, 2.0));
  processes.push_back(std::make_unique<BernoulliRandomWalkProcess>(0.3, 1.5));
  processes.push_back(std::make_unique<RegimeSwitchingProcess>(0.1, 2.0, 50.0));
  processes.push_back(std::make_unique<DriftProcess>(0.25, 1.0));
  processes.push_back(std::make_unique<TraceProcess>(std::vector<TracePoint>{
      {1.0, 5.0}, {2.5, 6.0}, {4.0, 4.5}, {7.0, 5.5}}));

  for (const auto& original : processes) {
    // Advance the original a little so cursor state (TraceProcess) is
    // mid-stream when cloned.
    Rng warm(9);
    double t = original->NextUpdateTime(0.0, &warm);
    double value = 0.0;
    if (t < std::numeric_limits<double>::infinity()) {
      value = original->ApplyUpdate(value, &warm);
    }

    const std::unique_ptr<UpdateProcess> clone = original->Clone();
    EXPECT_EQ(clone->rate(), original->rate());

    Rng rng_a(123);
    Rng rng_b(123);
    double value_a = value;
    double value_b = value;
    double now = t;
    for (int i = 0; i < 16; ++i) {
      const double next_a = original->NextUpdateTime(now, &rng_a);
      const double next_b = clone->NextUpdateTime(now, &rng_b);
      EXPECT_EQ(next_a, next_b);
      if (next_a == std::numeric_limits<double>::infinity()) break;
      value_a = original->ApplyUpdate(value_a, &rng_a);
      value_b = clone->ApplyUpdate(value_b, &rng_b);
      EXPECT_EQ(value_a, value_b);
      now = next_a;
    }
  }
}

TEST(CloneTest, FluctuationClonesMatchPointwise) {
  const ConstantFluctuation constant(3.5);
  const SineFluctuation sine(2.0, 0.5, 300.0, 1.25);
  const Fluctuation* originals[] = {&constant, &sine};
  for (const Fluctuation* original : originals) {
    const std::unique_ptr<Fluctuation> clone = original->Clone();
    EXPECT_EQ(clone->average(), original->average());
    for (double t : {0.0, 17.3, 150.0, 299.9, 1234.5}) {
      EXPECT_EQ(clone->ValueAt(t), original->ValueAt(t));
    }
  }
}

TEST(CloneTest, CloneMatchesOriginalSpecs) {
  const Workload original =
      std::move(MakeWorkload(SmallSyntheticConfig())).ValueOrDie();
  const Workload clone = CloneWorkload(original);

  EXPECT_EQ(clone.num_sources, original.num_sources);
  EXPECT_EQ(clone.objects_per_source, original.objects_per_source);
  EXPECT_EQ(clone.num_caches, original.num_caches);
  EXPECT_EQ(clone.has_fluctuating_weights, original.has_fluctuating_weights);
  ASSERT_EQ(clone.objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    const ObjectSpec& a = original.objects[i];
    const ObjectSpec& b = clone.objects[i];
    EXPECT_EQ(b.index, a.index);
    EXPECT_EQ(b.source_index, a.source_index);
    EXPECT_EQ(b.caches, a.caches);
    EXPECT_EQ(b.lambda, a.lambda);
    EXPECT_EQ(b.initial_value, a.initial_value);
    EXPECT_EQ(b.max_divergence_rate, a.max_divergence_rate);
    EXPECT_EQ(b.refresh_cost, a.refresh_cost);
    EXPECT_EQ(b.rng_seed, a.rng_seed);
    // Deep, not shallow: the owned polymorphic members are fresh objects.
    ASSERT_NE(b.process, nullptr);
    ASSERT_NE(b.weight, nullptr);
    EXPECT_NE(b.process.get(), a.process.get());
    EXPECT_NE(b.weight.get(), a.weight.get());
    EXPECT_EQ(b.process->rate(), a.process->rate());
    EXPECT_EQ(b.weight->ValueAt(12.5), a.weight->ValueAt(12.5));
  }
}

// The headline guarantee: running a scheduler on a clone produces the
// bitwise-identical RunResult a config-rebuilt workload produces.
TEST(CloneTest, CloneRunEqualsRebuildRun) {
  ExperimentConfig config;
  config.workload = SmallSyntheticConfig();
  config.harness.warmup = 10.0;
  config.harness.measure = 100.0;
  config.cache_bandwidth_avg = 6.0;

  for (SchedulerKind scheduler :
       {SchedulerKind::kCooperative, SchedulerKind::kRoundRobin}) {
    config.scheduler = scheduler;

    const Result<RunResult> rebuilt = RunExperiment(config);
    ASSERT_TRUE(rebuilt.ok());

    const Workload base = std::move(MakeWorkload(config.workload)).ValueOrDie();
    Workload clone = CloneWorkload(base);
    const Result<RunResult> cloned = RunExperimentOnWorkload(config, &clone);
    ASSERT_TRUE(cloned.ok());

    EXPECT_EQ(cloned->total_weighted_divergence, rebuilt->total_weighted_divergence);
    EXPECT_EQ(cloned->per_cache_weighted, rebuilt->per_cache_weighted);
    EXPECT_EQ(cloned->per_object_weighted, rebuilt->per_object_weighted);
    EXPECT_EQ(cloned->per_object_unweighted, rebuilt->per_object_unweighted);
    EXPECT_EQ(cloned->total_replicas, rebuilt->total_replicas);
    EXPECT_EQ(cloned->scheduler.refreshes_sent, rebuilt->scheduler.refreshes_sent);
    EXPECT_EQ(cloned->scheduler.refreshes_delivered,
              rebuilt->scheduler.refreshes_delivered);
    EXPECT_EQ(cloned->scheduler.feedback_sent, rebuilt->scheduler.feedback_sent);
  }
}

// Mutating a clone (running it, touching its specs) must leave the original
// untouched — the property that makes concurrent fan-out safe.
TEST(CloneTest, MutatingCloneLeavesOriginalUntouched) {
  const Workload original =
      std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();
  Workload clone = CloneWorkload(original);

  // Advance every clone process cursor past several trace points.
  Rng rng(5);
  for (ObjectSpec& spec : clone.objects) {
    double now = 0.0;
    for (int i = 0; i < 3; ++i) {
      now = spec.process->NextUpdateTime(now, &rng);
      spec.process->ApplyUpdate(0.0, &rng);
    }
    spec.caches.push_back(99);  // structural mutation
    spec.lambda = -1.0;
  }

  // The original still replays from the first trace point, and its specs
  // are unchanged.
  Rng rng2(5);
  for (const ObjectSpec& spec : original.objects) {
    const auto* trace = static_cast<const TraceProcess*>(spec.process.get());
    EXPECT_GT(trace->num_points(), 0u);
    EXPECT_EQ(spec.caches, std::vector<int32_t>{0});
    EXPECT_GE(spec.lambda, 0.0);
    // Cursor untouched: the next update is still the earliest trace time.
    const double first = spec.process->NextUpdateTime(0.0, &rng2);
    EXPECT_LE(first, kBuoyMeasurementInterval + 1e-9);
  }

  // And a run over a fresh clone of the original still matches a run over
  // the original itself (sequential reuse is safe after Reset).
  ExperimentConfig config;
  config.harness.tick_length = 60.0;
  config.harness.warmup = 600.0;
  config.harness.measure = 3000.0;
  config.cache_bandwidth_avg = 0.05;
  Workload fresh = CloneWorkload(original);
  const Result<RunResult> a = RunExperimentOnWorkload(config, &fresh);
  ASSERT_TRUE(a.ok());
  Workload fresh2 = CloneWorkload(original);
  const Result<RunResult> b = RunExperimentOnWorkload(config, &fresh2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_weighted_divergence, b->total_weighted_divergence);
}

// Clone fan-out across the runner: threads=1 and threads=8 produce
// bitwise-identical results and byte-identical JSON over a trace-derived
// workload no WorkloadConfig can rebuild.
TEST(CloneTest, TraceFanOutIsThreadCountInvariant) {
  const Workload base = std::move(MakeBuoyWorkload(SmallBuoyConfig())).ValueOrDie();

  std::vector<ExperimentJob> jobs;
  for (SchedulerKind scheduler :
       {SchedulerKind::kCooperative, SchedulerKind::kIdealCooperative,
        SchedulerKind::kRoundRobin}) {
    for (double bandwidth : {0.02, 0.1}) {
      ExperimentJob job;
      job.name = SchedulerKindToString(scheduler) + ",B=" +
                 TablePrinter::Cell(bandwidth);
      job.config.scheduler = scheduler;
      job.config.harness.tick_length = 60.0;
      job.config.harness.warmup = 600.0;
      job.config.harness.measure = 3000.0;
      job.config.cache_bandwidth_avg = bandwidth;
      job.config.workload.seed = SmallBuoyConfig().seed;  // metadata only
      jobs.push_back(std::move(job));
    }
  }

  RunnerOptions sequential;
  sequential.threads = 1;
  const std::vector<JobResult> one = RunExperimentsOnWorkload(base, jobs, sequential);

  RunnerOptions parallel;
  parallel.threads = 8;
  const std::vector<JobResult> eight = RunExperimentsOnWorkload(base, jobs, parallel);

  ASSERT_EQ(one.size(), jobs.size());
  ASSERT_EQ(eight.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(one[i].name, jobs[i].name);
    ASSERT_TRUE(one[i].status.ok()) << one[i].status.ToString();
    ASSERT_TRUE(eight[i].status.ok()) << eight[i].status.ToString();
    EXPECT_EQ(one[i].result.total_weighted_divergence,
              eight[i].result.total_weighted_divergence);
    EXPECT_EQ(one[i].result.scheduler.refreshes_delivered,
              eight[i].result.scheduler.refreshes_delivered);
    // The runner stamps the topology from the base workload.
    EXPECT_EQ(one[i].config.workload.num_caches, base.num_caches);
  }

  std::ostringstream json_one;
  std::ostringstream json_eight;
  WriteResultsJson(json_one, one);
  WriteResultsJson(json_eight, eight);
  EXPECT_EQ(json_one.str(), json_eight.str());  // byte-identical
}

}  // namespace
}  // namespace besync
