// Microbenchmarks (google-benchmark) for the hot paths of the library:
// priority computation, tracker updates, lazy-heap churn, the threshold
// controller, the CGM allocation solver, ground-truth accounting, and the
// end-to-end simulation tick rate.

#include <benchmark/benchmark.h>

#include "baseline/freq_allocation.h"
#include "core/system.h"
#include "core/threshold.h"
#include "divergence/ground_truth.h"
#include "divergence/metric.h"
#include "divergence/tracker.h"
#include "exp/experiment.h"
#include "priority/priority.h"
#include "priority/priority_queue.h"
#include "sim/simulation.h"
#include "util/random.h"

namespace besync {
namespace {

void BM_RngNextUint64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUint64());
  }
}
BENCHMARK(BM_RngNextUint64);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Exponential(0.5));
  }
}
BENCHMARK(BM_RngExponential);

void BM_TrackerUpdate(benchmark::State& state) {
  ValueDeviationMetric metric;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  double t = 0.0;
  double value = 0.0;
  int64_t version = 0;
  for (auto _ : state) {
    t += 0.5;
    value += 1.0;
    tracker.OnUpdate(t, value, ++version);
    if (version % 64 == 0) tracker.OnRefresh(t, value, version);
  }
}
BENCHMARK(BM_TrackerUpdate);

void BM_AreaPriority(benchmark::State& state) {
  ValueDeviationMetric metric;
  AreaPriority policy;
  DivergenceTracker tracker(&metric);
  tracker.OnRefresh(0.0, 0.0, 0);
  tracker.OnUpdate(1.0, 3.0, 1);
  PriorityContext context;
  context.tracker = &tracker;
  context.weight = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Priority(context, 10.0));
  }
}
BENCHMARK(BM_AreaPriority);

void BM_LazyHeapChurn(benchmark::State& state) {
  const int64_t n = state.range(0);
  LazyMaxHeap heap;
  std::vector<uint64_t> epochs(n, 0);
  const EpochFn epoch_fn = [&epochs](ObjectIndex i) { return epochs[i]; };
  Rng rng(2);
  // Steady-state: push (update), occasionally pop (refresh).
  for (auto _ : state) {
    const ObjectIndex i = rng.UniformInt(0, n - 1);
    ++epochs[i];
    heap.Push(rng.NextDouble(), i, epochs[i]);
    if (heap.size() > static_cast<size_t>(4 * n)) heap.Compact(epoch_fn);
    QueueEntry entry;
    if (heap.PopValid(epoch_fn, &entry)) {
      ++epochs[entry.index];
    }
  }
}
BENCHMARK(BM_LazyHeapChurn)->Arg(100)->Arg(10000);

void BM_ThresholdControllerCycle(benchmark::State& state) {
  ThresholdConfig config;
  ThresholdController controller(config, 10.0, 0.0);
  double t = 0.0;
  int i = 0;
  for (auto _ : state) {
    t += 1.0;
    controller.OnRefreshSent(t);
    if (++i % 24 == 0) controller.OnFeedback(t, false);
    benchmark::DoNotOptimize(controller.threshold());
  }
}
BENCHMARK(BM_ThresholdControllerCycle);

void BM_FreshnessAllocation(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  std::vector<double> lambdas(n);
  for (double& lambda : lambdas) lambda = rng.Uniform(0.01, 1.0);
  for (auto _ : state) {
    auto result = SolveFreshnessAllocation(lambdas, {}, 0.3 * n);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FreshnessAllocation)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GroundTruthEvents(benchmark::State& state) {
  WorkloadConfig config;
  config.num_sources = 10;
  config.objects_per_source = 100;
  config.seed = 4;
  Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  ValueDeviationMetric metric;
  GroundTruth ground_truth(&workload, &metric);
  ground_truth.Initialize(0.0);
  Rng rng(5);
  double t = 0.0;
  std::vector<int64_t> versions(workload.objects.size(), 0);
  std::vector<double> values(workload.objects.size(), 0.0);
  for (auto _ : state) {
    t += 0.001;
    const ObjectIndex i = rng.UniformInt(0, workload.total_objects() - 1);
    values[i] += rng.Bernoulli(0.5) ? 1.0 : -1.0;
    ground_truth.OnSourceUpdate(i, t, values[i], ++versions[i]);
    if (rng.Bernoulli(0.3)) {
      ground_truth.OnCacheApply(i, t, values[i], versions[i]);
    }
  }
}
BENCHMARK(BM_GroundTruthEvents);

void NoOpEvent(void* /*context*/, uint64_t /*payload*/, double /*t*/) {}

void BM_SimulationEventChurn(benchmark::State& state) {
  Simulation sim;
  sim.RegisterHandler(kObjectUpdateEvent, &NoOpEvent, nullptr);
  double t = 0.0;
  uint64_t payload = 0;
  for (auto _ : state) {
    t += 1.0;
    sim.ScheduleAt(t, kObjectUpdateEvent, payload++);
    sim.RunUntil(t);
  }
}
BENCHMARK(BM_SimulationEventChurn);

// End-to-end throughput: one full (small) cooperative run per iteration;
// the counter reports simulated object-seconds per wall second.
void BM_CooperativeEndToEnd(benchmark::State& state) {
  const int64_t m = state.range(0);
  for (auto _ : state) {
    ExperimentConfig config;
    config.scheduler = SchedulerKind::kCooperative;
    config.metric = MetricKind::kValueDeviation;
    config.workload.num_sources = static_cast<int>(m);
    config.workload.objects_per_source = 10;
    config.workload.seed = 6;
    config.harness.warmup = 10.0;
    config.harness.measure = 100.0;
    config.cache_bandwidth_avg = 0.3 * m * 10;
    auto result = RunExperiment(config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * m * 10 * 110);
}
BENCHMARK(BM_CooperativeEndToEnd)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace besync

BENCHMARK_MAIN();
