// Multi-cache topology tests: interest-map generation, the (cache, source)
// control channel, per-cache divergence accounting, and the central
// correctness property — caches on disjoint partitions behave exactly like
// independent single-cache systems over the corresponding sub-workloads.

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "divergence/metric.h"
#include "exp/experiment.h"
#include "net/network.h"

namespace besync {
namespace {

// ------------------------------------------------------- interest mapping

TEST(InterestMapTest, DefaultSingleCache) {
  WorkloadConfig config;
  config.num_sources = 3;
  config.objects_per_source = 4;
  const Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  EXPECT_EQ(workload.num_caches, 1);
  for (const ObjectSpec& spec : workload.objects) {
    ASSERT_EQ(spec.num_replicas(), 1);
    EXPECT_EQ(spec.caches[0], 0);
    EXPECT_EQ(spec.replica_slot(0), 0);
    EXPECT_EQ(spec.replica_slot(1), -1);
  }
  EXPECT_EQ(workload.total_replicas(), workload.total_objects());
}

TEST(InterestMapTest, SingleCachePatternRejectsMultipleCaches) {
  WorkloadConfig config;
  config.num_caches = 2;  // pattern stays kSingleCache
  EXPECT_FALSE(MakeWorkload(config).ok());
}

TEST(InterestMapTest, PartitionedBySourceIsDisjoint) {
  WorkloadConfig config;
  config.num_sources = 6;
  config.objects_per_source = 5;
  config.num_caches = 3;
  config.interest_pattern = InterestPattern::kPartitionedBySource;
  const Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  for (const ObjectSpec& spec : workload.objects) {
    ASSERT_EQ(spec.num_replicas(), 1);
    EXPECT_EQ(spec.caches[0], spec.source_index % 3);
  }
  const auto sources = SourcesByCache(workload);
  ASSERT_EQ(sources.size(), 3u);
  EXPECT_EQ(sources[0], (std::vector<int32_t>{0, 3}));
  EXPECT_EQ(sources[1], (std::vector<int32_t>{1, 4}));
  EXPECT_EQ(sources[2], (std::vector<int32_t>{2, 5}));
}

TEST(InterestMapTest, FullReplicationCoversEveryCache) {
  WorkloadConfig config;
  config.num_sources = 2;
  config.objects_per_source = 3;
  config.num_caches = 4;
  config.interest_pattern = InterestPattern::kFullReplication;
  const Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  EXPECT_EQ(workload.total_replicas(), 4 * workload.total_objects());
  for (const ObjectSpec& spec : workload.objects) {
    ASSERT_EQ(spec.num_replicas(), 4);
    for (int c = 0; c < 4; ++c) EXPECT_EQ(spec.replica_slot(c), c);
  }
  for (const auto& list : SourcesByCache(workload)) {
    EXPECT_EQ(list, (std::vector<int32_t>{0, 1}));
  }
}

TEST(InterestMapTest, ZipfOverlapIsValidAndSkewed) {
  WorkloadConfig config;
  config.num_sources = 8;
  config.objects_per_source = 50;
  config.num_caches = 4;
  config.interest_pattern = InterestPattern::kZipfOverlap;
  const Workload workload = std::move(MakeWorkload(config)).ValueOrDie();
  int64_t single = 0;
  for (const ObjectSpec& spec : workload.objects) {
    ASSERT_GE(spec.num_replicas(), 1);
    ASSERT_LE(spec.num_replicas(), 4);
    // Sorted, duplicate-free, in range, and containing the primary cache.
    for (int r = 0; r < spec.num_replicas(); ++r) {
      EXPECT_GE(spec.caches[r], 0);
      EXPECT_LT(spec.caches[r], 4);
      if (r > 0) {
        EXPECT_LT(spec.caches[r - 1], spec.caches[r]);
      }
    }
    EXPECT_GE(spec.replica_slot(spec.source_index % 4), 0);
    if (spec.num_replicas() == 1) ++single;
  }
  // Zipf skew: a majority of objects live at exactly one cache, but overlap
  // exists.
  EXPECT_GT(single, workload.total_objects() / 2);
  EXPECT_GT(workload.total_replicas(), workload.total_objects());
}

TEST(InterestMapTest, InterestAssignmentDoesNotPerturbGenerator) {
  // Multi-cache interest uses a dedicated RNG stream: the object parameters
  // (rates, seeds, weights) must be identical to the single-cache workload
  // of the same seed.
  WorkloadConfig base;
  base.num_sources = 4;
  base.objects_per_source = 10;
  base.seed = 31;
  WorkloadConfig multi = base;
  multi.num_caches = 2;
  multi.interest_pattern = InterestPattern::kZipfOverlap;
  const Workload a = std::move(MakeWorkload(base)).ValueOrDie();
  const Workload b = std::move(MakeWorkload(multi)).ValueOrDie();
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].lambda, b.objects[i].lambda);
    EXPECT_EQ(a.objects[i].rng_seed, b.objects[i].rng_seed);
    EXPECT_EQ(a.objects[i].refresh_cost, b.objects[i].refresh_cost);
  }
}

// ------------------------------------------------- (cache, source) mail

TEST(MulticacheNetworkTest, MailIsKeyedByCacheAndSource) {
  NetworkConfig config;
  config.num_sources = 2;
  config.num_caches = 2;
  Rng rng(5);
  Network network(config, &rng);
  network.BeginTick(0.0, 1.0);

  ControlMessage from_cache1;
  from_cache1.cache_id = 1;
  from_cache1.source_index = 0;
  network.SendToSource(from_cache1);

  // Deposited during tick 0: invisible this tick.
  EXPECT_TRUE(network.control_mail().empty());

  network.BeginTick(1.0, 1.0);
  // Delivered once, under the (cache 1, source 0) key only.
  const std::vector<ControlMessage>& mail = network.control_mail();
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].cache_id, 1);
  EXPECT_EQ(mail[0].source_index, 0);
  network.BeginTick(2.0, 1.0);
  EXPECT_TRUE(network.control_mail().empty());
}

TEST(MulticacheNetworkTest, PerCacheBandwidthOverrides) {
  NetworkConfig config;
  config.num_sources = 1;
  config.num_caches = 3;
  config.cache_bandwidth_avg = 10.0;
  config.cache_bandwidth_overrides = {0.0, 4.0};  // cache 0 falls back
  Rng rng(5);
  Network network(config, &rng);
  network.BeginTick(0.0, 1.0);
  EXPECT_EQ(network.cache_link(0).tick_budget(), 10);
  EXPECT_EQ(network.cache_link(1).tick_budget(), 4);
  EXPECT_EQ(network.cache_link(2).tick_budget(), 10);
}

// ------------------------------------------- partition ≡ independent runs

/// Extracts the sub-workload of the sources interested in `cache_id` from a
/// freshly generated copy of the partitioned workload, renumbered densely
/// and re-targeted at a single cache. Object processes, rates, weights and
/// RNG seeds are preserved, so update streams are identical to the full
/// run's.
Workload BuildSubWorkload(const WorkloadConfig& config, int32_t cache_id) {
  Workload full = std::move(MakeWorkload(config)).ValueOrDie();
  Workload sub;
  sub.objects_per_source = full.objects_per_source;
  sub.num_caches = 1;
  sub.has_fluctuating_weights = full.has_fluctuating_weights;
  int32_t next_source = -1;
  int32_t last_original_source = -1;
  for (ObjectSpec& spec : full.objects) {
    if (spec.caches.front() != cache_id) continue;
    if (spec.source_index != last_original_source) {
      last_original_source = spec.source_index;
      ++next_source;
    }
    spec.source_index = next_source;
    spec.index = static_cast<ObjectIndex>(sub.objects.size());
    spec.caches = {0};
    sub.objects.push_back(std::move(spec));
  }
  sub.num_sources = next_source + 1;
  return sub;
}

TEST(MulticachePartitionTest, TwoCachesMatchIndependentSingleCacheRuns) {
  WorkloadConfig workload_config;
  workload_config.num_sources = 4;
  workload_config.objects_per_source = 15;
  workload_config.seed = 101;
  workload_config.num_caches = 2;
  workload_config.interest_pattern = InterestPattern::kPartitionedBySource;

  HarnessConfig harness_config;
  harness_config.warmup = 50.0;
  harness_config.measure = 400.0;

  // Constant bandwidths, with every cache link wide enough to drain its
  // per-tick arrivals (sources are the bottleneck): intra-tick enqueue order
  // then has no effect on delivery times, so the full run and the isolated
  // sub-runs see identical protocol dynamics.
  const double cache_bandwidth = 12.0;
  const double source_bandwidth = 3.0;

  CooperativeConfig coop;
  coop.cache_bandwidth_avg = cache_bandwidth;
  coop.source_bandwidth_avg = source_bandwidth;

  const auto metric = MakeMetric(MetricKind::kValueDeviation);

  // Full 2-cache run.
  const Workload full = std::move(MakeWorkload(workload_config)).ValueOrDie();
  CooperativeScheduler full_scheduler(coop);
  const auto full_result =
      RunScheduler(&full, metric.get(), harness_config, &full_scheduler);
  ASSERT_TRUE(full_result.ok());
  ASSERT_EQ(full_result->per_cache_weighted.size(), 2u);

  // Independent single-cache runs over the two sub-workloads.
  for (int32_t cache_id = 0; cache_id < 2; ++cache_id) {
    const Workload sub = BuildSubWorkload(workload_config, cache_id);
    ASSERT_EQ(sub.num_sources, 2);
    CooperativeScheduler sub_scheduler(coop);
    const auto sub_result =
        RunScheduler(&sub, metric.get(), harness_config, &sub_scheduler);
    ASSERT_TRUE(sub_result.ok());
    // Tolerance covers float non-associativity from same-tick apply order;
    // any scheduling difference would shift delivery by whole ticks and
    // show up orders of magnitude larger.
    EXPECT_NEAR(full_result->per_cache_weighted[cache_id],
                sub_result->total_weighted_divergence,
                1e-7 * (1.0 + sub_result->total_weighted_divergence))
        << "cache " << cache_id;
  }

  // The per-cache breakdown sums to the reported objective.
  EXPECT_NEAR(full_result->per_cache_weighted[0] + full_result->per_cache_weighted[1],
              full_result->total_weighted_divergence,
              1e-9 * (1.0 + full_result->total_weighted_divergence));
}

// -------------------------------------------------- overlapping interest

TEST(MulticacheOverlapTest, FullReplicationRunsAndFeedsEveryCache) {
  WorkloadConfig workload_config;
  workload_config.num_sources = 3;
  workload_config.objects_per_source = 10;
  workload_config.seed = 55;
  workload_config.num_caches = 2;
  workload_config.interest_pattern = InterestPattern::kFullReplication;
  const Workload workload = std::move(MakeWorkload(workload_config)).ValueOrDie();

  HarnessConfig harness_config;
  harness_config.warmup = 20.0;
  harness_config.measure = 200.0;

  CooperativeConfig coop;
  coop.cache_bandwidth_avg = 10.0;
  coop.source_bandwidth_avg = 6.0;
  CooperativeScheduler scheduler(coop);
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  const auto result = RunScheduler(&workload, metric.get(), harness_config, &scheduler);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(scheduler.num_caches(), 2);
  // Every source maintains one threshold channel per cache.
  for (int j = 0; j < scheduler.num_sources(); ++j) {
    ASSERT_EQ(scheduler.source(j).num_channels(), 2);
    EXPECT_EQ(scheduler.source(j).channel_cache_id(0), 0);
    EXPECT_EQ(scheduler.source(j).channel_cache_id(1), 1);
  }
  // Both caches actually received refreshes and the accounting covers both.
  EXPECT_GT(scheduler.cache_link(0).push_units_delivered(), 0);
  EXPECT_GT(scheduler.cache_link(1).push_units_delivered(), 0);
  EXPECT_GT(result->per_cache_weighted[0], 0.0);
  EXPECT_GT(result->per_cache_weighted[1], 0.0);
  EXPECT_NEAR(result->per_cache_weighted[0] + result->per_cache_weighted[1],
              result->total_weighted_divergence,
              1e-9 * (1.0 + result->total_weighted_divergence));
}

TEST(MulticacheOverlapTest, PerCacheFeedbackAdjustsOnlyThatThreshold) {
  // Give cache 1 almost no bandwidth: its channel thresholds must stay high
  // (starved of feedback) while cache 0's channels are fed and drop.
  WorkloadConfig workload_config;
  workload_config.num_sources = 2;
  workload_config.objects_per_source = 10;
  workload_config.seed = 77;
  workload_config.num_caches = 2;
  workload_config.interest_pattern = InterestPattern::kFullReplication;
  const Workload workload = std::move(MakeWorkload(workload_config)).ValueOrDie();

  HarnessConfig harness_config;
  harness_config.warmup = 20.0;
  harness_config.measure = 300.0;

  CooperativeConfig coop;
  coop.cache_bandwidth_avg = 30.0;  // ample: cache 0 constantly feeds back
  coop.cache_bandwidths = {0.0, 1.0};  // cache 1 starved
  coop.source_bandwidth_avg = -1.0;
  CooperativeScheduler scheduler(coop);
  const auto metric = MakeMetric(MetricKind::kValueDeviation);
  const auto result = RunScheduler(&workload, metric.get(), harness_config, &scheduler);
  ASSERT_TRUE(result.ok());

  for (int j = 0; j < scheduler.num_sources(); ++j) {
    // Channel 0 (cache 0) got feedback every tick; channel 1 seldom did and
    // its refreshes kept bumping T_{j,1} upward.
    EXPECT_LT(scheduler.source(j).threshold(0), scheduler.source(j).threshold(1))
        << "source " << j;
  }
}

}  // namespace
}  // namespace besync
