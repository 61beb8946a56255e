// bench_engine: the engine's sweep suites, one per invocation.
//
//   --suite=fault       crash count x protocol x relay depth x recovery
//                       policy: the recovery crossover
//   --suite=multicache  N in {1,2,4,8} caches under partitioned vs Zipf-
//                       overlap interest
//   --suite=protocol    read rate x B_C x relay depth x protocol: the
//                       protocol crossover
//   --suite=readpath    read rate x capacity x eviction policy: hit rate,
//                       read staleness and pull contention
//   --suite=scale       zipped (sources, objects, caches) points up to
//                       1M objects x 1k caches
//   --suite=tree        flat vs 2- and 3-tier relay trees at matched total
//                       edge bandwidth
//
// --suite is required; a missing or unknown name exits 2. Each suite accepts
// its own flags (kSuites below) plus the common ones (bench_common.h), and
// any other flag exits 2: the suites give the same flag different defaults,
// so one invocation runs one suite. Each suite builds its grid inline, next
// to the printer that walks it, so the grid order is decided in one place.
// Every suite runs on the experiment runner, cooperative only, so
// --threads=N parallelizes its grid, and its stdout, --json and --csv are
// byte-identical at any thread count. No column carries wall-clock time;
// hostbench/ is the repo's wall clock.
//
// Default mode runs the scaled-down grids that tools/record_bench.py records
// as BENCH_*.json; --full runs the paper-scale ones.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "data/topology.h"

namespace besync {
namespace {

using Jobs = std::vector<ExperimentJob>;
using Results = std::vector<JobResult>;

/// What a suite's builder returns: its jobs, and what it prints from their
/// results.
struct Plan {
  Jobs jobs;
  std::function<void(const Results&)> print;
};

/// The base every suite shares: the cooperative scheduler under value
/// deviation on `sources` x `objects` (--sources, --objects) with update
/// rates U(0,1), over `caches` (--caches) under partitioned interest, or the
/// single-cache pattern at one cache; --seed, --warmup, --measure, and the
/// obs flags of the suites that take them. A flag the suite does not accept
/// never parses, so its default holds.
ExperimentConfig SweepBase(const BenchOptions& options, int sources, int objects,
                           int caches, double warmup, double measure) {
  ExperimentConfig base;
  base.scheduler = SchedulerKind::kCooperative;
  base.metric = MetricKind::kValueDeviation;
  base.workload.num_sources = IntFlag(options.flags, "sources", sources);
  base.workload.objects_per_source = IntFlag(options.flags, "objects", objects);
  base.workload.num_caches = IntFlag(options.flags, "caches", caches);
  base.workload.interest_pattern = base.workload.num_caches == 1
                                       ? InterestPattern::kSingleCache
                                       : InterestPattern::kPartitionedBySource;
  base.workload.rate_lo = 0.0;
  base.workload.rate_hi = 1.0;
  base.workload.seed = options.seed;
  base.harness.warmup = options.flags.GetDouble("warmup", warmup);
  base.harness.measure = options.flags.GetDouble("measure", measure);
  base.obs = ObsFromFlags(options).config;
  return base;
}

/// --`name` as an int list, or `fallback` when absent.
std::vector<int> IntListFlag(const BenchOptions& options, const std::string& name,
                             std::vector<int> fallback) {
  if (!options.flags.Has(name)) return fallback;
  return ParseIntList(name, options.flags.GetString(name, ""));
}

/// --`name` as a double list, or `fallback` when absent.
std::vector<double> DoubleListFlag(const BenchOptions& options, const std::string& name,
                                   std::vector<double> fallback) {
  if (!options.flags.Has(name)) return fallback;
  return ParseDoubleList(name, options.flags.GetString(name, ""));
}

/// Exits 2 naming --`name` when its list came out empty.
template <typename T>
std::vector<T> NonEmptyOrExit(const std::string& name, std::vector<T> values) {
  if (values.empty()) {
    std::fprintf(stderr, "--%s: empty list\n", name.c_str());
    std::exit(2);
  }
  return values;
}

/// --protocols as protocol names, or `fallback` when absent.
std::vector<SyncProtocolKind> ProtocolsFlag(const BenchOptions& options,
                                            std::vector<SyncProtocolKind> fallback) {
  if (!options.flags.Has("protocols")) return fallback;
  std::vector<SyncProtocolKind> protocols;
  for (const std::string& name : SplitList(options.flags.GetString("protocols", ""))) {
    protocols.push_back(ParseProtocolKind("protocols", name));
  }
  return NonEmptyOrExit("protocols", std::move(protocols));
}

/// --read_rates, or `fallback` when absent. A rate that is not > 0 (NaN
/// included) exits 2: invalidation and TTL replicas are refilled only by
/// read-triggered pulls, so a read-free point would pin them stale.
std::vector<double> ReadRatesFlag(const BenchOptions& options,
                                  std::vector<double> fallback) {
  std::vector<double> rates = DoubleListFlag(options, "read_rates", std::move(fallback));
  for (double rate : rates) {
    if (!(rate > 0.0)) {
      std::fprintf(stderr, "--read_rates must be > 0, got %g\n", rate);
      std::exit(2);
    }
  }
  return rates;
}

/// Summed time-averaged divergence of the caches that never crash
/// (everything but leaf 0, where every crash lands) — what recovery
/// aggressiveness costs the rest of the tree.
double WarmDivergence(const RunResult& result) {
  double sum = 0.0;
  for (size_t c = 1; c < result.per_cache_weighted.size(); ++c) {
    sum += result.per_cache_weighted[c];
  }
  return sum;
}

// fault: a finite source uplink makes recovery a real allocation decision
// (resync traffic and fresh updates compete for one budget). Every crash
// lands on leaf 0, so "warm" divergence is cleanly the other caches' sum.
// The jobs run regime by regime (crashes, protocol, tiers), with the
// recovery policies innermost: each regime is one block of consecutive
// head-to-head jobs that differ only in policy, so they see bit-identical
// update streams and fault timings. The recovery summary names, per regime,
// the policy with the better resync p95 — an unfinished resync
// (resync_pending > 0) counts as worse than any finished one — and the
// warm-divergence cost of each; tools/record_bench.py --check requires
// priority recovery to win some regime without losing warm-cache freshness.
Plan Fault(const BenchOptions& options) {
  static constexpr RecoveryPolicy kPolicies[] = {RecoveryPolicy::kNaiveReenqueue,
                                                 RecoveryPolicy::kRecoveryPriority};
  const Flags& flags = options.flags;
  const bool full = options.full;
  ExperimentConfig base = SweepBase(options, full ? 16 : 8, full ? 25 : 12,
                                    full ? 4 : 3, 50.0, full ? 2000.0 : 600.0);
  base.workload.relay_bandwidth_factor = flags.GetDouble("relay_factor", 1.0);
  base.cache_bandwidth_avg = flags.GetDouble("cache_bw", 6.0);
  base.source_bandwidth_avg = flags.GetDouble("source_bw", 3.0);
  // A failed relay's stored messages re-enter the tree at their new first hop.
  base.relay_store_policy = RelayStorePolicy::kDrain;
  FaultScheduleConfig& fault = base.workload.fault;
  fault.crash_cache = 0;
  fault.crash_duration = flags.GetDouble("fault_crash_duration", 25.0);
  fault.window_start = flags.GetDouble("fault_window_start", 80.0);
  fault.window_end = flags.GetDouble("fault_window_end",
                                     base.harness.warmup + base.harness.measure * 0.6);
  fault.seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 1234));
  const int relay_failures = IntFlag(flags, "fault_relay_failures", 1, 0);
  const std::vector<int> crash_counts =
      IntListFlag(options, "fault_crashes", full ? std::vector<int>{1, 3, 6}
                                                 : std::vector<int>{1, 3});
  const std::vector<int> relay_tiers = IntListFlag(options, "tiers", {0, 2});
  const std::vector<SyncProtocolKind> protocols = ProtocolsFlag(
      options, {SyncProtocolKind::kPushRefresh, SyncProtocolKind::kInvalidation});
  const double read_rate = flags.GetDouble("fault_read_rate", 2.0);
  if (read_rate > 0.0) {
    base.workload.read.read_rate = read_rate;
  } else if (std::any_of(protocols.begin(), protocols.end(), [](SyncProtocolKind p) {
               return p != SyncProtocolKind::kPushRefresh;
             })) {
    // Invalid replicas, crashed or not, are refilled only by read-triggered
    // pulls.
    std::fprintf(stderr,
                 "--fault_read_rate must be > 0 when a pull protocol is swept, "
                 "got %g\n",
                 read_rate);
    std::exit(2);
  }

  Jobs jobs;
  for (int crashes : crash_counts) {
    for (SyncProtocolKind protocol : protocols) {
      for (int tiers : relay_tiers) {
        for (RecoveryPolicy policy : kPolicies) {
          ExperimentJob job;
          job.name = "crashes=" + std::to_string(crashes) +
                     ",proto=" + SyncProtocolKindToString(protocol) +
                     ",tiers=" + std::to_string(tiers) +
                     ",policy=" + RecoveryPolicyToString(policy);
          job.config = base;
          job.config.workload.relay_tiers = tiers;
          job.config.protocol.kind = protocol;
          job.config.recovery_policy = policy;
          job.config.workload.fault.cache_crashes = crashes;
          // Relay failures only where relays exist; a flat point with
          // relay_failures > 0 would fail schedule validation.
          job.config.workload.fault.relay_failures = tiers > 0 ? relay_failures : 0;
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return {std::move(jobs), [](const Results& results) {
            TablePrinter table({"crashes", "protocol", "tiers", "policy", "total_div",
                                "warm_div", "resync_p95", "resync_pend",
                                "dropped_pulls", "delivered"});
            for (const JobResult& job : results) {
              const SchedulerStats& s = job.result.scheduler;
              table.AddRow({TablePrinter::Cell(job.config.workload.fault.cache_crashes),
                            SyncProtocolKindToString(job.config.protocol.kind),
                            TablePrinter::Cell(job.config.workload.relay_tiers),
                            RecoveryPolicyToString(job.config.recovery_policy),
                            TablePrinter::Cell(job.result.total_weighted_divergence),
                            TablePrinter::Cell(WarmDivergence(job.result)),
                            TablePrinter::Cell(s.time_to_resync_p95),
                            TablePrinter::Cell(s.resync_pending),
                            TablePrinter::Cell(s.crash_dropped_pulls),
                            TablePrinter::Cell(s.refreshes_delivered)});
            }
            table.Print(std::cout);

            TablePrinter recovery({"crashes", "protocol", "tiers", "resync_winner",
                                   "warm_div_naive", "warm_div_priority"});
            const auto resync_key = [&results](size_t k) {
              const SchedulerStats& s = results[k].result.scheduler;
              return s.resync_pending > 0 ? std::numeric_limits<double>::infinity()
                                          : s.time_to_resync_p95;
            };
            const size_t stride = std::size(kPolicies);
            for (size_t base = 0; base + stride <= results.size(); base += stride) {
              size_t best = base;
              double warm_naive = 0.0;
              double warm_priority = 0.0;
              for (size_t k = base; k < base + stride; ++k) {
                if (resync_key(k) < resync_key(best)) best = k;
                if (results[k].config.recovery_policy == RecoveryPolicy::kNaiveReenqueue) {
                  warm_naive = WarmDivergence(results[k].result);
                } else {
                  warm_priority = WarmDivergence(results[k].result);
                }
              }
              const ExperimentConfig& regime = results[base].config;
              recovery.AddRow(
                  {TablePrinter::Cell(regime.workload.fault.cache_crashes),
                   SyncProtocolKindToString(regime.protocol.kind),
                   TablePrinter::Cell(regime.workload.relay_tiers),
                   RecoveryPolicyToString(results[best].config.recovery_policy),
                   TablePrinter::Cell(warm_naive), TablePrinter::Cell(warm_priority)});
            }
            std::printf("\nrecovery (better resync p95 per regime):\n");
            recovery.Print(std::cout);
          }};
}

// multicache: per-cache bandwidth in the contention regime (~30% of the
// per-cache object population's update volume under partitioned interest).
// Under the partitioned pattern the N caches are disjoint single-cache
// systems; under Zipf overlap a popular minority of objects is replicated
// at several caches, so sources keep a threshold per cache channel. Every
// cache gets the full B_C, so total capacity grows with N.
Plan Multicache(const BenchOptions& options) {
  static constexpr InterestPattern kPatterns[] = {InterestPattern::kPartitionedBySource,
                                                  InterestPattern::kZipfOverlap};
  static constexpr int kCacheCounts[] = {1, 2, 4, 8};
  const bool full = options.full;
  ExperimentConfig base = SweepBase(options, full ? 64 : 16, full ? 25 : 10, 1, 100.0,
                                    full ? 2000.0 : 500.0);
  base.cache_bandwidth_avg = full ? 200.0 : 24.0;
  base.source_bandwidth_avg = full ? 12.0 : 6.0;
  Jobs jobs;
  for (InterestPattern pattern : kPatterns) {
    for (int num_caches : kCacheCounts) {
      ExperimentJob job;
      job.name = InterestPatternToString(pattern) + "/N=" + std::to_string(num_caches);
      job.config = base;
      job.config.workload.num_caches = num_caches;
      // Any pattern degenerates to the paper's topology at one cache; the
      // canonical single-cache pattern has the identical interest map.
      job.config.workload.interest_pattern =
          num_caches == 1 ? InterestPattern::kSingleCache : pattern;
      jobs.push_back(std::move(job));
    }
  }
  return {std::move(jobs), [](const Results& results) {
            TablePrinter table({"pattern", "caches", "replicas", "total_div",
                                "per_replica", "delivered"});
            // Walking the same axes recovers the requested pattern, which
            // N=1 jobs map to the single-cache one.
            size_t k = 0;
            for (InterestPattern pattern : kPatterns) {
              for (int num_caches : kCacheCounts) {
                const RunResult& r = results[k++].result;
                table.AddRow({TablePrinter::Cell(InterestPatternToString(pattern)),
                              TablePrinter::Cell(num_caches),
                              TablePrinter::Cell(r.total_replicas),
                              TablePrinter::Cell(r.total_weighted_divergence),
                              TablePrinter::Cell(r.total_weighted_divergence /
                                                 static_cast<double>(r.total_replicas)),
                              TablePrinter::Cell(r.scheduler.refreshes_delivered)});
              }
            }
            table.Print(std::cout);
          }};
}

// protocol: a finite source uplink is what makes the crossover: push refresh
// competes for it update by update, while invalidation notifies many objects
// per unit and refills on demand-priority pulls. Relay edges are sized to
// their subtree's demand so relay depth is a real regime axis. The jobs run
// regime by regime (read rate, B_C, tiers) with the protocols innermost, so
// each regime is one block of consecutive head-to-head jobs on the same
// workload coordinates. The crossover summary names, per regime, the
// protocol with the lowest total divergence and the one with the lowest
// read-staleness p95.
Plan Protocol(const BenchOptions& options) {
  const Flags& flags = options.flags;
  const bool full = options.full;
  ExperimentConfig base = SweepBase(options, full ? 16 : 8, full ? 25 : 10,
                                    full ? 4 : 2, 100.0, full ? 3000.0 : 600.0);
  base.workload.read.zipf_exponent = flags.GetDouble("zipf", 0.8);
  base.workload.relay_bandwidth_factor = flags.GetDouble("relay_factor", 1.0);
  base.source_bandwidth_avg = flags.GetDouble("source_bw", 1.0);
  base.loss_rate = flags.GetDouble("loss", 0.0);
  base.protocol.ttl = flags.GetDouble("ttl", 50.0);
  base.protocol.max_invalidate_batch = IntFlag(flags, "invalidate_batch", 4);
  const std::vector<double> read_rates = ReadRatesFlag(options, {0.5, 4.0, 16.0});
  const std::vector<double> bandwidths = DoubleListFlag(options, "bandwidths", {4.0, 12.0});
  const std::vector<int> relay_tiers = IntListFlag(options, "tiers", {0, 2});
  const std::vector<SyncProtocolKind> protocols = ProtocolsFlag(
      options, {SyncProtocolKind::kPushRefresh, SyncProtocolKind::kInvalidation,
                SyncProtocolKind::kTtlLease});

  Jobs jobs;
  for (double read_rate : read_rates) {
    for (double bandwidth : bandwidths) {
      for (int tiers : relay_tiers) {
        for (SyncProtocolKind protocol : protocols) {
          ExperimentJob job;
          job.name = "proto=" + SyncProtocolKindToString(protocol) +
                     ",rate=" + TablePrinter::Cell(read_rate) +
                     ",bw=" + TablePrinter::Cell(bandwidth) +
                     ",tiers=" + std::to_string(tiers);
          job.config = base;
          job.config.workload.read.read_rate = read_rate;
          job.config.cache_bandwidth_avg = bandwidth;
          job.config.workload.relay_tiers = tiers;
          job.config.protocol.kind = protocol;
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return {std::move(jobs), [stride = protocols.size()](const Results& results) {
            TablePrinter table({"rate", "B_C", "tiers", "protocol", "total_div",
                                "stale_p95", "hit_rate", "refreshes", "invals",
                                "pulls"});
            for (const JobResult& job : results) {
              const SchedulerStats& s = job.result.scheduler;
              table.AddRow({TablePrinter::Cell(job.config.workload.read.read_rate),
                            TablePrinter::Cell(job.config.cache_bandwidth_avg),
                            TablePrinter::Cell(job.config.workload.relay_tiers),
                            SyncProtocolKindToString(job.config.protocol.kind),
                            TablePrinter::Cell(job.result.total_weighted_divergence),
                            TablePrinter::Cell(s.read_staleness_p95),
                            TablePrinter::Cell(HitRate(s)),
                            TablePrinter::Cell(s.refreshes_delivered),
                            TablePrinter::Cell(s.invalidations_received),
                            TablePrinter::Cell(s.pulls_delivered)});
            }
            table.Print(std::cout);

            TablePrinter crossover(
                {"rate", "B_C", "tiers", "div_winner", "stale_p95_winner"});
            const auto protocol = [&results](size_t k) {
              return SyncProtocolKindToString(results[k].config.protocol.kind);
            };
            for (size_t base = 0; base + stride <= results.size(); base += stride) {
              size_t best_div = base;
              size_t best_stale = base;
              for (size_t k = base + 1; k < base + stride; ++k) {
                const RunResult& r = results[k].result;
                if (r.total_weighted_divergence <
                    results[best_div].result.total_weighted_divergence) {
                  best_div = k;
                }
                if (r.scheduler.read_staleness_p95 <
                    results[best_stale].result.scheduler.read_staleness_p95) {
                  best_stale = k;
                }
              }
              const ExperimentConfig& regime = results[base].config;
              crossover.AddRow({TablePrinter::Cell(regime.workload.read.read_rate),
                                TablePrinter::Cell(regime.cache_bandwidth_avg),
                                TablePrinter::Cell(regime.workload.relay_tiers),
                                protocol(best_div), protocol(best_stale)});
            }
            std::printf("\ncrossover (winner per regime):\n");
            crossover.Print(std::cout);
          }};
}

// readpath: the unbounded-capacity rows are the control — every read hits,
// no pull is sent, and total divergence matches the write-only engine. The
// jobs run read rate by capacity by eviction policy; an unbounded store
// never evicts, so it runs only the first policy instead of repeating one
// simulation under different labels.
Plan Readpath(const BenchOptions& options) {
  const Flags& flags = options.flags;
  const bool full = options.full;
  ExperimentConfig base = SweepBase(options, full ? 16 : 8, full ? 25 : 10,
                                    full ? 4 : 2, 100.0, full ? 5000.0 : 1000.0);
  base.workload.read.zipf_exponent = flags.GetDouble("zipf", 0.8);
  base.cache_bandwidth_avg = flags.GetDouble("bandwidth", 8.0);
  base.source_bandwidth_avg = -1.0;
  const std::vector<double> read_rates = ReadRatesFlag(options, {2.0, 8.0, 32.0});
  std::vector<int64_t> capacities;
  if (flags.Has("capacities")) {
    for (int capacity : ParseIntList("capacities", flags.GetString("capacities", ""))) {
      capacities.push_back(capacity);
    }
  } else {
    // Default capacities scale with the per-cache replica count so the
    // pressure regimes (none / mild / hot-set-only) survive reshaping.
    // Clamped to >= 1 and deduplicated: tiny shapes must not degenerate a
    // finite point into a second unbounded row (duplicate grid names).
    const int64_t per_cache = static_cast<int64_t>(base.workload.num_sources) *
                              base.workload.objects_per_source /
                              std::max(base.workload.num_caches, 1);
    capacities = {0};
    for (int64_t capacity : {per_cache / 2, per_cache / 8}) {
      capacity = std::max<int64_t>(capacity, 1);
      if (std::find(capacities.begin(), capacities.end(), capacity) == capacities.end()) {
        capacities.push_back(capacity);
      }
    }
  }
  std::vector<EvictionPolicy> evictions = {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                           EvictionPolicy::kDivergenceAware};
  if (flags.Has("evictions")) {
    evictions.clear();
    for (const std::string& name : SplitList(flags.GetString("evictions", ""))) {
      evictions.push_back(ParseEvictionPolicy("evictions", name));
    }
    evictions = NonEmptyOrExit("evictions", std::move(evictions));
  }

  Jobs jobs;
  for (double read_rate : read_rates) {
    for (int64_t capacity : capacities) {
      const size_t num_policies = capacity <= 0 ? 1 : evictions.size();
      for (size_t p = 0; p < num_policies; ++p) {
        ExperimentJob job;
        job.name = "rate=" + TablePrinter::Cell(read_rate) + ",cap=" +
                   (capacity <= 0 ? std::string("inf") : std::to_string(capacity)) +
                   ",evict=" +
                   (capacity <= 0 ? std::string("-") : EvictionPolicyToString(evictions[p]));
        job.config = base;
        job.config.workload.read.read_rate = read_rate;
        job.config.workload.read.capacity = capacity;
        job.config.workload.read.eviction = evictions[p];
        jobs.push_back(std::move(job));
      }
    }
  }
  return {std::move(jobs), [](const Results& results) {
            TablePrinter table({"rate", "capacity", "eviction", "reads", "hit_rate",
                                "stale_p50", "stale_p95", "stale_p99", "miss_lat_s",
                                "pull_share", "evictions", "total_div"});
            for (const JobResult& job : results) {
              const ReadWorkloadConfig& read = job.config.workload.read;
              const SchedulerStats& s = job.result.scheduler;
              table.AddRow({TablePrinter::Cell(read.read_rate),
                            read.capacity <= 0 ? std::string("inf")
                                               : TablePrinter::Cell(read.capacity),
                            read.capacity <= 0 ? std::string("-")
                                               : EvictionPolicyToString(read.eviction),
                            TablePrinter::Cell(s.reads_total),
                            TablePrinter::Cell(HitRate(s)),
                            TablePrinter::Cell(s.read_staleness_p50),
                            TablePrinter::Cell(s.read_staleness_p95),
                            TablePrinter::Cell(s.read_staleness_p99),
                            TablePrinter::Cell(s.read_miss_latency_mean),
                            TablePrinter::Cell(s.pull_bandwidth_share),
                            TablePrinter::Cell(s.cache_evictions),
                            TablePrinter::Cell(job.result.total_weighted_divergence)});
            }
            table.Print(std::cout);
          }};
}

// scale: point i zips --sources_list[i] sources x --objects_list[i] objects
// each over --caches_list[i] caches, under partitioned interest at every
// point, so per-cache load stays constant as the topology grows. Low
// per-object update rates: at 1M objects the update-event stream, not the
// per-object rate, is what exercises the engine.
Plan Scale(const BenchOptions& options) {
  const bool full = options.full;
  // --full: the 100k-object mid point, then 1M objects x 1k caches.
  const std::vector<int> sources_list =
      IntListFlag(options, "sources_list", full ? std::vector<int>{200, 1000}
                                                : std::vector<int>{8, 32});
  const std::vector<int> objects_list =
      IntListFlag(options, "objects_list", full ? std::vector<int>{500, 1000}
                                                : std::vector<int>{125, 250});
  const std::vector<int> caches_list =
      IntListFlag(options, "caches_list", full ? std::vector<int>{100, 1000}
                                               : std::vector<int>{4, 16});
  if (sources_list.size() != objects_list.size() ||
      sources_list.size() != caches_list.size()) {
    std::fprintf(stderr,
                 "--sources_list/--objects_list/--caches_list must be "
                 "equal-length (zipped points)\n");
    std::exit(2);
  }
  Jobs jobs;
  for (size_t i = 0; i < sources_list.size(); ++i) {
    ExperimentJob job;
    job.name = std::to_string(static_cast<int64_t>(sources_list[i]) * objects_list[i]) +
               "obj," + std::to_string(caches_list[i]) + "caches";
    job.config = SweepBase(options, sources_list[i], objects_list[i], caches_list[i],
                           10.0, 60.0);
    job.config.workload.interest_pattern = InterestPattern::kPartitionedBySource;
    job.config.workload.rate_hi = options.flags.GetDouble("rate_hi", 0.02);
    job.config.cache_bandwidth_avg = options.flags.GetDouble("bandwidth", 4.0);
    job.config.source_bandwidth_avg = options.flags.GetDouble("source_bandwidth", 2.0);
    jobs.push_back(std::move(job));
  }
  return {std::move(jobs), [](const Results& results) {
            TablePrinter table({"point", "total_div", "delivered"});
            for (const JobResult& job : results) {
              table.AddRow({TablePrinter::Cell(job.name),
                            TablePrinter::Cell(job.result.total_weighted_divergence),
                            TablePrinter::Cell(job.result.scheduler.refreshes_delivered)});
            }
            table.Print(std::cout);
          }};
}

// tree: --bandwidth is the per-leaf bandwidth of the flat reference; each
// tree redistributes the total N x B over all its edges in proportion to
// the leaves below them (MakeMatchedBandwidthTree), so deeper trees trade
// per-hop capacity for aggregation, under FIFO and priority-preserving
// relay forwarding. The flat star has no relay store to order, so it runs
// only the first forwarding policy.
Plan Tree(const BenchOptions& options) {
  static constexpr int kRelayTiers[] = {0, 1, 2};
  static constexpr RelayForwardPolicy kForwardPolicies[] = {RelayForwardPolicy::kFifo,
                                                            RelayForwardPolicy::kPriority};
  const bool full = options.full;
  ExperimentConfig base = SweepBase(options, full ? 16 : 8, full ? 25 : 10,
                                    full ? 16 : 8, 100.0, full ? 5000.0 : 1000.0);
  base.workload.interest_pattern = InterestPattern::kPartitionedBySource;
  base.source_bandwidth_avg = -1.0;
  const double bandwidth = options.flags.GetDouble("bandwidth", 6.0);
  const int fanout = IntFlag(options.flags, "fanout", 2, 1);
  // MakeRelayTree needs a leaf, so --caches is checked before any tree.
  const int leaves = IntOrExit("caches", base.workload.num_caches, 1);
  Jobs jobs;
  for (int tiers : kRelayTiers) {
    const TopologySpec spec = MakeMatchedBandwidthTree(leaves, fanout, tiers, bandwidth);
    const size_t num_policies = tiers == 0 ? 1 : std::size(kForwardPolicies);
    for (size_t p = 0; p < num_policies; ++p) {
      ExperimentJob job;
      job.name = tiers == 0 ? "flat"
                            : std::to_string(tiers + 1) + "-tier(f=" +
                                  std::to_string(fanout) + ")," +
                                  RelayForwardPolicyToString(kForwardPolicies[p]);
      job.config = base;
      job.config.topology = spec;
      job.config.relay_forward = kForwardPolicies[p];
      // Leaf links take the topology's edge bandwidths; the scalar carries
      // the leaf share as the JSON and table grid coordinate.
      job.config.cache_bandwidth_avg = spec.flat() ? bandwidth : spec.edge_bandwidth[0];
      jobs.push_back(std::move(job));
    }
  }
  return {std::move(jobs), [](const Results& results) {
            TablePrinter table({"topology", "forward", "edges", "leaf_B", "total_div",
                                "per_replica", "delivered", "relay_fwd", "transit_s",
                                "max_store", "util"});
            for (const JobResult& job : results) {
              const RunResult& r = job.result;
              const int relay_tiers = job.config.topology.depth() - 1;
              const double per_replica =
                  r.total_replicas > 0 ? r.total_weighted_divergence /
                                             static_cast<double>(r.total_replicas)
                                       : 0.0;
              table.AddRow(
                  {relay_tiers == 0 ? std::string("flat")
                                    : std::to_string(relay_tiers + 1) + "-tier",
                   relay_tiers == 0 ? std::string("-")
                                    : RelayForwardPolicyToString(job.config.relay_forward),
                   TablePrinter::Cell(job.config.topology.num_nodes()),
                   TablePrinter::Cell(job.config.cache_bandwidth_avg),
                   TablePrinter::Cell(r.total_weighted_divergence),
                   TablePrinter::Cell(per_replica),
                   TablePrinter::Cell(r.scheduler.refreshes_delivered),
                   TablePrinter::Cell(r.scheduler.relays_forwarded),
                   TablePrinter::Cell(r.scheduler.relay_transit_delay_mean),
                   TablePrinter::Cell(r.scheduler.max_relay_store),
                   TablePrinter::Cell(r.scheduler.cache_utilization)});
            }
            table.Print(std::cout);
          }};
}

/// `flags` plus the obs flags (bench_common.h).
std::vector<std::string> WithObs(std::vector<std::string> flags) {
  for (std::string& flag : ObsFlagNames()) flags.push_back(std::move(flag));
  return flags;
}

struct Suite {
  const char* name;
  const char* header;
  /// The flags this suite accepts beyond the common ones.
  std::vector<std::string> flags;
  Plan (*plan)(const BenchOptions&);
};

const Suite kSuites[] = {
    {"fault", "",
     WithObs({"sources", "objects", "caches", "tiers", "protocols", "relay_factor",
              "warmup", "measure", "cache_bw", "source_bw", "fault_crashes",
              "fault_crash_duration", "fault_window_start", "fault_window_end",
              "fault_read_rate", "fault_relay_failures", "fault_seed"}),
     Fault},
    {"multicache",
     "== Multi-cache topology sweep (cooperative protocol) ==\n"
     "Partitioned interest = disjoint sub-systems; Zipf overlap =\n"
     "popular objects replicated at several caches.\n\n",
     {},
     Multicache},
    {"protocol", "",
     {"sources", "objects", "caches", "bandwidths", "read_rates", "protocols", "ttl",
      "invalidate_batch", "tiers", "relay_factor", "warmup", "measure", "loss", "zipf",
      "source_bw"},
     Protocol},
    {"readpath", "",
     {"sources", "objects", "caches", "bandwidth", "zipf", "read_rates", "capacities",
      "evictions", "warmup", "measure"},
     Readpath},
    {"scale",
     "== Per-run scale trajectory (cooperative protocol) ==\n"
     "Partitioned interest; per-cache bandwidth fixed, so wall cost\n"
     "tracks engine overhead, not protocol contention.\n\n",
     WithObs({"sources_list", "objects_list", "caches_list", "warmup", "measure",
              "rate_hi", "bandwidth", "source_bandwidth"}),
     Scale},
    {"tree", "",
     {"sources", "objects", "caches", "bandwidth", "fanout", "warmup", "measure"},
     Tree},
};

/// The suite --suite names; a missing or unknown name exits 2 and lists the
/// suites. Here argv parses against every suite's flags, so only a flag no
/// suite takes exits 2; main's second parse rejects the chosen suite's
/// foreign flags.
const Suite& SelectSuite(int argc, char** argv) {
  std::vector<std::string> known{"suite"};
  std::string names;
  for (const Suite& suite : kSuites) {
    known.insert(known.end(), suite.flags.begin(), suite.flags.end());
    names += std::string(names.empty() ? "" : ", ") + suite.name;
  }
  const std::string name =
      BenchOptions::Parse(argc, argv, std::move(known)).flags.GetString("suite", "");
  for (const Suite& suite : kSuites) {
    if (name == suite.name) return suite;
  }
  if (name.empty()) {
    std::fprintf(stderr, "--suite is required (%s)\n", names.c_str());
  } else {
    std::fprintf(stderr, "--suite: unknown suite '%s' (%s)\n", name.c_str(), names.c_str());
  }
  std::exit(2);
}

int Run(const Suite& suite, const BenchOptions& options) {
  std::cout << suite.header;
  const Plan plan = suite.plan(options);
  ValidateJobsOrExit(plan.jobs);
  const Results results = RunExperiments(plan.jobs, options.runner(suite.name));
  CheckJobsOk(results);
  plan.print(results);
  EmitResultsCsv(results, options);
  EmitJson(results, options);
  EmitObsOutputs(results, ObsFromFlags(options));
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  const besync::Suite& suite = besync::SelectSuite(argc, argv);
  std::vector<std::string> flags = suite.flags;
  flags.push_back("suite");
  return besync::Run(suite, besync::BenchOptions::Parse(argc, argv, std::move(flags)));
}
