// besync_sweep: the general policy x topology x bandwidth grid runner.
//
// Runs the full cross product of
//   --schedulers   (cooperative, ideal-cooperative, ideal-cache-based,
//                   cgm1, cgm2, round-robin)
//   --policies     (area, naive, poisson-staleness, poisson-lag, bound,
//                   area-history)
//   --caches       (cache counts; N > 1 uses the partitioned interest map)
//   --bandwidths   (per-cache average B_C, messages/second)
//   --loss_rates   (cache-link loss probabilities; cooperative only)
// on the parallel experiment runner (--threads=N workers, 0 = all cores),
// printing a summary table and optionally dumping machine-readable output
// (--json PATH; --csv PATH writes the full-precision deterministic
// ResultsCsv grid, not the rounded display table). The default grid is
// 1 x 3 x 3 x 4 x 2 = 72 configurations sized to finish in seconds.
//
// --topology=tree routes every cooperative job's refreshes through a
// store-and-forward relay tree (--depth relay tiers of --fanout children;
// cooperative-only, like multi-cache). --relay_factor sizes each relay
// edge at factor x (leaves below) x B_C — 1 matches subtree demand, < 1
// oversubscribes, 0 leaves relays pass-through (which reproduces the flat
// numbers exactly; see tests/topology_test.cc).
//
// --read_rate=R adds per-cache client read streams (R Poisson reads/second
// over a rotated Zipf popularity law; cooperative-only), --capacity=K
// bounds each cache at K resident objects with --eviction={lru,lfu,
// divergence} choosing the victim, and misses trigger pull fetches that
// share link bandwidth with pushed refreshes (src/read/). Read-enabled
// grids gain the read columns/fields in --csv and --json output;
// read-free grids keep the historical bytes exactly.
//
// --workload selects the update streams the grid is scored on:
//   synthetic (default) — each job rebuilds a Poisson random-walk workload
//     from a seed derived only from (--seed, cache count), so jobs
//     differing in scheduler, policy, bandwidth, or loss rate score
//     identical update streams (--sources/--objects shape it);
//   buoy — the TAO wind-buoy trace stand-in (data/buoy_trace.h) is
//     generated once and every job runs a private CloneWorkload deep copy
//     (--buoys sets the buoy count; single-cache only, time unit switches
//     to the paper's 60 s ticks with bandwidth in messages/second).
// Either way stdout, --json and --csv are byte-identical at any --threads.
// See exp/runner.h for the workload-sharing hazard that shapes both paths.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/buoy_trace.h"
#include "exp/runner.h"
#include "util/thread_pool.h"

namespace besync {
namespace {

SchedulerKind ParseScheduler(const std::string& name) {
  static const SchedulerKind kinds[] = {
      SchedulerKind::kCooperative,    SchedulerKind::kIdealCooperative,
      SchedulerKind::kIdealCacheBased, SchedulerKind::kCGM1,
      SchedulerKind::kCGM2,           SchedulerKind::kRoundRobin};
  for (SchedulerKind kind : kinds) {
    if (SchedulerKindToString(kind) == name) return kind;
  }
  std::fprintf(stderr, "--schedulers: unknown scheduler '%s'\n", name.c_str());
  std::exit(2);
}

PolicyKind ParsePolicy(const std::string& name) {
  static const PolicyKind kinds[] = {PolicyKind::kArea,      PolicyKind::kNaive,
                                     PolicyKind::kPoissonStaleness,
                                     PolicyKind::kPoissonLag, PolicyKind::kBound,
                                     PolicyKind::kAreaHistory};
  for (PolicyKind kind : kinds) {
    if (PolicyKindToString(kind) == name) return kind;
  }
  std::fprintf(stderr, "--policies: unknown policy '%s'\n", name.c_str());
  std::exit(2);
}

/// Only the cooperative schedulers consult the priority policy; for the
/// rest, sweeping policies would duplicate identical runs.
bool PolicySensitive(SchedulerKind kind) {
  return kind == SchedulerKind::kCooperative ||
         kind == SchedulerKind::kIdealCooperative;
}

/// Cache-link loss is modeled only by the real cooperative protocol (see
/// MakeScheduler); other schedulers would re-run identical simulations and
/// emit JSON rows misattributing the unchanged result to a loss rate.
bool LossSensitive(SchedulerKind kind) { return kind == SchedulerKind::kCooperative; }

int Run(const BenchOptions& options) {
  const std::string workload_mode = options.flags.GetString("workload", "synthetic");
  const bool buoy = workload_mode == "buoy";
  if (!buoy && workload_mode != "synthetic") {
    std::fprintf(stderr, "--workload: unknown mode '%s' (synthetic, buoy)\n",
                 workload_mode.c_str());
    std::exit(2);
  }
  const std::string topology_mode = options.flags.GetString("topology", "flat");
  const bool tree = topology_mode == "tree";
  if (!tree && topology_mode != "flat") {
    std::fprintf(stderr, "--topology: unknown mode '%s' (flat, tree)\n",
                 topology_mode.c_str());
    std::exit(2);
  }
  const int relay_tiers = IntFlag(options.flags, "depth", 1);
  const int relay_fanout = IntFlag(options.flags, "fanout", 2);
  const double relay_factor = options.flags.GetDouble("relay_factor", 1.0);
  // A bad --relay_factor fails ValidateWorkloadConfig with the other
  // per-job checks (ValidateJobsOrExit).
  if (tree && (relay_tiers < 1 || relay_fanout < 1)) {
    std::fprintf(stderr, "--topology=tree needs --depth >= 1, --fanout >= 1\n");
    std::exit(2);
  }
  if (!tree) {
    for (const char* flag : {"depth", "fanout", "relay_factor"}) {
      if (options.flags.Has(flag)) {
        std::fprintf(stderr, "--%s requires --topology=tree\n", flag);
        std::exit(2);
      }
    }
  }
  if (tree && buoy) {
    std::fprintf(stderr,
                 "--topology=tree models multi-cache trees; --workload=buoy is "
                 "single-cache flat only\n");
    std::exit(2);
  }

  // Read-path knobs (cooperative-only, like multi-cache and trees): client
  // read streams at --read_rate reads/second per cache, optional finite
  // --capacity with --eviction policy (lru, lfu, divergence).
  const double read_rate = options.flags.GetDouble("read_rate", 0.0);
  const int64_t capacity = options.flags.GetInt("capacity", 0);
  if (read_rate < 0.0 || capacity < 0) {
    std::fprintf(stderr, "--read_rate and --capacity must be >= 0\n");
    std::exit(2);
  }
  if (options.flags.Has("eviction") && capacity == 0) {
    std::fprintf(stderr,
                 "--eviction selects the victim of a *finite* cache; it needs "
                 "--capacity > 0\n");
    std::exit(2);
  }
  const EvictionPolicy eviction =
      ParseEvictionPolicy("eviction", options.flags.GetString("eviction", "lru"));
  // Finite capacity counts as a read-path feature too: baselines have no
  // store to enforce it, so running them would mislabel unbounded results.
  const bool reads = read_rate > 0.0 || capacity > 0;

  // Observability outputs (--timeseries_out / --trace_out; bench_common.h).
  // Applied to the cooperative jobs of the grid only.
  const ObsBenchOptions obs = ObsFromFlags(options);

  std::vector<SchedulerKind> schedulers;
  for (const std::string& name :
       SplitList(options.flags.GetString("schedulers", "cooperative"))) {
    schedulers.push_back(ParseScheduler(name));
  }
  std::vector<PolicyKind> policies;
  for (const std::string& name :
       SplitList(options.flags.GetString("policies", "area,naive,bound"))) {
    policies.push_back(ParsePolicy(name));
  }
  const std::vector<int> cache_counts = ParseIntList(
      "caches", options.flags.GetString("caches", buoy ? "1" : "1,2,4"));
  // Buoy-mode bandwidths default to the Figure-5 regime: the trace updates
  // every 10 minutes, so sensible budgets are fractions of a message per
  // second (0.05/0.2/0.8 msgs/s = 3/12/48 msgs/min against the paper's
  // 1-80 msgs/min axis).
  const std::vector<double> bandwidths = ParseDoubleList(
      "bandwidths",
      options.flags.GetString("bandwidths", buoy ? "0.05,0.2,0.8" : "8,16,32,64"));
  const std::vector<double> loss_rates =
      ParseDoubleList("loss_rates", options.flags.GetString("loss_rates", "0,0.05"));
  if (buoy) {
    for (int num_caches : cache_counts) {
      if (num_caches != 1) {
        std::fprintf(stderr,
                     "--workload=buoy models the paper's single-cache star; "
                     "--caches must be 1, got %d\n",
                     num_caches);
        std::exit(2);
      }
    }
    // The synthetic-shape flags have no effect on the trace workload;
    // reject them so a misadapted invocation fails loudly instead of
    // silently sweeping the default trace.
    for (const char* flag : {"sources", "objects"}) {
      if (options.flags.Has(flag)) {
        std::fprintf(stderr,
                     "--%s shapes the synthetic workload only; use --buoys "
                     "with --workload=buoy\n",
                     flag);
        std::exit(2);
      }
    }
  }

  ExperimentConfig base;
  base.metric = MetricKind::kValueDeviation;
  if (buoy) {
    // Figure-5 timing: 60 s ticks, day-scale warm-up and measurement.
    base.harness.tick_length = 60.0;
    base.harness.warmup = options.flags.GetDouble("warmup", 86400.0);
    base.harness.measure = options.flags.GetDouble(
        "measure", options.full ? 6.0 * 86400.0 : 86400.0);
  } else {
    base.workload.num_sources = IntFlag(options.flags, "sources", options.full ? 32 : 8);
    base.workload.objects_per_source =
        IntFlag(options.flags, "objects", options.full ? 25 : 10);
    base.workload.rate_lo = 0.0;
    base.workload.rate_hi = 1.0;
    base.harness.warmup = options.flags.GetDouble("warmup", 100.0);
    base.harness.measure =
        options.flags.GetDouble("measure", options.full ? 5000.0 : 1000.0);
  }
  base.source_bandwidth_avg = -1.0;  // unconstrained; the grid varies B_C
  base.workload.read.read_rate = read_rate;
  base.workload.read.capacity = capacity;
  base.workload.read.eviction = eviction;

  // The buoy workload is generated once; every job gets a private clone.
  Workload buoy_workload;
  if (buoy) {
    BuoyTraceConfig trace_config;
    trace_config.seed = 2000 + options.seed;
    trace_config.num_buoys = IntFlag(options.flags, "buoys", options.full ? 40 : 8);
    trace_config.duration = base.harness.warmup + base.harness.measure;
    Result<Workload> trace = MakeBuoyWorkload(trace_config);
    if (!trace.ok()) {  // e.g. --buoys=0: a usage error, like a bad grid axis
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      std::exit(2);
    }
    buoy_workload = std::move(trace).ValueOrDie();
    base.workload.seed = trace_config.seed;  // JSON metadata only
    base.workload.num_caches = 1;
    // The clone runner stamps each job's read config from the base
    // workload, so read knobs apply to the trace workload too.
    buoy_workload.read = base.workload.read;
  }

  std::vector<ExperimentJob> jobs;
  int skipped = 0;
  for (SchedulerKind scheduler : schedulers) {
    const int num_policies =
        PolicySensitive(scheduler) ? static_cast<int>(policies.size()) : 1;
    for (int p = 0; p < num_policies; ++p) {
      for (int num_caches : cache_counts) {
        // Multi-cache, relay-tree and client-read topologies are
        // cooperative-protocol features; the baseline schedulers model the
        // paper's read-free single-cache one-hop star only.
        if ((num_caches > 1 || tree || reads) &&
            scheduler != SchedulerKind::kCooperative) {
          ++skipped;
          continue;
        }
        for (double bandwidth : bandwidths) {
          const int num_losses =
              LossSensitive(scheduler) ? static_cast<int>(loss_rates.size()) : 1;
          for (int l = 0; l < num_losses; ++l) {
            const double loss_rate = LossSensitive(scheduler) ? loss_rates[l] : 0.0;
            ExperimentJob job;
            job.config = base;
            job.config.scheduler = scheduler;
            job.config.policy = policies[p];
            if (!buoy) {
              job.config.workload.num_caches = num_caches;
              job.config.workload.interest_pattern =
                  num_caches == 1 ? InterestPattern::kSingleCache
                                  : InterestPattern::kPartitionedBySource;
              // Same topology => same workload stream: scheduler/policy/
              // bandwidth/loss points are scored on identical update
              // streams. (Buoy mode shares one clone-fanned workload, so
              // its jobs keep the base trace seed.)
              job.config.workload.seed =
                  DeriveJobSeed(options.seed, static_cast<uint64_t>(num_caches));
              if (tree) {
                // Same seed and interest map as the flat grid point: tree
                // jobs score identical update streams, so topology effects
                // are directly comparable against flat runs.
                job.config.workload.relay_tiers = relay_tiers;
                job.config.workload.relay_fanout = relay_fanout;
                job.config.workload.relay_bandwidth_factor = relay_factor;
              }
            }
            job.config.cache_bandwidth_avg = bandwidth;
            job.config.loss_rate = loss_rate;
            // Cooperative jobs only: observability is not instrumented in
            // the baselines (enabling it there is an InvalidArgument).
            if (scheduler == SchedulerKind::kCooperative) {
              job.config.obs = obs.config;
            }
            job.name = SchedulerKindToString(scheduler) + "," +
                       (PolicySensitive(scheduler)
                            ? PolicyKindToString(policies[p])
                            : std::string("-")) +
                       ",N=" + std::to_string(num_caches) +
                       ",B=" + TablePrinter::Cell(bandwidth) + ",loss=" +
                       (LossSensitive(scheduler) ? TablePrinter::Cell(loss_rate)
                                                 : std::string("-"));
            if (tree) {
              job.name += ",tree(d=" + std::to_string(relay_tiers) +
                          ",f=" + std::to_string(relay_fanout) + ")";
            }
            jobs.push_back(std::move(job));
          }
        }
      }
    }
  }

  ValidateJobsOrExit(jobs);
  std::fprintf(stderr, "besync_sweep: %d configurations on %d thread(s)%s\n",
               static_cast<int>(jobs.size()),
               options.threads <= 0 ? ThreadPool::HardwareThreads() : options.threads,
               skipped > 0 ? " (multi-cache baseline combos skipped)" : "");

  const std::vector<JobResult> results =
      buoy ? RunExperimentsOnWorkload(buoy_workload, jobs, options.runner("sweep"))
           : RunExperiments(jobs, options.runner("sweep"));

  // The printed table keeps its rounded display cells; --csv gets the
  // full-precision deterministic grid instead.
  ResultsTable(results).Print(std::cout);
  EmitResultsCsv(results, options);
  EmitJson(results, options);
  EmitObsOutputs(results, obs);
  for (const JobResult& job : results) {
    if (!job.status.ok()) {
      std::fprintf(stderr, "job '%s' failed: %s\n", job.name.c_str(),
                   job.status.ToString().c_str());
    }
  }
  return JobsExitCode(results);
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) {
  std::vector<std::string> flags{
      "schedulers", "policies",     "caches",   "bandwidths", "loss_rates",
      "sources",    "objects",      "warmup",   "measure",    "workload",
      "buoys",      "topology",     "depth",    "fanout",     "relay_factor",
      "read_rate",  "capacity",     "eviction"};
  for (std::string& flag : besync::ObsFlagNames()) flags.push_back(std::move(flag));
  return besync::Run(besync::BenchOptions::Parse(argc, argv, std::move(flags)));
}
