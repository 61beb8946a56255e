#ifndef BESYNC_DATA_WORKLOAD_H_
#define BESYNC_DATA_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/object.h"
#include "data/read_process.h"
#include "data/topology.h"
#include "data/update_process.h"
#include "fault/fault_schedule.h"
#include "util/fluctuation.h"
#include "util/result.h"

namespace besync {

/// Static description of one object in a workload. The update process and
/// weight function are owned here; the per-run mutable state (value,
/// version, trackers) lives in the scheduler harness.
struct ObjectSpec {
  ObjectIndex index = 0;
  /// Which source hosts this object (0 .. m-1).
  int32_t source_index = 0;
  /// Which caches replicate this object (the interest map), ascending and
  /// duplicate-free (GroundTruth's constructor checks it: a replica slot is
  /// a position in this list). The default reproduces the paper's Figure-1
  /// topology — a single cache, so every object lives at cache 0 — but
  /// since the multi-cache generalization any subset of 0 .. num_caches-1
  /// is valid (see InterestPattern for the generated shapes).
  std::vector<int32_t> caches = {0};

  /// Position of `cache_id` in `caches` (the object's replica slot at that
  /// cache), or -1 if the cache does not replicate this object.
  int replica_slot(int32_t cache_id) const {
    for (size_t r = 0; r < caches.size(); ++r) {
      if (caches[r] == cache_id) return static_cast<int>(r);
    }
    return -1;
  }
  int num_replicas() const { return static_cast<int>(caches.size()); }
  /// Long-run average update rate (the lambda parameter); mirror of
  /// process->rate() kept here for oracle access.
  double lambda = 0.0;
  double initial_value = 0.0;
  std::unique_ptr<UpdateProcess> process;
  /// Refresh weight W(O,t) (never null).
  std::unique_ptr<Fluctuation> weight;
  /// Optional conflicting per-source weight for the competitive experiments
  /// of Section 7 (null when sources and cache share one weighting scheme).
  std::unique_ptr<Fluctuation> source_weight;
  /// Maximum divergence rate R_i for the divergence-bounding policy of
  /// Section 9 (<= 0 when unknown/unused).
  double max_divergence_rate = 0.0;
  /// Transmission cost of one refresh in bandwidth units (Section 10.1
  /// non-uniform-cost extension); 1 = the paper's unit-size model.
  int64_t refresh_cost = 1;
  /// Seed for this object's private RNG stream; derived deterministically
  /// from the workload seed so update streams are identical across
  /// schedulers run on the same workload configuration.
  uint64_t rng_seed = 0;
};

/// A complete multi-source workload: m sources with n objects each,
/// replicated over `num_caches` caches according to the per-object interest
/// map (`ObjectSpec::caches`).
struct Workload {
  int num_sources = 0;
  int objects_per_source = 0;
  /// Number of caches in the topology. 1 reproduces the paper's single-cache
  /// star of Figure 1.
  int num_caches = 1;
  /// Relay topology between the sources and the caches. Flat (the default)
  /// is the one-hop star the paper models; a tree routes refreshes through
  /// store-and-forward relays (data/topology.h). Leaf count must equal
  /// num_caches when non-flat.
  TopologySpec topology;
  std::vector<ObjectSpec> objects;  // size m*n, grouped by source
  /// True if any weight fluctuates over time (enables periodic weight
  /// refresh in the divergence accounting).
  bool has_fluctuating_weights = false;
  /// Client read-side knobs (data/read_process.h). The defaults — no reads,
  /// unbounded capacity — keep the read path entirely inert, so write-only
  /// runs are bitwise identical to the pre-read-path engine.
  ReadWorkloadConfig read;
  /// Optional per-cache client read streams (size num_caches when set;
  /// empty = generate Poisson/Zipf streams from `read` when read_rate > 0).
  /// Owned here like ObjectSpec::process, and mutated during a run (trace
  /// cursors) — the same sharing hazard applies (exp/runner.h), and
  /// CloneWorkload deep-copies them for the clone-per-job path.
  std::vector<std::unique_ptr<ReadProcess>> read_streams;
  /// Scripted fault events applied during the run (fault/fault_schedule.h).
  /// Empty (the default) keeps the fault layer entirely inert: fault-free
  /// runs are bitwise identical to the pre-fault engine.
  FaultSchedule faults;

  /// True when any client reads will be generated (rate-driven or
  /// trace-driven). Capacity limits apply independently of this.
  bool reads_enabled() const { return read.read_rate > 0.0 || !read_streams.empty(); }

  int64_t total_objects() const { return static_cast<int64_t>(objects.size()); }

  /// Total number of (object, cache) replicas — the unit the multi-cache
  /// objective sums over.
  int64_t total_replicas() const {
    int64_t total = 0;
    for (const ObjectSpec& spec : objects) total += spec.num_replicas();
    return total;
  }
};

/// For each cache id 0..num_caches-1, the ascending duplicate-free list of
/// sources hosting at least one object replicated at that cache (the sources
/// the cache exchanges protocol messages with).
std::vector<std::vector<int32_t>> SourcesByCache(const Workload& workload);

/// How per-object update rates are assigned (paper Sections 4.3, 6).
enum class RateDistribution {
  /// lambda_i ~ Uniform(rate_lo, rate_hi) — "randomly assigned lambda values
  /// ... following a uniform distribution".
  kUniform,
  /// A randomly-selected half updates at `slow_rate`, the other half at
  /// `fast_rate` — the skewed configuration of Section 4.3 (0.01 vs 1).
  kHalfSlowHalfFast,
};

/// How refresh transmission costs (object sizes) are assigned
/// (Section 10.1 non-uniform-cost extension).
enum class CostScheme {
  /// All refreshes cost 1 unit (the paper's model).
  kUniform,
  /// A randomly-selected half of the objects cost `large_cost` units.
  kHalfLarge,
};

/// How weights are assigned.
enum class WeightScheme {
  /// All weights 1.
  kUniform,
  /// A randomly-selected half gets weight `heavy_weight`, the rest weight 1
  /// (Section 4.3's skew: 10 vs 1).
  kHalfHeavy,
};

/// How objects are assigned to caches in a multi-cache topology.
enum class InterestPattern {
  /// Every object is replicated at cache 0 only (the paper's topology).
  /// Requires num_caches == 1.
  kSingleCache,
  /// Each source's objects live at exactly one cache:
  /// cache = source_index mod num_caches. Disjoint partitions — caches
  /// behave like independent single-cache systems over sub-workloads.
  kPartitionedBySource,
  /// Every object is replicated at every cache.
  kFullReplication,
  /// Each object has a primary cache (source_index mod num_caches) plus a
  /// Zipf-distributed replication degree: most objects live at one cache, a
  /// popular few are replicated widely (overlapping interest).
  kZipfOverlap,
};

std::string InterestPatternToString(InterestPattern pattern);

/// Generator parameters for the synthetic random-walk workloads used
/// throughout the paper's evaluation.
struct WorkloadConfig {
  int num_sources = 1;
  int objects_per_source = 100;

  /// Multi-cache topology knobs. The defaults reproduce the paper's
  /// single-cache system exactly (and consume no generator randomness, so
  /// single-cache workloads are bit-identical to the pre-topology ones).
  int num_caches = 1;
  InterestPattern interest_pattern = InterestPattern::kSingleCache;

  /// Relay-tree knobs (0 tiers = the flat one-hop topology). When
  /// relay_tiers > 0 the generated workload carries a
  /// MakeRelayTree(num_caches, relay_fanout, relay_tiers) topology whose
  /// relay edges default to relay_bandwidth_factor (data/topology.h) —
  /// factor 0 keeps them pass-through. Consumes no generator randomness, so
  /// the object specs and RNG seeds are identical to the flat workload's.
  int relay_tiers = 0;
  int relay_fanout = 2;
  double relay_bandwidth_factor = 0.0;

  /// kPoisson: continuous-time Poisson updates (Section 6.2);
  /// kBernoulli: per-second update probability (Section 4.3).
  enum class UpdateModel { kPoisson, kBernoulli } update_model = UpdateModel::kPoisson;

  RateDistribution rate_distribution = RateDistribution::kUniform;
  double rate_lo = 0.0;  ///< uniform rate range lower bound (exclusive if 0)
  double rate_hi = 1.0;  ///< uniform rate range upper bound
  double slow_rate = 0.01;
  double fast_rate = 1.0;

  WeightScheme weight_scheme = WeightScheme::kUniform;
  double heavy_weight = 10.0;

  CostScheme cost_scheme = CostScheme::kUniform;
  int64_t large_cost = 4;

  /// Maximum relative amplitude of sine weight fluctuation; 0 = constant
  /// weights. Periods are drawn uniformly from [200, 2000] seconds
  /// (Section 6: "randomly-assigned amplitudes and periods").
  double weight_fluctuation_amplitude = 0.0;

  /// Client read-path knobs, copied verbatim onto the generated workload
  /// (consumes no generator randomness — the read streams draw from their
  /// own seed at run time — so workloads differing only in `read` carry
  /// identical objects and update streams).
  ReadWorkloadConfig read;

  /// Fault-schedule generator knobs (fault/fault_schedule.h). The schedule
  /// draws from its own `fault.seed` stream, never the generator's, so a
  /// disabled config (the default) builds byte-identical workloads and an
  /// enabled one perturbs nothing but `Workload::faults`.
  FaultScheduleConfig fault;

  uint64_t seed = 1;
};

/// InvalidArgument naming the first bad field of `config` (a count below
/// its minimum, a negative, NaN or infinite rate, a bad read or fault
/// knob), else OK. MakeWorkload runs it first; the bench drivers run it per
/// job so a bad field is a usage error before any job runs.
Status ValidateWorkloadConfig(const WorkloadConfig& config);

/// Builds a synthetic workload. Deterministic given the config (including
/// the seed): two calls with the same config produce identical specs and
/// identical per-object RNG seeds.
Result<Workload> MakeWorkload(const WorkloadConfig& config);

/// Deep copy of one object spec: scalar fields are copied and the owned
/// polymorphic members (process, weight, source_weight) are Clone()d, so
/// the copy shares no mutable state with the original.
ObjectSpec CloneObjectSpec(const ObjectSpec& spec);

/// Deep copy of a whole workload. The clone replays exactly the update
/// stream the original would (same specs, same per-object RNG seeds, same
/// process cursor state), yet owns every byte of it — running or mutating
/// the clone leaves the original untouched. This is what lets one
/// hand-constructed or trace-derived workload (e.g. MakeBuoyWorkload) fan
/// out across concurrent runner jobs: each job runs a private clone
/// (RunExperimentsOnWorkload in exp/runner.h).
Workload CloneWorkload(const Workload& workload);

}  // namespace besync

#endif  // BESYNC_DATA_WORKLOAD_H_
