#ifndef BESYNC_CORE_HARNESS_H_
#define BESYNC_CORE_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/object.h"
#include "data/workload.h"
#include "divergence/ground_truth.h"
#include "divergence/metric.h"
#include "divergence/tracker.h"
#include "net/message.h"
#include "sim/simulation.h"
#include "util/arena.h"
#include "util/random.h"
#include "util/status.h"

namespace besync {

class Harness;
class Scheduler;
struct ObsOutput;

/// First multiple of `interval` strictly after `t`: the deadline for the
/// next periodic weight refresh. Always > t, and by no more than `interval`,
/// no matter how many interval boundaries the last tick crossed — the
/// catch-up that an incremental `deadline += interval` lacks when ticks are
/// longer than the interval.
double NextWeightRefreshDeadline(double t, double interval);

/// Timing and measurement parameters shared by all schedulers.
struct HarnessConfig {
  /// Scheduling/network tick length in (simulated) seconds. The paper's
  /// synthetic experiments use 1 s; the buoy experiment uses 60 s
  /// (bandwidth is messages per minute there).
  double tick_length = 1.0;
  /// Warm-up period excluded from measurements.
  double warmup = 100.0;
  /// Measurement window after warm-up.
  double measure = 1000.0;
  /// Seconds between re-evaluations of fluctuating weights.
  double weight_refresh_interval = 20.0;
  /// Seed for scheduler-side randomness (tie-breaking, link phases). The
  /// object update streams use per-object seeds from the workload instead,
  /// so they are identical across schedulers.
  uint64_t seed = 7;
};

/// Per-object mutable state during a simulation run — the hot record of the
/// serial update path. For the common object shape (a Poisson random walk
/// with a constant weight) an update event, its rescheduling, the weight
/// lookup and the source's priority context read only this record: the
/// process parameters, the weight and the oracle constants are copied in
/// from the ObjectSpec when the harness is built. Any other process or a
/// fluctuating weight takes the virtual call through `spec` instead; which
/// path an object takes follows from the types of its own process and
/// weight. Budget: 128 bytes (two cache lines).
struct alignas(64) ObjectRuntime {
  /// How the update stream is generated: inline (the Poisson random walk's
  /// draws, made here with the same Rng calls in the same order as
  /// PoissonRandomWalkProcess) or through spec->process.
  enum class UpdateKind : uint8_t { kPoissonWalk, kVirtual };

  /// Private RNG stream driving this object's updates.
  Rng rng;
  ObjectState state;
  /// Source-side divergence bookkeeping, one tracker per replica (vs. the
  /// value last shipped to that cache), aligned with spec->caches. Points
  /// into the harness arena's flat tracker array — every object's trackers
  /// are consecutive slices of one allocation, not a million tiny vectors.
  DivergenceTracker* trackers = nullptr;
  int32_t num_replicas = 0;
  UpdateKind update_kind = UpdateKind::kVirtual;
  /// True when the weight is a ConstantFluctuation (its value is `weight`).
  bool constant_weight = false;
  /// spec->refresh_cost > 1 (non-unit costs scale priorities).
  bool costly = false;
  /// kPoissonWalk only: the process's rate and step.
  double update_rate = 0.0;
  double update_step = 0.0;
  /// Constant weight value (meaningful when constant_weight).
  double weight = 0.0;
  /// Copies of spec->lambda and spec->max_divergence_rate.
  double lambda = 0.0;
  double max_divergence_rate = 0.0;
  const ObjectSpec* spec = nullptr;

  explicit ObjectRuntime(const ObjectSpec* s);

  /// Tracker of replica slot `r` (slot 0 is the only replica in the paper's
  /// single-cache topology).
  DivergenceTracker& tracker(int r = 0) { return trackers[r]; }
  const DivergenceTracker& tracker(int r = 0) const { return trackers[r]; }
};
static_assert(sizeof(ObjectRuntime) <= 128, "ObjectRuntime outgrew two cache lines");

/// Statistics a scheduler reports after a run (fields irrelevant to a given
/// scheduler stay zero).
struct SchedulerStats {
  int64_t refreshes_sent = 0;
  int64_t refreshes_delivered = 0;
  int64_t feedback_sent = 0;
  int64_t polls_sent = 0;
  double cache_utilization = 0.0;
  double avg_cache_queue = 0.0;
  int64_t max_cache_queue = 0;
  double mean_threshold = 0.0;
  /// Relay-tier stats (zero on flat topologies): refreshes store-and-
  /// forwarded, mean store wait of a forwarded refresh, mean source-to-
  /// forward transit lag of a forward event (upstream queueing included),
  /// the largest store seen, and upstream control-mail hops relayed.
  int64_t relays_forwarded = 0;
  double relay_queue_delay_mean = 0.0;
  double relay_transit_delay_mean = 0.0;
  int64_t max_relay_store = 0;
  int64_t relay_control_moved = 0;
  /// Read-path stats (zero when the read path is disabled — the default).
  /// Client reads over the measurement window, their hit/miss split,
  /// pull-request/response traffic, capacity evictions, the read-time
  /// staleness distribution (divergence of the value each read is served),
  /// mean miss-to-delivery latency, and how the bandwidth units delivered
  /// over the cache-side edges split between pull responses and pushes.
  int64_t reads_total = 0;
  int64_t read_hits = 0;
  int64_t read_misses = 0;
  int64_t pull_requests_sent = 0;
  int64_t pulls_delivered = 0;
  int64_t cache_evictions = 0;
  double read_staleness_mean = 0.0;
  double read_staleness_p50 = 0.0;
  double read_staleness_p95 = 0.0;
  double read_staleness_p99 = 0.0;
  double read_miss_latency_mean = 0.0;
  int64_t pull_units_delivered = 0;
  int64_t push_units_delivered = 0;
  /// pull_units_delivered / (pull + push units); 0 when nothing delivered.
  double pull_bandwidth_share = 0.0;
  /// Consistency-protocol stats (zero under push refresh — the default).
  /// kInvalidate messages emitted by sources and replica invalidations
  /// applied at caches (a batched message of k objects counts once here
  /// and k times there; lossy links make received < applied-for).
  int64_t invalidations_sent = 0;
  int64_t invalidations_received = 0;
  /// Fault-injection / recovery stats (all zero on an empty fault
  /// schedule). Event counts are applications within the measurement
  /// window; resync_deliveries counts refreshes that closed part of a
  /// crashed cache's outstanding set; resync_pending is the number of
  /// replicas still awaiting their post-restart refill at run end;
  /// time_to_resync_* summarize restart-to-fully-refilled durations over
  /// the completed resync episodes; crash_dropped_pulls counts in-flight
  /// pulls cancelled because their cache died before the response landed.
  int64_t cache_crashes = 0;
  int64_t cache_restarts = 0;
  int64_t relay_failures = 0;
  int64_t link_down_events = 0;
  int64_t slowdown_events = 0;
  int64_t crash_dropped_pulls = 0;
  int64_t resync_deliveries = 0;
  int64_t resync_pending = 0;
  double time_to_resync_mean = 0.0;
  double time_to_resync_p95 = 0.0;
};

/// Scheduler interface: a refresh-scheduling strategy driven by the Harness.
/// Tick(t) runs once per tick after all update events with timestamps <= t
/// have fired.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Called once before the run; the harness outlives the scheduler's use.
  virtual void Initialize(Harness* harness) = 0;

  /// Notifies that object `index` was updated at time `t`.
  virtual void OnObjectUpdate(ObjectIndex index, double t) = 0;

  /// Performs one scheduling round at tick boundary `t`.
  virtual void Tick(double t) = 0;

  /// Called when the warm-up period ends (reset protocol statistics).
  virtual void OnMeasurementStart(double /*t*/) {}

  /// Called after the final tick.
  virtual void Finalize(double /*t*/) {}

  virtual SchedulerStats stats() const { return SchedulerStats{}; }

  /// Hands over the run's observability output (obs/trace.h), or null for
  /// schedulers without observability support / runs where it was disabled.
  /// Call at most once, after the run.
  virtual std::shared_ptr<ObsOutput> TakeObsOutput() { return nullptr; }
};

/// Owns the simulation clock, the object runtimes, the update event stream
/// and the ground-truth divergence accounting; drives a Scheduler through
/// warm-up and measurement. One Harness instance runs one scheduler once.
class Harness {
 public:
  /// All pointers must outlive the harness.
  Harness(const Workload* workload, const DivergenceMetric* metric,
          const HarnessConfig& config);

  /// Registers an additional ground-truth observer (e.g. the source-objective
  /// view in the competitive experiments). Must be called before Run, and
  /// `ground_truth` must be built over this harness's workload: updates
  /// reach it by flat replica index.
  void AddGroundTruth(GroundTruth* ground_truth);

  /// Runs `scheduler` over warm-up + measurement. Call once.
  Status Run(Scheduler* scheduler);

  // --- accessors for schedulers ---

  double now() const { return sim_.now(); }
  double end_time() const { return config_.warmup + config_.measure; }
  const HarnessConfig& config() const { return config_; }
  const Workload& workload() const { return *workload_; }
  const DivergenceMetric& metric() const { return *metric_; }
  Simulation& simulation() { return sim_; }
  std::vector<ObjectRuntime>& objects() { return objects_; }
  const ObjectRuntime& object(ObjectIndex index) const { return objects_[index]; }
  GroundTruth& ground_truth() { return *primary_ground_truth_; }
  Rng* scheduler_rng() { return &scheduler_rng_; }
  /// Run-lifetime bump allocator for hot-path per-replica state (trackers,
  /// ground-truth entries, source channel tables). Allocations live until
  /// the harness dies; allocated types must be trivially destructible.
  Arena* arena() { return &arena_; }

  /// Cache-scheme weight W(O_i, t).
  double WeightAt(ObjectIndex index, double t) const {
    const ObjectRuntime& object = objects_[index];
    return object.constant_weight ? object.weight : object.spec->weight->ValueAt(t);
  }
  /// Source-scheme weight (falls back to the cache scheme when the object
  /// defines no separate source weight).
  double SourceWeightAt(ObjectIndex index, double t) const;

  // --- refresh plumbing ---

  /// Source-side send targeting one cache: builds the refresh message
  /// carrying the object's current value/version and resets that replica's
  /// source-side tracker (the source now models cache `cache_id` as holding
  /// this value). The message still has to be delivered via DeliverRefresh
  /// (or dropped, if a scheduler models loss).
  Message MakeRefreshMessage(ObjectIndex index, int32_t cache_id, double t);

  /// Single-cache convenience: targets the object's first replica.
  Message MakeRefreshMessage(ObjectIndex index, double t);

  /// Cache-side apply of a delivered refresh message (routed to the
  /// message's cache_id).
  void DeliverRefresh(const Message& message, double t);

  /// Oracle path: instantaneous refresh of every replica of the object
  /// (source send + cache apply with no network in between), used by the
  /// idealized schedulers.
  void RefreshInstant(ObjectIndex index, double t);

 private:
  /// kObjectUpdateEvent handler (context = the harness).
  static void DispatchUpdate(void* harness, uint64_t index, double t);
  void OnUpdateEvent(ObjectIndex index, double t);
  void ScheduleNextUpdate(ObjectRuntime& object, ObjectIndex index, double now);

  const Workload* workload_;
  const DivergenceMetric* metric_;
  HarnessConfig config_;
  Simulation sim_;
  /// Backs the flat tracker array and the primary ground truth's replica
  /// entries; declared before the structures pointing into it.
  Arena arena_;
  std::vector<ObjectRuntime> objects_;
  /// Start of the flat tracker array: `object.trackers - trackers_` is the
  /// object's flat replica base, shared with every GroundTruth's entries.
  DivergenceTracker* trackers_ = nullptr;
  std::unique_ptr<GroundTruth> owned_ground_truth_;
  GroundTruth* primary_ground_truth_;
  std::vector<GroundTruth*> ground_truths_;
  Rng scheduler_rng_;
  Scheduler* scheduler_ = nullptr;
  bool ran_ = false;
};

}  // namespace besync

#endif  // BESYNC_CORE_HARNESS_H_
