#ifndef BESYNC_CORE_SYSTEM_H_
#define BESYNC_CORE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cache.h"
#include "core/harness.h"
#include "core/relay.h"
#include "core/source.h"
#include "fault/fault_schedule.h"
#include "net/network.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "priority/priority.h"
#include "protocol/sync_protocol.h"
#include "read/read_path.h"
#include "util/phase_timer.h"
#include "util/quantile.h"
#include "util/random.h"
#include "util/result.h"

namespace besync {

/// Configuration of the full cooperative protocol (Sections 5-6),
/// generalized to a topology of `num_caches` caches with independent
/// cache-side links.
struct CooperativeConfig {
  /// Number of caches. 1 reproduces the paper's Figure-1 star topology.
  /// Must cover every cache id in the workload's interest map.
  int num_caches = 1;
  /// Average cache-side bandwidth B_C (messages/second), applied to every
  /// cache not covered by `cache_bandwidths`.
  double cache_bandwidth_avg = 10.0;
  /// Optional per-cache average bandwidth; entry c overrides
  /// cache_bandwidth_avg for cache c (values <= 0 fall back to the average).
  std::vector<double> cache_bandwidths;
  /// Average source-side bandwidth B_S; <= 0 means unconstrained.
  double source_bandwidth_avg = -1.0;
  /// Maximum relative bandwidth change rate mB (0 = constant).
  double bandwidth_change_rate = 0.0;
  /// Refresh priority policy; the paper's general area priority by default
  /// (PolicyKind::kAreaHistory blends half and half).
  PolicyKind policy = PolicyKind::kArea;
  /// Per-source protocol knobs (threshold parameters, monitoring mode).
  SourceAgentConfig source;
  /// Random loss probability on the cache-side links (robustness studies).
  /// A lost refresh leaves the cache stale until the object's next update
  /// raises its priority over the threshold again — the protocol has no
  /// acknowledgments, by design.
  double loss_rate = 0.0;
  /// Relay topology override. Flat (default) defers to the workload's
  /// topology; a non-flat spec here wins. Either way, a flat result is the
  /// historical one-hop star, bit for bit.
  TopologySpec topology;
  /// Order in which relays drain their stores (tree topologies only).
  RelayForwardPolicy relay_forward = RelayForwardPolicy::kFifo;
  /// Consistency protocol (src/protocol/): push refresh (the paper's, and
  /// the bitwise-identical default), invalidation, or TTL/lease. Non-push
  /// protocols replace the threshold send phase with their own emission
  /// rules and disable surplus feedback; reads of invalid/expired replicas
  /// miss and pull.
  SyncProtocolConfig protocol;
  /// How sources re-ship a restarted cache's replicas: re-enqueue into the
  /// normal threshold machinery, or a dedicated recovery channel drained
  /// ahead of the send phase.
  RecoveryPolicy recovery_policy = RecoveryPolicy::kNaiveReenqueue;
  /// Fate of the refreshes stored at (and queued toward) a failed relay.
  RelayStorePolicy relay_store_policy = RelayStorePolicy::kDrop;
  /// Optional per-phase wall-time profiler (util/phase_timer.h); not
  /// owned, one per run. The timings are wall clock and nondeterministic —
  /// hostbench reads them; they never enter the run JSON. Null (default)
  /// costs one branch per phase.
  PhaseTimer* phase_timer = nullptr;
  /// Observability (src/obs/): per-tick time series and message-lifecycle
  /// tracing. Disabled (default) allocates nothing and leaves every hook a
  /// null-pointer test; enabled, the collectors only read engine state, so
  /// run results stay byte-identical either way (see DESIGN.md,
  /// "Observability without perturbation").
  ObsConfig obs;
};

/// "Our algorithm": the adaptive threshold-based cooperative refresh
/// scheduler of Section 5, running over the bandwidth-constrained network
/// model and generalized so the cache count is a first-class topology
/// parameter. Each tick it
///   1. delivers pending feedback to sources — feedback from cache c
///      adjusts the per-cache threshold T_{j,c} only,
///   2. lets every source emit refreshes for its over-threshold objects
///      within its source-side budget (sources visited in random order,
///      each source serving its cache channels in ascending cache order),
///   3. delivers queued refresh messages to each cache within that cache's
///      budget, and
///   4. spends each cache's surplus on positive feedback to the sources
///      with the highest known thresholds at that cache.
class CooperativeScheduler : public Scheduler {
 public:
  explicit CooperativeScheduler(const CooperativeConfig& config);

  std::string name() const override { return "cooperative"; }
  /// The topology the run would use (a non-flat config override wins over
  /// the workload's), the workload's fault schedule against it, and every
  /// resolved edge bandwidth against kMaxTickBudget.
  Status Validate(const Workload& workload) const override;
  void Initialize(Harness* harness) override;
  void OnObjectUpdate(ObjectIndex index, double t) override;
  void Tick(double t) override;
  void OnMeasurementStart(double t) override;
  /// Flushes the last tick into the link utilization stats. Debug builds
  /// also check that every live pool slot is a queued or stored message.
  void Finalize(double t) override;
  SchedulerStats stats() const override;
  std::shared_ptr<ObsOutput> TakeObsOutput() override;

  // Introspection (tests, competitive subclass).
  int num_sources() const { return static_cast<int>(sources_.size()); }
  int num_caches() const { return static_cast<int>(caches_.size()); }
  int num_relays() const { return static_cast<int>(relays_.size()); }
  const SourceAgent& source(int j) const { return *sources_[j]; }
  Link& cache_link(int c = 0) { return network_->cache_link(c); }
  Network& network() { return *network_; }
  /// Fails on caches no source is interested in (those stay agent-less).
  CacheAgent& cache(int c = 0);
  /// Relay agent of topology node `node` (node >= num_caches; checked).
  RelayAgent& relay(int32_t node);
  /// Messages in flight: queued on a link or stored at a relay. Equals
  /// network().message_pool().live() whenever no tick phase is running.
  size_t messages_in_flight() const;
  /// The client read subsystem (inert unless the workload configures reads
  /// or a finite capacity — see read/read_path.h).
  const ReadPath& read_path() const { return read_path_; }
  /// True while leaf cache `c` is crashed (fault injection). The read path
  /// holds the flag: it is live whenever the schedule crashes caches.
  bool cache_down(int c) const { return read_path_.cache_down(c); }

 protected:
  /// Hook for subclasses to decorate outgoing feedback (competitive rate
  /// grants, Section 7).
  virtual void FillFeedback(ControlMessage* feedback, int source_index, double t);

  /// The send phase (step 2): sources in shuffled order drain their
  /// threshold queues (push protocols) or their pending-invalidation queues
  /// (invalidation) into the tier-1 edges under their source-side budgets.
  /// TTL runs no step-2 phase at all (and draws no shuffle randomness —
  /// updates are silent at the source). Overridden by the competitive
  /// scheduler to interleave source-priority refreshes.
  virtual void SendPhase(double t);

  /// The relay phase of the tick: each relay (parents first) drains its
  /// ingress edge into its store, then forwards eligible refreshes one hop
  /// toward their leaf under its egress budget. No-op on flat topologies.
  void RelayPhase(double t);
  /// The topology a run of `workload` uses: a non-flat config override
  /// wins over the workload's.
  const TopologySpec& RunTopology(const Workload& workload) const;
  /// The network a run of `workload` builds: this config's bandwidths over
  /// RunTopology, sized to the larger of the two cache counts.
  NetworkConfig RunNetworkConfig(const Workload& workload) const;

  /// Applies every scheduled fault event with time <= t, in schedule order.
  /// Runs at the top of the tick, before the links begin theirs — a link
  /// partitioned at t has zero budget for the whole tick containing t.
  /// No-op (and branch-only) when the schedule is empty.
  void ApplyDueFaults(double t);
  /// One fault event; dispatched by ApplyDueFaults.
  void ApplyFaultEvent(const FaultEvent& event, double t);
  /// Recovery send phase (RecoveryPolicy::kRecoveryPriority): sources in
  /// ascending id order (no RNG — recovery must not perturb the scheduler
  /// stream) drain their recovery FIFOs into the tier-1 edges under the
  /// shared source budgets. Runs between the control drain and the send
  /// phase, for every protocol: recovery is a server-initiated fill even
  /// when steady-state refreshes are pull-only.
  void RecoveryPhase(double t);
  /// Marks resync-outstanding replicas of cache `c` delivered; closes the
  /// episode (into the time-to-resync digest) when the last one lands.
  void NoteResyncDelivery(int c, const Message& message, double t);

  /// Serves one miss-triggered pull request at its source: builds the
  /// refresh-shaped pull response (marked Message::is_pull, current
  /// threshold piggybacked), debts the source link by its cost, and
  /// enqueues it on the target cache's tier-1 edge — from where it travels
  /// exactly like a pushed refresh, relay hops included.
  void ServePull(const ControlMessage& request, double t);

  CooperativeConfig config_;
  Harness* harness_ = nullptr;
  std::unique_ptr<PriorityPolicy> policy_;
  /// The run's consistency protocol; every emission / delivery / feedback
  /// decision point dispatches through it. Push refresh degenerates to the
  /// historical code paths bit for bit.
  std::unique_ptr<SyncProtocol> protocol_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<SourceAgent>> sources_;
  /// One agent per cache, in cache-id order.
  std::vector<std::unique_ptr<CacheAgent>> caches_;
  /// One agent per relay node, indexed by node - num_caches (tree only).
  std::vector<std::unique_ptr<RelayAgent>> relays_;
  std::vector<int> source_order_;
  std::vector<int32_t> object_source_;
  /// Client read streams, residency/eviction and pull bookkeeping; inert
  /// (and branch-free on the hot paths) when the workload disables reads.
  ReadPath read_path_;
  // --- fault injection (all empty / zero on an empty schedule) ---

  /// One crashed cache's outstanding post-restart refill: the replicas the
  /// sources committed to (or may eventually) re-ship, cleared as
  /// deliveries land. The episode closes when `remaining` hits zero.
  struct ResyncState {
    bool open = false;
    double start = 0.0;
    int64_t remaining = 0;
    /// By global object index; sized lazily at the first restart.
    std::vector<uint8_t> outstanding;
  };

  /// The effective schedule's events, time-sorted; empty = fault-free.
  std::vector<FaultEvent> fault_events_;
  size_t fault_cursor_ = 0;
  /// Per leaf cache. Empty unless the schedule is non-empty.
  std::vector<ResyncState> resync_;
  /// Scratch for collecting the sources' resynced object lists.
  std::vector<ObjectIndex> resync_scratch_;

  // --- the run's counts ---

  /// Every count field of SchedulerStats, bumped at exactly one site each
  /// (sources and the read path hold a pointer to it; the scheduler bumps
  /// the rest at its own call sites) and zeroed as a whole by Initialize
  /// and OnMeasurementStart. stats() copies it and adds the derived values.
  /// Measurements (link utilization and queues, relay store waits,
  /// staleness) stay on their entities; see DESIGN.md, "One tally".
  SchedulerStats tally_;
  /// Restart-to-fully-refilled durations of completed resync episodes;
  /// reset with the tally.
  QuantileDigest resync_digest_;

  // --- observability (config_.obs.enabled only; otherwise null) ---

  /// Owns the trace buffers and the sampled time series. Created in
  /// Initialize; drained once by TakeObsOutput.
  std::unique_ptr<ObsCollector> obs_;
  /// Row scratch for ObsSample, reused across samples.
  std::vector<double> obs_row_;

  /// The harness's update prefetcher (Harness::SetUpdatePrefetcher): a
  /// candidate two events ahead gets its object_source_ entry prefetched,
  /// and the update due next gets its source's PrefetchUpdate.
  static void PrefetchUpdate(void* scheduler, ObjectIndex index, bool fires_next);

  /// End-of-tick observability: registers the tick for phase slices and
  /// appends a time-series row when one is due. Never touches engine state.
  void ObsOnTickEnd(double t);
  void ObsSample(double t);
};

/// Scheduler-agnostic summary of one simulation run.
struct RunResult {
  std::string scheduler_name;
  /// Σ over caches and replicas of the time-average of W * D (the paper's
  /// objective, summed over the topology).
  double total_weighted_divergence = 0.0;
  /// Per-cache contributions to total_weighted_divergence (size =
  /// workload.num_caches).
  std::vector<double> per_cache_weighted;
  /// Per-replica weighted / unweighted averages.
  double per_object_weighted = 0.0;
  double per_object_unweighted = 0.0;
  /// Number of (object, cache) replicas the objective sums over.
  int64_t total_replicas = 0;
  SchedulerStats scheduler;
  /// Observability output (time series + merged trace); null unless the run
  /// had ObsConfig::enabled. Never serialized into the run JSON/CSV — the
  /// exporters in obs/export.h write it to separate files.
  std::shared_ptr<ObsOutput> obs;
};

/// Runs `scheduler` over `workload` and returns the measured divergence.
/// A null argument, a `harness_config` that fails ValidateHarnessConfig or a
/// workload the scheduler's Validate rejects is an InvalidArgument, returned
/// before anything runs.
Result<RunResult> RunScheduler(const Workload* workload, const DivergenceMetric* metric,
                               const HarnessConfig& harness_config,
                               Scheduler* scheduler);

}  // namespace besync

#endif  // BESYNC_CORE_SYSTEM_H_
