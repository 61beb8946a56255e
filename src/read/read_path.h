#ifndef BESYNC_READ_READ_PATH_H_
#define BESYNC_READ_READ_PATH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/harness.h"
#include "data/read_process.h"
#include "net/network.h"
#include "obs/trace.h"
#include "read/cache_store.h"
#include "util/quantile.h"
#include "util/random.h"
#include "util/ring.h"

namespace besync {

/// The client read side of one simulation run: per-cache read streams,
/// capacity-limited residency (read/cache_store.h), read-time staleness
/// sampling against the ground truth, and miss-triggered pulls.
///
/// Owned and driven by the cooperative scheduler's tick
/// (core/system.cc):
///   - ProcessReads(t) consumes every client read with timestamp <= t,
///     cache by cache in ascending cache id and in time order within a
///     cache; hits sample the replica's current divergence, misses register
///     a pending pull (deduplicated per replica in flight).
///   - SendPullRequests(t) drains the per-cache request queues upstream as
///     control mail (ControlMessage), each request consuming one unit of the
///     leaf edge's remaining tick budget — after refresh deliveries, ahead
///     of surplus feedback.
///   - OnRefreshDelivered(message, t) runs for every refresh landing at a
///     cache (pushes and pull responses alike): it installs non-resident
///     members (evicting under the configured policy) and resolves the
///     pending reads waiting on the object.
///
/// Disabled (no reads configured and unbounded capacity) the object is
/// inert: no RNG is created, no state is touched, and the scheduler's
/// behavior is bitwise identical to the pre-read-path engine.
class ReadPath {
 public:
  ReadPath() = default;

  /// Builds the per-cache stores and read streams from the harness's
  /// workload. Trace streams attached to the workload (read_streams) are
  /// used in place after a Reset() — the workload-sharing hazard of
  /// exp/runner.h applies; Poisson/Zipf streams are built privately from
  /// ReadWorkloadConfig when read_rate > 0. `harness` and `tally` must
  /// outlive this; the read path bumps its counts (reads, hits, misses,
  /// pulls, evictions, invalidations applied, crash-dropped pulls) there.
  /// `protocol` is the run's consistency protocol (non-null, must outlive
  /// this); a validity-tracking one (invalidation / TTL) adds per-replica
  /// ReplicaSyncState to the stores and makes reads of invalid/expired
  /// replicas miss and pull.
  /// `has_cache_faults` (the run's effective fault schedule contains cache
  /// crashes) keeps the read path live even with no reads and unbounded
  /// capacity: crashes flow through the stores and recovery refills flow
  /// through delivery resolution. False changes nothing.
  void Initialize(Harness* harness, int num_caches, SchedulerStats* tally,
                  const SyncProtocol* protocol, bool has_cache_faults = false);

  /// True when the read path participates in the run at all (client reads
  /// configured or finite capacity).
  bool enabled() const { return enabled_; }
  /// True when client reads are generated (rate- or trace-driven).
  bool reads_enabled() const { return reads_enabled_; }

  void ProcessReads(double t);
  void SendPullRequests(double t, Network* network);
  void OnRefreshDelivered(const Message& message, double t);
  /// Applies a delivered kInvalidate notification (primary object plus any
  /// batch-mates): the replicas turn invalid, so their next read misses.
  /// Residency is untouched — the stale bytes stay until overwritten.
  void OnInvalidateDelivered(const Message& message, double t);

  /// Fault hook: cache `cache_id` crashed at `now`. Drops every resident
  /// replica (CacheStore::Crash), resets per-replica protocol state
  /// (invalid / expired — a restarted replica must be re-fetched before it
  /// can serve), and cancels all pending pulls: responses already in flight
  /// will still install content on arrival, but they must not resolve reads
  /// that died with the process — each cancelled in-flight pull counts into
  /// SchedulerStats::crash_dropped_pulls.
  void OnCacheCrash(int cache_id, double now);
  /// Fault hook: cache `cache_id` came back (empty). Reads flow again;
  /// content returns only through installs.
  void OnCacheRestart(int cache_id);
  /// True while the cache is crashed (reads are consumed but discarded).
  /// False throughout a run whose read path is disabled: without cache
  /// crashes in the schedule, no cache ever goes down.
  bool cache_down(int cache_id) const {
    return !caches_.empty() && caches_[cache_id].down;
  }

  /// Measurement-window reset of the read path's measurements (residency
  /// and pending pulls persist; the counts live on the tally).
  void OnMeasurementStart();

  /// Writes the read-time staleness distribution (the divergence of the
  /// value each read is served; per-cache digests merged in cache order —
  /// deterministic) and the mean miss-to-delivery latency into `stats`.
  void WriteStats(SchedulerStats* stats) const;

  // Introspection (tests).
  const CacheStore& store(int cache_id) const { return caches_[cache_id].store; }
  /// Store slot of object `index`'s replica slot `replica` at its cache
  /// (ObjectSpec::caches[replica]), from the entry-indexed table that
  /// deliveries use in place of CacheStore::SlotOf.
  int64_t store_slot(ObjectIndex index, int32_t replica) const {
    return store_slot_[truth_->EntrySlot(index, replica)];
  }

  /// Observability wiring (obs/trace.h): one buffer per cache id, or empty
  /// to disable (the default — hooks then cost one emptiness test). The
  /// read path records its own lifecycle events: pull requests,
  /// invalidation applies, evictions. Buffers must outlive the run.
  void SetTraceBuffers(std::vector<TraceBuffer*> buffers) {
    trace_ = std::move(buffers);
  }

  /// Weighted mean over the per-cache staleness digests, O(num_caches) —
  /// the observability sampler's cheap form of WriteStats' mean.
  double StalenessMeanSoFar() const;

 private:
  /// One replica's in-flight pull state.
  struct PendingPull {
    bool active = false;     ///< >= 1 read is waiting on this replica
    bool enqueued = false;   ///< a request sits in the request queue
    bool requested = false;  ///< a request has been sent upstream
    double last_request_time = 0.0;
    int64_t waiting_reads = 0;
    /// Sum of the waiting reads' timestamps (miss-latency accounting).
    double waiting_time_sum = 0.0;
  };

  struct CacheState {
    explicit CacheState(CacheStore s) : store(std::move(s)) {}

    int32_t cache_id = 0;
    /// Crashed (fault injection): reads are discarded. The run's only
    /// crash flag: the scheduler reads it to drop deliveries, feedback and
    /// recovery sends at a dead cache.
    bool down = false;
    CacheStore store;
    /// Null when this cache generates no reads.
    ReadProcess* stream = nullptr;
    std::unique_ptr<ReadProcess> owned_stream;
    Rng rng{0};
    double next_read_time = 0.0;
    /// Per-slot ground-truth entry of the member's replica here
    /// (GroundTruth::EntrySlot), resolved once in Initialize.
    std::vector<uint32_t> replica_entry;
    /// The store's divergence-aware eviction key; empty under the other
    /// policies, which never read it.
    CacheStore::DivergenceFn divergence_of;
    /// Per-slot pending pulls; sized only for capacity-limited stores.
    std::vector<PendingPull> pending;
    /// Slots with an unsent pull request, in miss order.
    Ring<int64_t> request_queue;
    QuantileDigest staleness;
  };

  /// Cache `cache_id`'s trace buffer, or null when tracing is off.
  TraceBuffer* trace_for(int32_t cache_id) const {
    return trace_.empty() ? nullptr : trace_[cache_id];
  }

  /// One client read drawn by ProcessReads, served after the draw pass.
  struct DueRead {
    int64_t slot;
    double time;
  };

  void HandleRead(CacheState* cache, int64_t slot, double t);
  /// The store slot a delivery addresses: `replica` is the sender's stamp
  /// (Message::replica, RefreshPayload::replica), which must name this
  /// cache (checked in debug builds, with the table against SlotOf).
  int64_t DeliverySlot(const CacheState& cache, ObjectIndex index, int32_t replica) const;
  void ResolveDelivery(CacheState* cache, ObjectIndex index, int32_t replica, double t,
                       bool is_pull);
  void ApplyInvalidate(CacheState* cache, ObjectIndex index, int32_t replica, double t);
  double ReplicaDivergence(const CacheState& cache, int64_t slot) const {
    return truth_->replica_divergence(cache.replica_entry[slot]);
  }

  Harness* harness_ = nullptr;
  const GroundTruth* truth_ = nullptr;
  ReadWorkloadConfig config_;
  const SyncProtocol* protocol_ = nullptr;
  bool validity_tracked_ = false;
  bool enabled_ = false;
  bool reads_enabled_ = false;
  SchedulerStats* tally_ = nullptr;
  std::vector<CacheState> caches_;
  /// Store slot of every replica at its cache, indexed by the replica's
  /// ground-truth entry (GroundTruth::EntrySlot; -1 at object-record
  /// positions). An arena span of the run, built in Initialize.
  int32_t* store_slot_ = nullptr;
  /// ProcessReads' per-cache batch, reused across caches and ticks.
  std::vector<DueRead> due_reads_;
  double miss_latency_sum_ = 0.0;
  int64_t miss_latency_count_ = 0;
  /// Per-cache trace buffers; empty unless observability tracing is on.
  std::vector<TraceBuffer*> trace_;
};

}  // namespace besync

#endif  // BESYNC_READ_READ_PATH_H_
