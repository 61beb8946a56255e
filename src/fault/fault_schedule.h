#ifndef BESYNC_FAULT_FAULT_SCHEDULE_H_
#define BESYNC_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/topology.h"
#include "util/status.h"

namespace besync {

/// Scripted fault injection for the cooperative engine: a deterministic,
/// timestamped list of node/link events carried on the `Workload`. The
/// schedule is *data*, not behavior — it consumes no generator or scheduler
/// randomness, so a run with an empty schedule reproduces the fault-free
/// goldens bitwise, and two runs with the same schedule are bitwise
/// identical.
///
/// Event semantics (applied by CooperativeScheduler at the first tick whose
/// time is >= the event time, in schedule order):
///  - kCacheCrash: the leaf cache loses all replica content (CacheStore
///    cleared, per-replica consistency state reset, in-flight pull
///    bookkeeping invalidated). While down, deliveries to the cache are
///    blackholed and its clients get no service (reads are discarded).
///  - kCacheRestart: the cache comes back cold. Sources start a resync per
///    the configured RecoveryPolicy, and a time-to-resync episode opens.
///  - kRelayFail: the relay stops forwarding; its children re-attach to the
///    topology's backup parent (or become tier-1 when there is none) and
///    first-hop routing is rebuilt. Control mail held at the relay is
///    re-deposited at its originating leaf; stored data messages drop or
///    drain per the configured RelayStorePolicy.
///  - kRelayRecover: the original parent map is restored for the subtree.
///  - kLinkDown / kLinkUp: the leaf's ingress edge partitions — new
///    traffic in *both* directions (pushes, invalidations, pulls, feedback)
///    blackholes; queued messages freeze until the link comes back.
///  - kSlowDown / kSlowRecover: the leaf's ingress edge runs at
///    `factor` x its configured bandwidth (temporary degradation).
enum class FaultEventKind {
  kCacheCrash = 0,
  kCacheRestart = 1,
  kRelayFail = 2,
  kRelayRecover = 3,
  kLinkDown = 4,
  kLinkUp = 5,
  kSlowDown = 6,
  kSlowRecover = 7,
};

std::string FaultEventKindToString(FaultEventKind kind);

struct FaultEvent {
  /// Simulation time the event fires (>= 0; relative to run start, so
  /// events inside the warmup window are legal and useful for
  /// steady-state-after-recovery measurements).
  double time = 0.0;
  FaultEventKind kind = FaultEventKind::kCacheCrash;
  /// Target node: a leaf cache id for cache/link/slow events, a relay node
  /// id for relay events.
  int32_t node = 0;
  /// kSlowDown only: bandwidth multiplier in (0, 1]. Ignored elsewhere.
  double factor = 1.0;
};

/// The timestamped event list. Events are kept in the order given;
/// `Sorted()` returns a stable time-ordered copy (ties keep insertion
/// order, so schedules serialize and replay deterministically).
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  size_t size() const { return events.size(); }

  /// Stable time-sorted copy — the order the scheduler applies.
  std::vector<FaultEvent> Sorted() const;

  /// Structural validation against the run's shape. Cache/link/slow targets
  /// must be valid leaf ids; relay targets must be relay nodes of
  /// `topology`; times must be >= 0 and slow factors in (0, 1].
  Status Validate(const TopologySpec& topology, int num_caches) const;

  /// "none" or e.g. "faults(crash=2,relay=1,flap=3,slow=0)" — for job
  /// names and tables.
  std::string Label() const;
};

/// How a source prioritizes resyncing a restarted (cold) cache against
/// keeping warm caches fresh — ROADMAP item 4's policy axis.
enum class RecoveryPolicy {
  /// Re-enqueue every member of the restarted cache into the ordinary
  /// push queue: resync refreshes compete with fresh updates purely on
  /// divergence priority. Cheap objects with low accrued divergence may
  /// wait arbitrarily long for their refill.
  kNaiveReenqueue = 0,
  /// A dedicated per-channel recovery FIFO drained ahead of the regular
  /// push phase each tick: the cold cache is refilled as fast as its link
  /// allows, at the cost of deferring fresh updates. Under the pull-based
  /// protocols this is a server-initiated recovery fill (the naive policy
  /// leaves refill entirely to read-triggered pulls).
  kRecoveryPriority = 1,
};

std::string RecoveryPolicyToString(RecoveryPolicy policy);

/// What happens to data messages stored at a relay when it fails.
enum class RelayStorePolicy {
  kDrop = 0,   ///< stored messages are lost with the relay
  kDrain = 1,  ///< stored messages re-enter the tree at their new first hop
};

std::string RelayStorePolicyToString(RelayStorePolicy policy);

/// Deterministic schedule generator carried on `WorkloadConfig`. Drawing
/// uses a dedicated Rng(seed), never the workload generator's stream, so
/// enabling faults does not perturb object rates, weights, or update
/// streams (MakeWorkload output is bit-identical apart from the schedule).
struct FaultScheduleConfig {
  /// Crash/restart pairs injected on leaf caches.
  int cache_crashes = 0;
  /// Downtime between each crash and its restart (seconds).
  double crash_duration = 20.0;
  /// When >= 0, every crash targets this leaf (the sweeps pin cache 0 so
  /// "warm" divergence is cleanly the other caches); -1 = uniform target.
  int32_t crash_cache = -1;
  /// Relay fail/recover pairs (requires a relay topology).
  int relay_failures = 0;
  double relay_fail_duration = 20.0;
  /// Link down/up windows on leaf ingress edges.
  int link_flaps = 0;
  double flap_duration = 10.0;
  /// Temporary slow-node windows on leaf ingress edges.
  int slowdowns = 0;
  double slow_duration = 20.0;
  double slow_factor = 0.25;
  /// Event start times are drawn uniformly in [window_start, window_end).
  /// window_end <= window_start collapses to firing at window_start.
  double window_start = 0.0;
  double window_end = 0.0;
  /// Seed of the dedicated schedule stream.
  uint64_t seed = 1234;

  bool enabled() const {
    return cache_crashes > 0 || relay_failures > 0 || link_flaps > 0 ||
           slowdowns > 0;
  }
};

/// Builds the schedule from `config` (empty when `config.enabled()` is
/// false, consuming no randomness at all). Relay targets are drawn from the
/// relays of `topology`; callers enabling relay failures on a flat topology
/// get a schedule that fails Validate.
FaultSchedule MakeFaultSchedule(const FaultScheduleConfig& config, int num_caches,
                                const TopologySpec& topology);

}  // namespace besync

#endif  // BESYNC_FAULT_FAULT_SCHEDULE_H_
