#ifndef BESYNC_PROTOCOL_SYNC_PROTOCOL_H_
#define BESYNC_PROTOCOL_SYNC_PROTOCOL_H_

#include <limits>
#include <memory>
#include <string>

namespace besync {

/// The consistency protocol a run synchronizes replicas with. The paper's
/// engine hard-coded best-effort push refresh; this layer makes the classic
/// alternatives first-class competitors scored by the same divergence /
/// staleness machinery (see DESIGN.md, "Invalidation and lease semantics vs
/// time-averaged divergence").
enum class SyncProtocolKind {
  /// The paper's protocol (Sections 5-6): sources push refreshed values for
  /// over-threshold objects; replicas are always served as-is. The
  /// extracted default — bitwise identical to the pre-protocol engine.
  kPushRefresh,
  /// Sources emit tiny kInvalidate notifications on updates instead of
  /// values; an invalidated replica turns the next read into a miss pull.
  /// One notification per replica per staleness episode: once a replica is
  /// known-invalid, further updates cost nothing until a pull re-fills it.
  kInvalidation,
  /// Pure TTL/leases: zero steady-state source messages. Every delivery
  /// grants the replica a lease of `ttl` seconds; reads past the expiry
  /// miss and pull.
  kTtlLease,
};

std::string SyncProtocolKindToString(SyncProtocolKind kind);

/// Protocol selection plus the knobs of the non-default protocols.
struct SyncProtocolConfig {
  SyncProtocolKind kind = SyncProtocolKind::kPushRefresh;
  /// Batched/multicast emission: up to this many replica invalidations are
  /// packaged into one unit-cost kInvalidate message per cache channel —
  /// the coded-multicast amortization analogue over the per-cache link
  /// model.
  int max_invalidate_batch = 1;
  /// Lease duration in seconds (kTtlLease).
  double ttl = 50.0;
};

/// Per-replica synchronization state kept next to residency in the cache
/// store. Push refresh never consults it; invalidation toggles `valid`;
/// TTL/leases advance `lease_expiry` on every delivery.
struct ReplicaSyncState {
  bool valid = true;
  double lease_expiry = std::numeric_limits<double>::infinity();

  /// Whether a resident replica may serve a read at `now`. One predicate
  /// covers every validity-tracking protocol, because each moves only its
  /// own field: invalidation never moves `lease_expiry` off +infinity, and
  /// TTL/leases never clear `valid` (tests/protocol_test.cc pins both).
  bool Fresh(double now) const { return valid && now < lease_expiry; }
};

/// One consistency protocol: what a source emits when an object is updated,
/// what a cache does when a protocol message arrives, and whether a read may
/// be served from a resident replica. The scheduler dispatches its tick
/// phases through this interface; the source and read-path agents consult
/// it at their emission / receipt / read decision points.
class SyncProtocol {
 public:
  static std::unique_ptr<SyncProtocol> Make(const SyncProtocolConfig& config);

  virtual ~SyncProtocol() = default;

  virtual SyncProtocolKind kind() const = 0;
  std::string name() const { return SyncProtocolKindToString(kind()); }
  const SyncProtocolConfig& config() const { return config_; }

  /// Whether the adaptive push machinery runs at all: the threshold send
  /// phase (step 2) and the surplus-feedback phase (step 4). False for
  /// invalidation and TTL — their sources never push values unprompted, so
  /// threshold feedback would spend bandwidth steering nothing.
  virtual bool emits_push_refreshes() const = 0;

  /// Whether sources emit kInvalidate messages on updates (step 2 becomes
  /// the invalidation send phase).
  virtual bool emits_invalidations() const = 0;

  /// Whether replicas carry ReplicaSyncState the read path must check: a
  /// resident replica only serves a read when ReplicaSyncState::Fresh() also
  /// holds.
  virtual bool tracks_validity() const = 0;

  /// Lease expiry granted to the synchronized replicas at run start
  /// (replicas begin in sync at t = 0). Infinity when leases do not apply.
  virtual double initial_lease_expiry() const {
    return std::numeric_limits<double>::infinity();
  }

  /// Delivery hook: a refresh (push or pull response) was applied to the
  /// replica at `now`.
  virtual void OnRefreshApplied(ReplicaSyncState* state, double now) const = 0;

  /// Receipt hook: a kInvalidate notification for the replica landed at
  /// `now`.
  virtual void OnInvalidate(ReplicaSyncState* state, double now) const = 0;

  /// Fault hook: the replica's cache crashed and restarted at `now`, losing
  /// all in-memory content and protocol state. The restarted replica must
  /// not be servable until refreshed: invalidation marks it invalid, TTL
  /// expires its lease. Push refresh keeps no validity state — a no-op.
  virtual void OnCacheRestart(ReplicaSyncState* state, double now) const {
    (void)state;
    (void)now;
  }

 protected:
  explicit SyncProtocol(const SyncProtocolConfig& config) : config_(config) {}

 private:
  SyncProtocolConfig config_;
};

}  // namespace besync

#endif  // BESYNC_PROTOCOL_SYNC_PROTOCOL_H_
