#include "protocol/sync_protocol.h"

#include "util/logging.h"

namespace besync {
namespace {

/// Today's behavior, extracted: the threshold-driven push phases run
/// unchanged and replicas are served as-is — no validity state exists, so
/// every dispatch point degenerates to the historical code path bit for
/// bit.
class PushRefreshProtocol : public SyncProtocol {
 public:
  using SyncProtocol::SyncProtocol;
  SyncProtocolKind kind() const override { return SyncProtocolKind::kPushRefresh; }
  bool emits_push_refreshes() const override { return true; }
  bool emits_invalidations() const override { return false; }
  bool tracks_validity() const override { return false; }
  void OnRefreshApplied(ReplicaSyncState*, double) const override {}
  void OnInvalidate(ReplicaSyncState*, double) const override {
    BESYNC_CHECK(false) << "push refresh never emits invalidations";
  }
};

class InvalidationProtocol : public SyncProtocol {
 public:
  using SyncProtocol::SyncProtocol;
  SyncProtocolKind kind() const override { return SyncProtocolKind::kInvalidation; }
  bool emits_push_refreshes() const override { return false; }
  bool emits_invalidations() const override { return true; }
  bool tracks_validity() const override { return true; }
  void OnRefreshApplied(ReplicaSyncState* state, double) const override {
    state->valid = true;
  }
  void OnInvalidate(ReplicaSyncState* state, double) const override {
    state->valid = false;
  }
  void OnCacheRestart(ReplicaSyncState* state, double) const override {
    state->valid = false;
  }
};

class TtlLeaseProtocol : public SyncProtocol {
 public:
  using SyncProtocol::SyncProtocol;
  SyncProtocolKind kind() const override { return SyncProtocolKind::kTtlLease; }
  bool emits_push_refreshes() const override { return false; }
  bool emits_invalidations() const override { return false; }
  bool tracks_validity() const override { return true; }
  double initial_lease_expiry() const override { return config().ttl; }
  void OnRefreshApplied(ReplicaSyncState* state, double now) const override {
    state->lease_expiry = now + config().ttl;
  }
  void OnInvalidate(ReplicaSyncState*, double) const override {
    BESYNC_CHECK(false) << "TTL/lease sources never emit invalidations";
  }
  void OnCacheRestart(ReplicaSyncState* state, double now) const override {
    state->lease_expiry = now;  // expired: the next read misses and pulls
  }
};

}  // namespace

std::string SyncProtocolKindToString(SyncProtocolKind kind) {
  switch (kind) {
    case SyncProtocolKind::kPushRefresh:
      return "push-refresh";
    case SyncProtocolKind::kInvalidation:
      return "invalidation";
    case SyncProtocolKind::kTtlLease:
      return "ttl-lease";
  }
  return "unknown";
}

std::unique_ptr<SyncProtocol> SyncProtocol::Make(const SyncProtocolConfig& config) {
  BESYNC_CHECK_GE(config.max_invalidate_batch, 1);
  BESYNC_CHECK_GT(config.ttl, 0.0) << "lease durations must be positive";
  switch (config.kind) {
    case SyncProtocolKind::kPushRefresh:
      return std::unique_ptr<SyncProtocol>(new PushRefreshProtocol(config));
    case SyncProtocolKind::kInvalidation:
      return std::unique_ptr<SyncProtocol>(new InvalidationProtocol(config));
    case SyncProtocolKind::kTtlLease:
      return std::unique_ptr<SyncProtocol>(new TtlLeaseProtocol(config));
  }
  BESYNC_CHECK(false) << "unknown protocol kind";
  return nullptr;
}

}  // namespace besync
