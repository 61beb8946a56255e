#ifndef BESYNC_READ_CACHE_STORE_H_
#define BESYNC_READ_CACHE_STORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/object.h"
#include "data/read_process.h"
#include "protocol/sync_protocol.h"

namespace besync {

/// Residency bookkeeping for one capacity-limited cache: which of the
/// cache's replicated objects are currently held, touched by client reads
/// and installed by deliveries (push refreshes and pull responses), with a
/// pluggable eviction policy. With unbounded capacity (the default) every
/// member is permanently resident and the store is inert — exactly the
/// historical model where a cache holds all its replicas forever.
///
/// The store tracks residency only; the divergence accounting
/// (divergence/ground_truth.h) keeps scoring each replica's last-applied
/// content whether or not it is resident — see DESIGN.md ("Read-time
/// staleness vs time-averaged divergence") for what evictions do and do
/// not count toward the paper's objective.
class CacheStore {
 public:
  /// `members`: ascending global object indices replicated at this cache.
  /// `capacity` <= 0 = unbounded. Initially the first min(capacity, n)
  /// members are resident (deterministic warm start; the remainder faults
  /// in through misses).
  CacheStore(int64_t capacity, EvictionPolicy policy,
             std::vector<ObjectIndex> members);

  bool unbounded() const { return capacity_ <= 0; }
  int64_t capacity() const { return capacity_; }
  int64_t num_members() const { return static_cast<int64_t>(members_.size()); }
  ObjectIndex member(int64_t slot) const { return members_[slot]; }
  /// Slot of `index` in the member list, or -1 if not replicated here.
  int64_t SlotOf(ObjectIndex index) const;

  bool resident(int64_t slot) const {
    return (unbounded() && !crashed_) || slots_[slot].resident;
  }
  int64_t num_resident() const;

  /// Drops every resident replica (fault injection: the cache process
  /// died). Unbounded stores switch to tracked residency from here on —
  /// content returns only through installs (pull responses and push
  /// refreshes), never by fiat — so the "everything is always resident"
  /// fast path applies only to stores that have never crashed. A crash is
  /// not an eviction: only Install reports evictions.
  void Crash();
  /// True once Crash() has been called (residency is tracked even when
  /// unbounded).
  bool ever_crashed() const { return crashed_; }

  /// Records a client read hit of `slot` at time `t` (LRU/LFU bookkeeping).
  void TouchRead(int64_t slot, double t);

  /// Makes `slot` resident at time `t` (pull response or push refresh for a
  /// non-resident member), evicting a victim first when at capacity.
  /// `divergence_of` supplies the current replica divergence of a member
  /// (used by EvictionPolicy::kDivergenceAware; may be empty for the other
  /// policies). Returns the evicted slot, or -1 when none was needed.
  /// No-op (returns -1) when the slot is already resident or the store is
  /// unbounded.
  int64_t Install(int64_t slot, double t,
                  const std::function<double(ObjectIndex)>& divergence_of);

  /// Allocates per-slot ReplicaSyncState for validity-tracking protocols
  /// (invalidation / TTL), sized over all members even when the store is
  /// unbounded. Replicas start synchronized: valid, with the given lease
  /// expiry (infinity except under TTL). Call once before the run.
  void EnableSyncState(double initial_lease_expiry);
  bool sync_state_enabled() const { return !sync_.empty(); }
  ReplicaSyncState& sync_state(int64_t slot) { return sync_[slot]; }
  const ReplicaSyncState& sync_state(int64_t slot) const { return sync_[slot]; }

 private:
  struct SlotState {
    bool resident = false;
    double last_touch = 0.0;
    int64_t read_count = 0;
  };

  /// Victim slot under the configured policy (requires >= 1 resident).
  int64_t SelectVictim(const std::function<double(ObjectIndex)>& divergence_of) const;

  int64_t capacity_;
  EvictionPolicy policy_;
  std::vector<ObjectIndex> members_;
  /// Per-slot state; empty when unbounded (nothing to track).
  std::vector<SlotState> slots_;
  /// Per-slot protocol state; empty unless EnableSyncState was called.
  std::vector<ReplicaSyncState> sync_;
  int64_t num_resident_ = 0;
  /// Set by Crash(): an unbounded store tracks residency via slots_ from
  /// then on. Never set on the fault-free path.
  bool crashed_ = false;
};

}  // namespace besync

#endif  // BESYNC_READ_CACHE_STORE_H_
