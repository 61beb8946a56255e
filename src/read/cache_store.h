#ifndef BESYNC_READ_CACHE_STORE_H_
#define BESYNC_READ_CACHE_STORE_H_

#include <cstdint>
#include <functional>
#include <limits>
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
  /// Current divergence of the replica in a member slot — the key of
  /// EvictionPolicy::kDivergenceAware, which no other policy reads.
  using DivergenceFn = std::function<double(int64_t slot)>;

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
  /// Read times need not be monotone per slot: a tick installs at the tick
  /// time and then serves reads stamped earlier in the same tick.
  void TouchRead(int64_t slot, double t) {
    if (unbounded()) return;
    SlotState& state = slots_[slot];
    // Only a lower LRU key can invalidate the index's lower bounds; an LFU
    // touch always raises read_count, the key's leading field.
    const bool key_drops = t < state.last_touch;
    state.last_touch = t;
    if (state.read_count != std::numeric_limits<uint32_t>::max()) ++state.read_count;
    if (key_drops && indexed_ && policy_ == EvictionPolicy::kLru && state.resident) {
      PushIndex(slot);
    }
  }

  /// Makes `slot` resident at time `t` (pull response or push refresh for a
  /// non-resident member), evicting a victim first when at capacity.
  /// `divergence_of` is read by EvictionPolicy::kDivergenceAware only and
  /// may be empty for the other policies. Returns the evicted slot, or -1
  /// when none was needed. No-op (returns -1) when the slot is already
  /// resident or the store is unbounded.
  int64_t Install(int64_t slot, double t, const DivergenceFn& divergence_of);

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
    double last_touch = 0.0;
    /// Reads since install, saturating at 2^32 - 1 (LFU's key; the cap is
    /// out of reach of any run, and keeps slots and index entries small).
    uint32_t read_count = 0;
    bool resident = false;
  };

  /// One eviction-index entry: a slot's key as of the push. LRU entries
  /// carry read_count 0, so one order — (read_count, last_touch, slot) —
  /// serves both policies.
  struct IndexEntry {
    double last_touch;
    uint32_t read_count;
    int32_t slot;
  };

  /// Victim slot under the configured policy by a scan over every member
  /// (requires >= 1 resident). The policy of record: kDivergenceAware
  /// evicts through it, and the LRU/LFU index must agree with it.
  int64_t SelectVictim(const DivergenceFn& divergence_of) const;

  /// `slot`'s current eviction key.
  IndexEntry KeyOf(int64_t slot) const {
    const SlotState& state = slots_[slot];
    return {state.last_touch,
            policy_ == EvictionPolicy::kLfu ? state.read_count : 0u,
            static_cast<int32_t>(slot)};
  }
  /// Pushes `slot`'s current key, or rebuilds the index instead once dead
  /// and superseded entries have filled it to its limit.
  void PushIndex(int64_t slot);
  /// Rebuilds the index from the residents' current keys.
  void RebuildIndex();
  /// Pops the resident slot with the least key: SelectVictim's pick.
  int64_t PopVictim();

  int64_t capacity_;
  EvictionPolicy policy_;
  std::vector<ObjectIndex> members_;
  /// Per-slot state; empty when unbounded (nothing to track).
  std::vector<SlotState> slots_;
  /// Per-slot protocol state; empty unless EnableSyncState was called.
  std::vector<ReplicaSyncState> sync_;
  int64_t num_resident_ = 0;
  /// Lazy min-heap over (read_count, last_touch, slot) for LRU and LFU
  /// stores that can evict (capacity < members). Every resident slot has an
  /// entry whose key is <= its current key, so the least entry whose key
  /// is current names the exact victim; entries of non-resident slots and
  /// stale-low entries are dropped or re-keyed when they surface.
  bool indexed_ = false;
  std::vector<IndexEntry> index_;
  /// Set by Crash(): an unbounded store tracks residency via slots_ from
  /// then on. Never set on the fault-free path.
  bool crashed_ = false;
};

}  // namespace besync

#endif  // BESYNC_READ_CACHE_STORE_H_
