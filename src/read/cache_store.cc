#include "read/cache_store.h"

#include <algorithm>

#include "util/logging.h"

namespace besync {
namespace {

/// The index rebuilds once it holds kIndexSlack entries per slot it can
/// hold live (and at least kIndexMinEntries): dead and superseded entries
/// stay a bounded fraction, and the O(members) rebuild amortizes over at
/// least capacity pushes.
constexpr size_t kIndexSlack = 2;
constexpr size_t kIndexMinEntries = 64;

size_t IndexLimit(int64_t capacity) {
  return std::max(kIndexSlack * static_cast<size_t>(capacity), kIndexMinEntries);
}

/// Min-heap order on (read_count, last_touch, slot) for the std heap
/// algorithms, which keep the greatest element under `comp` at the front.
/// A function object, so the heap algorithms inline it.
struct KeyAfter {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.read_count != b.read_count) return a.read_count > b.read_count;
    if (a.last_touch != b.last_touch) return a.last_touch > b.last_touch;
    return a.slot > b.slot;
  }
};

}  // namespace

CacheStore::CacheStore(int64_t capacity, EvictionPolicy policy,
                       std::vector<ObjectIndex> members)
    : capacity_(capacity), policy_(policy), members_(std::move(members)) {
  for (size_t i = 1; i < members_.size(); ++i) {
    BESYNC_CHECK_LT(members_[i - 1], members_[i]) << "members must be ascending";
  }
  if (unbounded()) return;
  slots_.resize(members_.size());
  // Deterministic warm start: the first `capacity` members begin resident
  // (caches start synchronized with the sources in the divergence model).
  const int64_t initial = std::min<int64_t>(capacity_, num_members());
  for (int64_t slot = 0; slot < initial; ++slot) slots_[slot].resident = true;
  num_resident_ = initial;
  // Only a store that can evict needs the index; the divergence-aware key
  // moves with the ground truth, outside any store call, so it scans.
  indexed_ = policy_ != EvictionPolicy::kDivergenceAware && capacity_ < num_members();
  if (indexed_) {
    index_.reserve(IndexLimit(capacity_));
    RebuildIndex();
  }
}

int64_t CacheStore::SlotOf(ObjectIndex index) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), index);
  if (it == members_.end() || *it != index) return -1;
  return static_cast<int64_t>(it - members_.begin());
}

int64_t CacheStore::num_resident() const {
  return unbounded() && !crashed_ ? num_members() : num_resident_;
}

void CacheStore::Crash() {
  if (unbounded() && slots_.empty()) slots_.resize(members_.size());
  crashed_ = true;
  for (SlotState& state : slots_) {
    state.resident = false;
    state.last_touch = 0.0;
    state.read_count = 0;
  }
  num_resident_ = 0;
  index_.clear();
}

void CacheStore::PushIndex(int64_t slot) {
  if (index_.size() >= IndexLimit(capacity_)) {
    RebuildIndex();
    return;  // the rebuild keyed every resident, `slot` included
  }
  index_.push_back(KeyOf(slot));
  std::push_heap(index_.begin(), index_.end(), KeyAfter());
}

void CacheStore::RebuildIndex() {
  index_.clear();
  for (int64_t slot = 0; slot < num_members(); ++slot) {
    if (slots_[slot].resident) index_.push_back(KeyOf(slot));
  }
  std::make_heap(index_.begin(), index_.end(), KeyAfter());
}

int64_t CacheStore::PopVictim() {
  while (true) {
    BESYNC_CHECK(!index_.empty()) << "no resident replica to evict";
    std::pop_heap(index_.begin(), index_.end(), KeyAfter());
    const IndexEntry top = index_.back();
    index_.pop_back();
    if (!slots_[top.slot].resident) continue;  // evicted since the push
    const IndexEntry current = KeyOf(top.slot);
    // A resident slot's least entry is a lower bound on its key, so at the
    // top it is either current — the least key over all residents — or
    // stale-low (the slot was read since), and goes back at its real key.
    if (current.last_touch == top.last_touch && current.read_count == top.read_count) {
      return top.slot;
    }
    index_.push_back(current);
    std::push_heap(index_.begin(), index_.end(), KeyAfter());
  }
}

int64_t CacheStore::SelectVictim(const DivergenceFn& divergence_of) const {
  // Linear scan over the residents; evictions are per-install, so this is
  // O(members) on a path that already paid a network round trip.
  int64_t victim = -1;
  double victim_key = 0.0;
  double victim_touch = 0.0;
  uint32_t victim_count = 0;
  for (int64_t slot = 0; slot < num_members(); ++slot) {
    const SlotState& state = slots_[slot];
    if (!state.resident) continue;
    bool better = false;
    switch (policy_) {
      case EvictionPolicy::kLru:
        // Oldest read first; ties fall through to the lowest slot (the
        // first resident encountered wins, scan order is ascending).
        better = victim < 0 || state.last_touch < victim_touch;
        break;
      case EvictionPolicy::kLfu:
        better = victim < 0 || state.read_count < victim_count ||
                 (state.read_count == victim_count && state.last_touch < victim_touch);
        break;
      case EvictionPolicy::kDivergenceAware: {
        // Most-diverged replica first: dropping the stalest copy forces its
        // next read to pull fresh data instead of serving it; ties broken
        // least-recently-read, then lowest slot.
        const double divergence = divergence_of(slot);
        better = victim < 0 || divergence > victim_key ||
                 (divergence == victim_key && state.last_touch < victim_touch);
        if (better) victim_key = divergence;
        break;
      }
    }
    if (better) {
      victim = slot;
      victim_touch = state.last_touch;
      victim_count = state.read_count;
    }
  }
  BESYNC_CHECK_GE(victim, 0) << "no resident replica to evict";
  return victim;
}

int64_t CacheStore::Install(int64_t slot, double t, const DivergenceFn& divergence_of) {
  if (unbounded()) {
    // A crashed unbounded store refills slot by slot with no capacity
    // pressure; one that never crashed has everything resident already.
    if (crashed_ && !slots_[slot].resident) {
      slots_[slot].resident = true;
      slots_[slot].last_touch = t;
      ++num_resident_;
    }
    return -1;
  }
  SlotState& state = slots_[slot];
  if (state.resident) return -1;
  int64_t evicted = -1;
  if (num_resident_ >= capacity_) {
    evicted = indexed_ ? PopVictim() : SelectVictim(divergence_of);
    BESYNC_DCHECK(!indexed_ || evicted == SelectVictim(divergence_of))
        << "eviction index picked slot " << evicted << ", the scan picks "
        << SelectVictim(divergence_of);
    slots_[evicted].resident = false;
    slots_[evicted].read_count = 0;
    --num_resident_;
  }
  state.resident = true;
  state.last_touch = t;
  state.read_count = 0;
  ++num_resident_;
  if (indexed_) PushIndex(slot);
  return evicted;
}

void CacheStore::EnableSyncState(double initial_lease_expiry) {
  BESYNC_CHECK(sync_.empty()) << "EnableSyncState called twice";
  ReplicaSyncState initial;
  initial.lease_expiry = initial_lease_expiry;
  sync_.assign(members_.size(), initial);
}

}  // namespace besync
