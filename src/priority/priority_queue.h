#ifndef BESYNC_PRIORITY_PRIORITY_QUEUE_H_
#define BESYNC_PRIORITY_PRIORITY_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "data/object.h"

namespace besync {

/// Heap entry referencing an object, stamped with the epoch at push time.
/// Entries whose epoch no longer matches the object's current epoch are
/// stale and discarded lazily on pop — the standard lazy-deletion trick for
/// priority queues whose keys change only on explicit events (here: object
/// updates and refresh sends; Section 8's "sources can maintain a priority
/// queue so that the highest-priority updated object can be located
/// quickly").
struct QueueEntry {
  double key = 0.0;
  ObjectIndex index = 0;
  uint64_t epoch = 0;
};

/// Resolves an object's current epoch (for staleness checks). The heap
/// methods are templated on the resolver so hot callers can pass a plain
/// struct functor (inlined epoch lookups); this alias remains for callers
/// where a type-erased resolver is convenient.
using EpochFn = std::function<uint64_t(ObjectIndex)>;

namespace heap_internal {
// Struct comparators so std::push_heap/pop_heap inline the comparison (a
// free function decays to a function pointer, costing an indirect call per
// comparison on the hottest path in the engine).
struct KeyLess {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return a.key < b.key;
  }
};
struct KeyGreater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return a.key > b.key;
  }
};
}  // namespace heap_internal

/// Max-heap on QueueEntry::key with lazy invalidation.
class LazyMaxHeap {
 public:
  void Push(double key, ObjectIndex index, uint64_t epoch) {
    entries_.push_back(QueueEntry{key, index, epoch});
    std::push_heap(entries_.begin(), entries_.end(), heap_internal::KeyLess{});
  }

  /// Prefetches what the next Push touches first: the slot it appends and
  /// that slot's heap parent, the first comparison of the sift-up. A hint
  /// only; reads and writes nothing.
  void PrefetchPush() const {
    const QueueEntry* end = entries_.data() + entries_.size();
    __builtin_prefetch(end, /*rw=*/1);
    if (!entries_.empty()) {
      __builtin_prefetch(entries_.data() + (entries_.size() - 1) / 2, /*rw=*/0);
    }
  }

  /// Prefetches the heap's front, the first entry PopValid reads. A hint
  /// only; reads and writes nothing.
  void PrefetchFront() const { __builtin_prefetch(entries_.data()); }
  /// The front entry: the largest key, possibly stale. Requires !empty().
  const QueueEntry& front() const { return entries_.front(); }

  /// Discards stale entries, then removes and returns the top valid entry.
  /// Returns false if no valid entry remains.
  template <typename Epoch>
  bool PopValid(const Epoch& current_epoch, QueueEntry* out) {
    DiscardStaleTop(current_epoch);
    if (entries_.empty()) return false;
    std::pop_heap(entries_.begin(), entries_.end(), heap_internal::KeyLess{});
    *out = entries_.back();
    entries_.pop_back();
    return true;
  }

  /// Discards stale entries, then peeks the top valid entry without
  /// removing it. Returns false if no valid entry remains.
  template <typename Epoch>
  bool PeekValid(const Epoch& current_epoch, QueueEntry* out) {
    DiscardStaleTop(current_epoch);
    if (entries_.empty()) return false;
    *out = entries_.front();
    return true;
  }

  /// Re-inserts an entry previously obtained from PopValid.
  void Restore(const QueueEntry& entry) {
    entries_.push_back(entry);
    std::push_heap(entries_.begin(), entries_.end(), heap_internal::KeyLess{});
  }

  /// Drops every stale entry and re-heapifies. Since a fresh entry is pushed
  /// on each object update, callers invoke this periodically (e.g. when the
  /// heap exceeds a small multiple of the live object count) to keep memory
  /// proportional to the number of objects rather than the number of
  /// updates.
  template <typename Epoch>
  void Compact(const Epoch& current_epoch) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&current_epoch](const QueueEntry& entry) {
                                    return entry.epoch != current_epoch(entry.index);
                                  }),
                   entries_.end());
    std::make_heap(entries_.begin(), entries_.end(), heap_internal::KeyLess{});
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

 private:
  template <typename Epoch>
  void DiscardStaleTop(const Epoch& current_epoch) {
    while (!entries_.empty() &&
           entries_.front().epoch != current_epoch(entries_.front().index)) {
      std::pop_heap(entries_.begin(), entries_.end(), heap_internal::KeyLess{});
      entries_.pop_back();
    }
  }

  std::vector<QueueEntry> entries_;
};

/// Min-heap on QueueEntry::key interpreted as a timestamp, with the same
/// lazy invalidation. Used by time-varying (Section 9 bound) policies to
/// wake objects when their priority is expected to cross the threshold.
class TimeMinHeap {
 public:
  void Push(double time, ObjectIndex index, uint64_t epoch) {
    entries_.push_back(QueueEntry{time, index, epoch});
    std::push_heap(entries_.begin(), entries_.end(), heap_internal::KeyGreater{});
  }

  /// Prefetches the heap's front, the first entry PopDue reads. A hint
  /// only; reads and writes nothing.
  void PrefetchFront() const { __builtin_prefetch(entries_.data()); }

  /// Pops the earliest valid entry whose time is <= `now`; returns false if
  /// none is due.
  template <typename Epoch>
  bool PopDue(double now, const Epoch& current_epoch, QueueEntry* out) {
    while (!entries_.empty()) {
      const QueueEntry& top = entries_.front();
      if (top.epoch != current_epoch(top.index)) {
        std::pop_heap(entries_.begin(), entries_.end(), heap_internal::KeyGreater{});
        entries_.pop_back();
        continue;
      }
      if (top.key > now) return false;  // earliest valid entry not due yet
      std::pop_heap(entries_.begin(), entries_.end(), heap_internal::KeyGreater{});
      *out = entries_.back();
      entries_.pop_back();
      return true;
    }
    return false;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

 private:
  std::vector<QueueEntry> entries_;
};

}  // namespace besync

#endif  // BESYNC_PRIORITY_PRIORITY_QUEUE_H_
