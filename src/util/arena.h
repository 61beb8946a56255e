#ifndef BESYNC_UTIL_ARENA_H_
#define BESYNC_UTIL_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace besync {

/// Bump allocator for the hot-path per-replica state (divergence trackers,
/// ground-truth replica entries, channel membership tables): one Arena per
/// run replaces hundreds of thousands of individual vector allocations with
/// a handful of large blocks, giving contiguous struct-of-arrays layout and
/// O(1) teardown.
///
/// Deliberately minimal by design:
///  - no per-object free — memory is reclaimed only by Reset() or the
///    destructor, matching the run lifetime of everything stored here;
///  - destructors are never run, so every allocated type must be trivially
///    destructible (enforced at compile time by the typed helpers);
///  - not thread-safe — each run owns its arena.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = size_t{1} << 20;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned allocation. `alignment` must be a power of two.
  void* Allocate(size_t bytes, size_t alignment);

  /// Allocates and constructs a `count`-element array, constructing every
  /// element as T(args...) (value-initialized when no args are given).
  /// The elements live until Reset()/destruction; no destructors run.
  template <typename T, typename... Args>
  T* AllocateArray(size_t count, const Args&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    T* data = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    for (size_t i = 0; i < count; ++i) ::new (data + i) T(args...);
    return data;
  }

  /// Allocates and constructs one object.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return ::new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Invalidates every allocation but retains the blocks, so a reset arena
  /// re-serves the same footprint without touching the system allocator —
  /// the reuse path for repeated runs over one topology.
  void Reset();

  /// Bytes handed out since construction/Reset (excludes alignment padding).
  size_t bytes_used() const { return bytes_used_; }
  /// Total block capacity owned (monotone until destruction).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  /// Makes `active_` a block with >= bytes free at `ptr_`, reusing retained
  /// blocks before growing.
  void NextBlock(size_t bytes);

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t active_ = 0;   // index of the block ptr_/end_ point into
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_ARENA_H_
