#ifndef BESYNC_UTIL_PREFETCH_H_
#define BESYNC_UTIL_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace besync {

constexpr uintptr_t kCacheLineBytes = 64;

/// Most cache lines one PrefetchRange call touches. A lookahead prefetch
/// only has to start the first misses of a range: a 256-replica object's
/// tracker slice spans 256 lines, and the hardware's stream prefetcher
/// follows a sequential walk once it begins. The cap keeps such objects as
/// cheap to announce as single-replica ones.
constexpr int kPrefetchLineCap = 4;

/// Issues write-intent prefetches for the first kPrefetchLineCap cache lines
/// covering [begin, begin + bytes). A hint only: reads and writes nothing,
/// and never faults, whatever the address.
inline void PrefetchRange(const void* begin, size_t bytes) {
  uintptr_t line = reinterpret_cast<uintptr_t>(begin) & ~(kCacheLineBytes - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(begin) + bytes;
  for (int i = 0; i < kPrefetchLineCap && line < end; ++i, line += kCacheLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), /*rw=*/1);
  }
}

}  // namespace besync

#endif  // BESYNC_UTIL_PREFETCH_H_
