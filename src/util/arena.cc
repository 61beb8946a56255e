#include "util/arena.h"

#include <cstdint>

#include "util/logging.h"

namespace besync {

Arena::Arena(size_t block_bytes) : block_bytes_(block_bytes) {
  BESYNC_CHECK(block_bytes_ > 0) << "arena block size must be positive";
}

void* Arena::Allocate(size_t bytes, size_t alignment) {
  BESYNC_CHECK(alignment > 0 && (alignment & (alignment - 1)) == 0)
      << "alignment must be a power of two, got " << alignment;
  if (bytes == 0) bytes = 1;  // distinct non-null pointers for empty arrays
  const auto align_up = [alignment](const char* p) {
    return (reinterpret_cast<uintptr_t>(p) + alignment - 1) &
           ~static_cast<uintptr_t>(alignment - 1);
  };
  // A fresh block is max_align-aligned; the alignment - 1 bytes of slack
  // also cover stricter alignments (the harness's 64-byte object records).
  const size_t padded = bytes + alignment - 1;
  bytes_used_ += bytes;
  if (padded > block_bytes_) {
    return reinterpret_cast<void*>(align_up(LargeBlock(padded)));
  }
  uintptr_t aligned = align_up(ptr_);
  if (ptr_ == nullptr || aligned + bytes > reinterpret_cast<uintptr_t>(end_)) {
    NextBlock();
    aligned = align_up(ptr_);
  }
  ptr_ = reinterpret_cast<char*>(aligned + bytes);
  return reinterpret_cast<void*>(aligned);
}

void Arena::NextBlock() {
  // Reuse retained blocks (post-Reset) before growing. `active_` stays the
  // index of the block in use; blocks_ is never reordered.
  const size_t next = ptr_ == nullptr ? 0 : active_ + 1;
  if (next == blocks_.size()) {
    blocks_.push_back(Block{std::make_unique<char[]>(block_bytes_), block_bytes_});
    bytes_reserved_ += block_bytes_;
  }
  active_ = next;
  ptr_ = blocks_[next].data.get();
  end_ = ptr_ + block_bytes_;
}

char* Arena::LargeBlock(size_t bytes) {
  while (next_large_ < large_blocks_.size()) {
    const Block& block = large_blocks_[next_large_++];
    if (block.size >= bytes) return block.data.get();
  }
  large_blocks_.push_back(Block{std::make_unique<char[]>(bytes), bytes});
  bytes_reserved_ += bytes;
  next_large_ = large_blocks_.size();
  return large_blocks_.back().data.get();
}

void Arena::Reset() {
  active_ = 0;
  next_large_ = 0;
  ptr_ = nullptr;
  end_ = nullptr;
  bytes_used_ = 0;
}

}  // namespace besync
