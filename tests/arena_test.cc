#include "util/arena.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace besync {
namespace {

bool IsAligned(const void* p, size_t alignment) {
  return reinterpret_cast<uintptr_t>(p) % alignment == 0;
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(256);
  char* a = static_cast<char*>(arena.Allocate(3, 1));
  double* d = static_cast<double*>(arena.Allocate(sizeof(double), alignof(double)));
  char* b = static_cast<char*>(arena.Allocate(5, 1));
  void* wide = arena.Allocate(64, 64);

  EXPECT_TRUE(IsAligned(d, alignof(double)));
  EXPECT_TRUE(IsAligned(wide, 64));

  // Writes through each pointer must not clobber the others.
  std::memset(a, 0xaa, 3);
  *d = 1.5;
  std::memset(b, 0xbb, 5);
  std::memset(wide, 0xcc, 64);
  EXPECT_EQ(static_cast<unsigned char>(a[2]), 0xaa);
  EXPECT_EQ(*d, 1.5);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xbb);
}

TEST(ArenaTest, GrowsAcrossBlocksAndHonorsOversizedRequests) {
  Arena arena(64);
  // Many small allocations spanning several 64-byte blocks.
  std::vector<int*> ints;
  for (int i = 0; i < 100; ++i) {
    int* p = arena.New<int>(i);
    ints.push_back(p);
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*ints[i], i);

  // A request far larger than the block size gets its own block.
  int* big = arena.AllocateArray<int>(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(big[i], 0);  // value-initialized
  big[999] = 7;
  EXPECT_EQ(big[999], 7);
  EXPECT_GE(arena.bytes_reserved(), 1000 * sizeof(int));
}

TEST(ArenaTest, OversizedRequestsKeepTheCurrentBlock) {
  Arena arena(1024);
  char* a = static_cast<char*>(arena.Allocate(16, 16));
  void* big = arena.Allocate(4096, 64);
  char* b = static_cast<char*>(arena.Allocate(16, 16));
  EXPECT_TRUE(IsAligned(big, 64));
  // The small requests share the first block: the oversized one took a
  // block of its own and left the rest of the current block in use.
  EXPECT_EQ(b, a + 16);
  EXPECT_EQ(arena.bytes_reserved(), 1024u + 4096u + 63u);

  // After Reset the same pattern reuses both kinds of block.
  arena.Reset();
  EXPECT_EQ(arena.Allocate(16, 16), a);
  EXPECT_EQ(arena.Allocate(4096, 64), big);
  EXPECT_EQ(arena.Allocate(16, 16), b);
  EXPECT_EQ(arena.bytes_reserved(), 1024u + 4096u + 63u);
}

TEST(ArenaTest, AllocateArrayConstructsWithArguments) {
  struct Tracked {
    explicit Tracked(int v) : value(v), doubled(2 * v) {}
    int value;
    int doubled;
  };
  Arena arena;
  Tracked* items = arena.AllocateArray<Tracked>(17, 21);
  for (int i = 0; i < 17; ++i) {
    EXPECT_EQ(items[i].value, 21);
    EXPECT_EQ(items[i].doubled, 42);
  }
}

TEST(ArenaTest, ResetReusesReservedBlocksWithoutGrowing) {
  Arena arena(1024);
  for (int i = 0; i < 300; ++i) arena.Allocate(16, 8);
  const size_t reserved = arena.bytes_reserved();
  EXPECT_GT(arena.bytes_used(), 0u);

  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);

  // The same allocation pattern after Reset fits in the retained blocks.
  for (int i = 0; i < 300; ++i) arena.Allocate(16, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, ZeroByteAllocationsAreDistinct) {
  Arena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace besync
