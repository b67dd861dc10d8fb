#include "util/indexed_bitset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace cpt {
namespace {

TEST(IndexedBitset, InsertContainsErase) {
  IndexedBitset s(1000);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(42));
  EXPECT_FALSE(s.insert(42));  // duplicate
  EXPECT_TRUE(s.contains(42));
  EXPECT_FALSE(s.contains(41));
  EXPECT_EQ(s.size(), 1u);
  s.erase(42);
  EXPECT_FALSE(s.contains(42));
  EXPECT_TRUE(s.empty());
}

TEST(IndexedBitset, DrainsInSortedOrder) {
  IndexedBitset s(1 << 20);
  const std::vector<std::size_t> values = {999999, 0, 63, 64, 65, 4096, 4095,
                                           123456, 1, 2};
  for (const auto v : values) s.insert(v);
  std::vector<std::size_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> drained;
  while (!s.empty()) {
    EXPECT_EQ(s.front(), sorted[drained.size()]);
    drained.push_back(s.pop_front());
  }
  EXPECT_EQ(drained, sorted);
}

TEST(IndexedBitset, InterleavedInsertBelowMinimum) {
  IndexedBitset s(1 << 18);
  s.insert(100000);
  EXPECT_EQ(s.front(), 100000u);
  s.insert(5);  // below the scan cursors
  EXPECT_EQ(s.front(), 5u);
  EXPECT_EQ(s.pop_front(), 5u);
  EXPECT_EQ(s.pop_front(), 100000u);
  EXPECT_TRUE(s.empty());
}

TEST(IndexedBitset, RandomizedAgainstStdSet) {
  IndexedBitset s(1 << 16);
  std::set<std::size_t> ref;
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.next_below(4);
    const std::size_t v = rng.next_below(1 << 16);
    if (op == 0) {
      EXPECT_EQ(s.insert(v), ref.insert(v).second);
    } else if (op == 1 && !ref.empty()) {
      EXPECT_EQ(s.front(), *ref.begin());
      EXPECT_EQ(s.pop_front(), *ref.begin());
      ref.erase(ref.begin());
    } else if (op == 2) {
      EXPECT_EQ(s.contains(v), ref.count(v) > 0);
    } else if (op == 3 && ref.count(v) > 0) {
      s.erase(v);
      ref.erase(v);
    }
    EXPECT_EQ(s.size(), ref.size());
  }
  while (!ref.empty()) {
    EXPECT_EQ(s.pop_front(), *ref.begin());
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(s.empty());
}

TEST(IndexedBitset, ClearIsReusable) {
  IndexedBitset s(512);
  for (std::size_t i = 0; i < 512; i += 3) s.insert(i);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.insert(511);
  s.insert(0);
  EXPECT_EQ(s.pop_front(), 0u);
  EXPECT_EQ(s.pop_front(), 511u);
}

TEST(IndexedBitset, TinyAndBoundaryCapacities) {
  IndexedBitset s(1);
  EXPECT_TRUE(s.insert(0));
  EXPECT_EQ(s.front(), 0u);
  s.clear();
  s.reset(65);  // straddles one level-0 word boundary
  EXPECT_TRUE(s.insert(64));
  EXPECT_TRUE(s.insert(63));
  EXPECT_EQ(s.pop_front(), 63u);
  EXPECT_EQ(s.pop_front(), 64u);
}

}  // namespace
}  // namespace cpt
