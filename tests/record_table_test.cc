// Unit tests for the RecordTable arena (congest/record_table.h): the slot
// pool, row proxies, copy semantics (including same-table row copies during
// pool growth), cursors, and the reset contract.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "congest/record_table.h"

namespace cpt::congest {
namespace {

std::vector<std::pair<std::uint64_t, std::int64_t>> contents(
    RecordTable::ConstRow row) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  for (const Record& r : row) out.push_back({r.key, r.value});
  return out;
}

using Pairs = std::vector<std::pair<std::uint64_t, std::int64_t>>;

TEST(RecordTable, PushAndIterateKeepsPerRowOrder) {
  RecordTable t;
  t.reset(4);
  t.push(2, {7, 70});
  t.push(0, {1, 10});
  t.push(2, {8, 80});  // interleaved with row 0
  t.push(0, {2, 20});
  EXPECT_EQ(contents(t[0]), (Pairs{{1, 10}, {2, 20}}));
  EXPECT_EQ(contents(t[2]), (Pairs{{7, 70}, {8, 80}}));
  EXPECT_TRUE(t[1].empty());
  EXPECT_EQ(t[2].size(), 2u);
  EXPECT_EQ(t[2][1].value, 80);
}

TEST(RecordTable, InitializerListAssignReplacesContents) {
  RecordTable t;
  t.reset(2);
  t[1] = {{1, 1}, {2, 2}, {3, 3}};
  EXPECT_EQ(t[1].size(), 3u);
  t[1] = {{9, 9}};
  EXPECT_EQ(contents(t[1]), (Pairs{{9, 9}}));
}

TEST(RecordTable, RowCopyAcrossAndWithinTables) {
  RecordTable a;
  RecordTable b;
  a.reset(3);
  b.reset(3);
  a[0] = {{1, 10}, {2, 20}};
  b[2] = a[0];  // cross-table
  EXPECT_EQ(contents(b[2]), (Pairs{{1, 10}, {2, 20}}));
  a[1] = a[0];  // same table, different row (pool grows mid-copy)
  EXPECT_EQ(contents(a[1]), (Pairs{{1, 10}, {2, 20}}));
  a[1] = a[1];  // self-copy is a no-op
  EXPECT_EQ(contents(a[1]), (Pairs{{1, 10}, {2, 20}}));
  // Source row unchanged by any of it.
  EXPECT_EQ(contents(a[0]), (Pairs{{1, 10}, {2, 20}}));
}

TEST(RecordTable, SameTableCopySurvivesPoolGrowth) {
  // Force reallocation during the copy: fill a row large enough that
  // appending a duplicate doubles the pool.
  RecordTable t;
  t.reset(2);
  for (std::uint64_t k = 0; k < 100; ++k) {
    t.push(0, {k, static_cast<std::int64_t>(k)});
  }
  t[1] = t[0];
  EXPECT_EQ(contents(t[1]), contents(t[0]));
  EXPECT_EQ(t[1].size(), 100u);
}

TEST(RecordTable, ClearRowAndRepush) {
  RecordTable t;
  t.reset(2);
  t[0] = {{1, 1}};
  t[0].clear();
  EXPECT_TRUE(t[0].empty());
  t.push(0, {5, 50});
  EXPECT_EQ(contents(t[0]), (Pairs{{5, 50}}));
}

TEST(RecordTable, ResetClearsTouchedRowsAndReusesThePool) {
  RecordTable t;
  t.reset(8);
  t[3] = {{1, 1}};
  t[5] = {{2, 2}, {3, 3}};
  EXPECT_FALSE(t.touched_rows().empty());
  t.reset(8);
  for (std::uint32_t v = 0; v < 8; ++v) EXPECT_TRUE(t[v].empty()) << v;
  EXPECT_TRUE(t.touched_rows().empty());
  // Rows written after the reset start fresh.
  t[5] = {{9, 9}};
  EXPECT_EQ(contents(t[5]), (Pairs{{9, 9}}));
}

TEST(RecordTable, ResetResizes) {
  RecordTable t;
  t.reset(2);
  t[1] = {{1, 1}};
  t.reset(5);
  EXPECT_EQ(t.num_rows(), 5u);
  for (std::uint32_t v = 0; v < 5; ++v) EXPECT_TRUE(t[v].empty());
}

TEST(RecordTable, CursorWalksARowAndResetsWithIt) {
  RecordTable t;
  t.reset(2);
  t[0] = {{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(t.cursor(0), RecordTable::kNilSlot);
  t.set_cursor(0, t.head_slot(0));
  std::vector<std::int64_t> seen;
  while (t.cursor(0) != RecordTable::kNilSlot) {
    seen.push_back(t.at_slot(t.cursor(0)).value);
    t.set_cursor(0, t.next_slot(t.cursor(0)));
  }
  EXPECT_EQ(seen, (std::vector<std::int64_t>{10, 20, 30}));
  t.reset(2);
  EXPECT_EQ(t.cursor(0), RecordTable::kNilSlot);
}

TEST(RecordTable, MutableIterationUpdatesInPlace) {
  RecordTable t;
  t.reset(1);
  t[0] = {{1, 1}, {2, 2}};
  for (Record& r : t[0]) r.value *= 10;
  EXPECT_EQ(contents(t[0]), (Pairs{{1, 10}, {2, 20}}));
}

TEST(RecordTable, TouchedRowsCoverEveryNonEmptyRow) {
  RecordTable t;
  t.reset(100);
  t[10] = {{1, 1}};
  t[20] = {{2, 2}};
  t[10].clear();
  t.push(10, {3, 3});
  // First-touch order, and a cleared-and-refilled row is listed again.
  EXPECT_EQ(t.touched_rows(), (std::vector<std::uint32_t>{10, 20, 10}));
  std::vector<bool> covered(100, false);
  for (const std::uint32_t v : t.touched_rows()) covered[v] = true;
  for (std::uint32_t v = 0; v < 100; ++v) {
    if (!t[v].empty()) {
      EXPECT_TRUE(covered[v]) << v;
    }
  }
}

TEST(RecordTable, ChainsSpanArenaChunks) {
  // The arena grows in chunks of 1024, 2048, 4096... slots; one long row
  // (and interleaved neighbours) must chain transparently across the
  // chunk boundaries.
  RecordTable t;
  t.reset(3);
  constexpr std::uint32_t kCount = 5000;  // spans chunks 0..2
  for (std::uint32_t i = 0; i < kCount; ++i) {
    t.push(0, {i, static_cast<std::int64_t>(i)});
    t.push(1, {i, -static_cast<std::int64_t>(i)});
  }
  EXPECT_EQ(t.size(0), kCount);
  EXPECT_EQ(t.size(1), kCount);
  std::uint64_t want = 0;
  for (const Record& rec : t[0]) {
    ASSERT_EQ(rec.key, want);
    ASSERT_EQ(rec.value, static_cast<std::int64_t>(want));
    ++want;
  }
  EXPECT_EQ(want, kCount);
  want = 0;
  for (const Record& rec : t[1]) {
    ASSERT_EQ(rec.value, -static_cast<std::int64_t>(want));
    ++want;
  }
  // Reset reuses the chunks: re-filling lands on the same capacity.
  t.reset(3);
  for (std::uint32_t i = 0; i < kCount; ++i) t.push(2, {i, 7});
  EXPECT_EQ(t.size(2), kCount);
}

TEST(RecordTable, SlotAddressesAreStableAcrossGrowth) {
  // A record's address never moves once pushed, no matter how much the
  // arena grows after, so a reference into a row survives pushes into the
  // same table.
  RecordTable t;
  t.reset(2);
  t.push(0, {42, 420});
  const Record* early = &t.at_slot(t.head_slot(0));
  for (std::uint32_t i = 0; i < 100000; ++i) {  // many chunk allocations
    t.push(1, {i, 1});
  }
  EXPECT_EQ(early, &t.at_slot(t.head_slot(0)));
  EXPECT_EQ(early->key, 42u);
  EXPECT_EQ(early->value, 420);
}

}  // namespace
}  // namespace cpt::congest
