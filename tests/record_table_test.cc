// Unit tests for the RecordTable arena (congest/record_table.h): the slot
// pool, row proxies, copy semantics (including same-table row copies during
// pool growth), cursors, and the reset contract.
#include <gtest/gtest.h>

#include <thread>
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
  t.push(2, {7, 70}, RecordTable::kDriverShard);
  t.push(0, {1, 10}, RecordTable::kDriverShard);
  t.push(2, {8, 80}, RecordTable::kDriverShard);  // interleaved with row 0
  t.push(0, {2, 20}, RecordTable::kDriverShard);
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
    t.push(0, {k, static_cast<std::int64_t>(k)}, RecordTable::kDriverShard);
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
  t.push(0, {5, 50}, RecordTable::kDriverShard);
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
  t.push(10, {3, 3}, RecordTable::kDriverShard);
  std::vector<bool> covered(100, false);
  for (const std::uint32_t v : t.touched_rows()) covered[v] = true;
  for (std::uint32_t v = 0; v < 100; ++v) {
    if (!t[v].empty()) {
      EXPECT_TRUE(covered[v]) << v;
    }
  }
}

// ---- Sharded slot pools (parallel rounds) --------------------------------

TEST(RecordTableShards, PushesToDistinctShardsKeepPerRowOrder) {
  RecordTable t;
  t.reset(4);
  // One row fed from three shards in sequence: the chain must cross the
  // shard arenas transparently and preserve push order.
  t.push(1, {1, 10}, 0);
  t.push(1, {2, 20}, 3);
  t.push(1, {3, 30}, 1);
  t.push(1, {4, 40}, 3);
  EXPECT_EQ(contents(t[1]), (Pairs{{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  // Slot encoding round-trips through the chain accessors.
  std::uint32_t slot = t.head_slot(1);
  int count = 0;
  while (slot != RecordTable::kNilSlot) {
    ++count;
    slot = t.next_slot(slot);
  }
  EXPECT_EQ(count, 4);
}

TEST(RecordTableShards, TouchedRowsSpanShards) {
  RecordTable t;
  t.reset(50);
  t.push(5, {1, 1}, 0);
  t.push(7, {2, 2}, 2);
  t.push(9, {3, 3}, 4);
  std::vector<bool> covered(50, false);
  for (const std::uint32_t v : t.touched_rows()) covered[v] = true;
  EXPECT_TRUE(covered[5]);
  EXPECT_TRUE(covered[7]);
  EXPECT_TRUE(covered[9]);
}

TEST(RecordTableShards, WatermarkResetRearmsEveryShard) {
  RecordTable t;
  t.reset(8);
  for (std::uint32_t s : {0u, 1u, 2u}) {
    for (std::uint32_t i = 0; i < 5; ++i) t.push(s, {s, i}, s);
  }
  t.reset(8);
  for (std::uint32_t v = 0; v < 8; ++v) EXPECT_TRUE(t[v].empty()) << v;
  // Refill after reset: watermarks restarted, old slots recycled, rows
  // rebuilt from scratch in every shard.
  t.push(0, {9, 90}, 2);
  t.push(0, {8, 80}, 1);
  EXPECT_EQ(contents(t[0]), (Pairs{{9, 90}, {8, 80}}));
  t.reset(8);
  EXPECT_TRUE(t[0].empty());
}

TEST(RecordTableShards, CursorStreamsAcrossShardBoundaries) {
  RecordTable t;
  t.reset(2);
  t.push(0, {1, 10}, 0);
  t.push(0, {2, 20}, 5);
  t.push(0, {3, 30}, 1);
  t.set_cursor(0, t.head_slot(0));
  Pairs walked;
  for (std::uint32_t slot = t.cursor(0); slot != RecordTable::kNilSlot;
       slot = t.next_slot(slot)) {
    walked.push_back({t.at_slot(slot).key, t.at_slot(slot).value});
  }
  EXPECT_EQ(walked, (Pairs{{1, 10}, {2, 20}, {3, 30}}));
}

// The concurrency contract of the simulator's parallel rounds: each worker
// pushes to its own rows through its own shard, concurrently with the
// others; after the joins, every row holds exactly its worker's pushes in
// order. (Run under the TSAN CI leg, this is the lock-freedom proof.)
TEST(RecordTableShards, ConcurrentPerShardAppendsAreIsolated) {
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint32_t kRowsPerWorker = 64;
  constexpr std::uint32_t kPushesPerRow = 32;
  RecordTable t;
  t.reset(kWorkers * kRowsPerWorker);
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&t, w] {
      // Worker w owns rows [w*kRowsPerWorker, (w+1)*kRowsPerWorker) and
      // pushes through shard w+1 (shard 0 is the driver's).
      for (std::uint32_t i = 0; i < kPushesPerRow; ++i) {
        for (std::uint32_t r = 0; r < kRowsPerWorker; ++r) {
          const std::uint32_t row = w * kRowsPerWorker + r;
          t.push(row, {row, static_cast<std::int64_t>(i)}, w + 1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::uint32_t row = 0; row < kWorkers * kRowsPerWorker; ++row) {
    ASSERT_EQ(t.size(row), kPushesPerRow) << row;
    std::int64_t expect = 0;
    for (const Record& rec : t[row]) {
      EXPECT_EQ(rec.key, row);
      EXPECT_EQ(rec.value, expect++);
    }
  }
}

// Driver rows (shard 0) written before the threads start must stay
// readable while other shards grow -- the frozen-shard-0 guarantee the
// converge/broadcast passes rely on.
TEST(RecordTableShards, FrozenDriverShardReadableDuringWorkerGrowth) {
  RecordTable t;
  t.reset(16);
  for (std::uint32_t v = 0; v < 8; ++v) {
    t.push(v, {v, static_cast<std::int64_t>(v) * 10}, 0);
  }
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&t, w] {
      for (std::uint32_t i = 0; i < 20000; ++i) {
        t.push(8 + w, {i, 1}, w + 1);  // force repeated pool growth
      }
    });
  }
  // Reader thread: walks the frozen shard-0 rows concurrently.
  std::thread reader([&t] {
    for (int pass = 0; pass < 200; ++pass) {
      for (std::uint32_t v = 0; v < 8; ++v) {
        for (const Record& rec : t[v]) {
          ASSERT_EQ(rec.value, static_cast<std::int64_t>(rec.key) * 10);
        }
      }
    }
  });
  for (std::thread& th : threads) th.join();
  reader.join();
  EXPECT_EQ(t.size(8), 20000u);
  EXPECT_EQ(t.size(9), 20000u);
}

TEST(RecordTableShards, ChainsSpanArenaChunks) {
  // A shard's arena grows in chunks of 1024, 2048, 4096... slots; one long
  // row (and interleaved neighbours) must chain transparently across the
  // chunk boundaries.
  RecordTable t;
  t.reset(3);
  constexpr std::uint32_t kCount = 5000;  // spans chunks 0..2
  for (std::uint32_t i = 0; i < kCount; ++i) {
    t.push(0, {i, static_cast<std::int64_t>(i)}, 1);
    t.push(1, {i, -static_cast<std::int64_t>(i)}, 1);
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
  for (std::uint32_t i = 0; i < kCount; ++i) t.push(2, {i, 7}, 1);
  EXPECT_EQ(t.size(2), kCount);
}

TEST(RecordTableShards, SlotAddressesAreStableAcrossGrowth) {
  // The chunked arenas' safety argument rests on this: a record's address
  // never moves once pushed, no matter how much the shard's arena grows
  // after, so a concurrent cross-shard chain walk never reads moved slots.
  RecordTable t;
  t.reset(2);
  t.push(0, {42, 420}, 1);
  const Record* early = &t.at_slot(t.head_slot(0));
  for (std::uint32_t i = 0; i < 100000; ++i) {  // many chunk allocations
    t.push(1, {i, 1}, 1);
  }
  EXPECT_EQ(early, &t.at_slot(t.head_slot(0)));
  EXPECT_EQ(early->key, 42u);
  EXPECT_EQ(early->value, 420);
}

}  // namespace
}  // namespace cpt::congest
