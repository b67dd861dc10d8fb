// Flat per-node record tables backed by sharded slot arenas.
//
// A RecordTable replaces the `std::vector<std::vector<Record>>` per-node
// tables the Stage I drivers used to pool: every record of every row lives
// in a shared slot pool, rows are slot chains (head/tail indices plus a
// per-slot `next` link), and reset() re-arms the whole table by bumping
// the allocation watermarks back to zero and clearing only the rows
// touched since the previous reset.
//
// Sharding (parallel rounds). A slot id encodes (shard, index): the high
// kShardBits name one of kMaxShards independent arenas, each with its own
// slot chunks, touched list and watermark. push(v, r, shard) bumps only
// that shard's watermark, so the simulator's workers (shard s = its
// Exec::shard()) append rows concurrently without locks or atomics. The
// safety argument relies on the per-node-write-clean Program contract
// (see DESIGN.md): rows of a node owned by worker s receive pushes only
// from context s (rounds) and context 0 (driver code between passes), so
//   * a shard's arena grows only from its single owning context, and
//   * cross-shard accesses touch only *frozen* slots: slots allocated in
//     earlier rounds (published by the round barrier), never the open end
//     of a foreign arena.
// Chain links may point across shards: a row started by the driver and
// extended by its worker. Slot storage is a table of doubling chunks with
// stable addresses instead of one std::vector per shard: on_wake may read
// any node's rows, and a vector's realloc would move frozen slots out from
// under such a concurrent cross-shard chain walk, while chunked growth
// only ever writes a previously-null chunk pointer no reader of frozen
// slots dereferences.
//
// The pooling contract (unchanged from the single-arena version):
//
//   * reset(n) is O(rows touched since the last reset), never O(n) once
//     the table has been sized, and never releases pool capacity -- the
//     steady state of a driver that resets one table across thousands of
//     passes is allocation-free.
//   * Rows appended without interleaving occupy consecutive slots of one
//     shard (CSR-like layout), so iteration over a row written in one go
//     is a sequential scan. Interleaved appends (records arriving round
//     by round) still cost O(1) per push; their rows just hop slots.
//   * clear_row / row reassignment orphans the old slots until the next
//     reset (bounded by total pushes) -- by design, since reclamation
//     would cost the watermark reset its O(1).
//   * Every row carries a cursor slot (kNilSlot when unset) for streaming
//     consumers (ConvergeRecords/BroadcastRecords pumps): the cursor
//     resets with the row and costs nothing when unused.
//
// Rows expose a proxy API (`table[v] = {...}`, push_back, range-for,
// indexed access) so call sites read like the vector-of-vectors they
// replace; `row[i]` walks the chain and is O(i) -- fine for the short
// rows Stage I produces, wrong for bulk random access (stream with the
// cursor instead).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "util/contracts.h"

namespace cpt::congest {

// Merged record sets that exceed their cap collapse to this single key,
// mirroring the paper's "more than 3*alpha distinct roots => just 'Active'".
inline constexpr std::uint64_t kOverflowKey = static_cast<std::uint64_t>(-1);

struct Record {
  std::uint64_t key = 0;
  std::int64_t value = 0;
};

class RecordTable {
 public:
  static constexpr std::uint32_t kNilSlot = static_cast<std::uint32_t>(-1);
  static constexpr unsigned kShardBits = 6;
  static constexpr unsigned kIdxBits = 32 - kShardBits;
  static constexpr std::uint32_t kIdxMask = (1u << kIdxBits) - 1;
  // Shard kMaxShards - 1 is never allocated from: kNilSlot decodes into it.
  static constexpr std::uint32_t kMaxShards = 1u << kShardBits;

  // Re-arms the table for `n` rows; see the pooling contract above. When
  // most rows were touched, one sequential re-assign beats the scattered
  // per-row clears.
  void reset(std::size_t n) {
    std::size_t touched_total = 0;
    for (const Shard& sh : shards_) touched_total += sh.touched.size();
    if (rows_.size() != n || touched_total >= n / 8) {
      rows_.assign(n, RowHead{});
    } else {
      for (const Shard& sh : shards_) {
        for (const std::uint32_t v : sh.touched) rows_[v] = RowHead{};
      }
    }
    for (Shard& sh : shards_) {
      sh.touched.clear();
      sh.used = 0;  // chunks stay allocated: the steady state is alloc-free
    }
  }

  std::size_t num_rows() const { return rows_.size(); }

  class ConstRow;
  class Row;

  Row operator[](std::uint32_t v);
  ConstRow operator[](std::uint32_t v) const;

  bool empty(std::uint32_t v) const { return rows_[v].size == 0; }
  std::uint32_t size(std::uint32_t v) const { return rows_[v].size; }

  // The arena driver code (and the driver-side Row proxy API) allocates
  // from: context 0 of the simulator, frozen during parallel rounds.
  static constexpr std::uint32_t kDriverShard = 0;

  // Appends r to row v, allocating from `shard`'s arena. The shard is
  // deliberately NOT defaulted: Program::on_wake code must pass
  // ex.shard(), and a silent shard-0 default would turn a forgotten
  // argument into a lock-free data race under parallel rounds instead of
  // a compile error. Driver code passes kDriverShard.
  void push(std::uint32_t v, Record r, std::uint32_t shard) {
    CPT_EXPECTS(v < rows_.size());
    CPT_EXPECTS(shard < kMaxShards - 1);
    Shard& sh = shards_[shard];
    const std::uint32_t idx = sh.used++;
    // Unconditional (survives CPT_DISABLE_CONTRACTS): overflowing the
    // 2^26-slot shard index would silently corrupt slot ids.
    if (idx >= kIdxMask) {
      contract_fail("Invariant", "record shard full", __FILE__, __LINE__);
    }
    if (idx == sh.cap) grow(sh);
    Slot& st = slot_at(sh, idx);
    st.rec = r;
    st.next = kNilSlot;
    const std::uint32_t slot = (shard << kIdxBits) | idx;
    RowHead& h = rows_[v];
    if (h.head == kNilSlot) {
      h.head = h.tail = slot;
      sh.touched.push_back(v);
    } else {
      // Possibly a cross-shard write into a frozen slot of another arena
      // (stable chunk storage; see the sharding notes above).
      slot_at(shards_[h.tail >> kIdxBits], h.tail & kIdxMask).next = slot;
      h.tail = slot;
    }
    ++h.size;
  }

  void clear_row(std::uint32_t v) { rows_[v] = RowHead{}; }

  // ---- Touched-row iteration ---------------------------------------------
  // Rows that may hold records (deduplicated only by reset; may include
  // since-cleared rows and, when a row was cleared and refilled from a
  // different context, duplicates across shards). Lets drivers visit
  // non-empty rows without an O(n) sweep. Iteration order is shard 0's
  // touch order, then shard 1's, ... -- deterministic for a fixed worker
  // count; consumers must be order-independent (they are: row copies and
  // idempotent mask updates).
  class TouchedIterator {
   public:
    TouchedIterator(const RecordTable* t, std::uint32_t shard, std::size_t pos)
        : t_(t), shard_(shard), pos_(pos) {
      settle();
    }

    std::uint32_t operator*() const { return t_->shards_[shard_].touched[pos_]; }
    TouchedIterator& operator++() {
      ++pos_;
      settle();
      return *this;
    }
    bool operator==(const TouchedIterator& o) const {
      return shard_ == o.shard_ && pos_ == o.pos_;
    }
    bool operator!=(const TouchedIterator& o) const { return !(*this == o); }

   private:
    void settle() {
      while (shard_ < kMaxShards && pos_ >= t_->shards_[shard_].touched.size()) {
        ++shard_;
        pos_ = 0;
      }
      if (shard_ >= kMaxShards) {
        shard_ = kMaxShards;
        pos_ = 0;
      }
    }
    const RecordTable* t_;
    std::uint32_t shard_;
    std::size_t pos_;
  };

  class TouchedView {
   public:
    explicit TouchedView(const RecordTable* t) : t_(t) {}
    TouchedIterator begin() const { return {t_, 0, 0}; }
    TouchedIterator end() const { return {t_, kMaxShards, 0}; }
    bool empty() const { return begin() == end(); }

   private:
    const RecordTable* t_;
  };

  TouchedView touched_rows() const { return TouchedView{this}; }

  // ---- Slot-level access for streaming consumers --------------------------
  std::uint32_t head_slot(std::uint32_t v) const { return rows_[v].head; }
  std::uint32_t tail_slot(std::uint32_t v) const { return rows_[v].tail; }
  std::uint32_t next_slot(std::uint32_t slot) const {
    return slot_at(shards_[slot >> kIdxBits], slot & kIdxMask).next;
  }
  const Record& at_slot(std::uint32_t slot) const {
    return slot_at(shards_[slot >> kIdxBits], slot & kIdxMask).rec;
  }

  std::uint32_t cursor(std::uint32_t v) const { return rows_[v].cursor; }
  void set_cursor(std::uint32_t v, std::uint32_t slot) {
    rows_[v].cursor = slot;
  }

  // ---- Row iteration ------------------------------------------------------
  template <bool kConst>
  class RowIterator {
    using TablePtr = std::conditional_t<kConst, const RecordTable*, RecordTable*>;

   public:
    using value_type = Record;
    using reference = std::conditional_t<kConst, const Record&, Record&>;
    using pointer = std::conditional_t<kConst, const Record*, Record*>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    RowIterator() = default;
    RowIterator(TablePtr t, std::uint32_t slot) : t_(t), slot_(slot) {}

    reference operator*() const {
      return slot_at(t_->shards_[slot_ >> kIdxBits], slot_ & kIdxMask).rec;
    }
    pointer operator->() const { return &**this; }
    RowIterator& operator++() {
      slot_ = t_->next_slot(slot_);
      return *this;
    }
    RowIterator operator++(int) {
      RowIterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const RowIterator& o) const { return slot_ == o.slot_; }
    bool operator!=(const RowIterator& o) const { return slot_ != o.slot_; }

   private:
    TablePtr t_ = nullptr;
    std::uint32_t slot_ = kNilSlot;
  };

  using const_iterator = RowIterator<true>;
  using iterator = RowIterator<false>;

  // Read-only view of one row. Cheap to copy; indexing walks the chain.
  class ConstRow {
   public:
    ConstRow(const RecordTable* t, std::uint32_t v) : t_(t), v_(v) {}

    bool empty() const { return t_->empty(v_); }
    std::uint32_t size() const { return t_->size(v_); }
    const_iterator begin() const { return {t_, t_->rows_[v_].head}; }
    const_iterator end() const { return {t_, kNilSlot}; }
    const Record& operator[](std::uint32_t i) const {  // O(i) chain walk
      std::uint32_t slot = t_->rows_[v_].head;
      for (; i > 0; --i) slot = t_->next_slot(slot);
      return t_->at_slot(slot);
    }

    const RecordTable* table() const { return t_; }
    std::uint32_t row_id() const { return v_; }

   private:
    const RecordTable* t_;
    std::uint32_t v_;
  };

  // Mutable row proxy. Assignment copies *contents* (from a list or from
  // another row, even one of the same table); it never rebinds the proxy.
  // Row writes allocate from shard 0: the proxy API is driver-side (worker
  // code appends through push(v, r, shard)).
  class Row {
   public:
    Row(RecordTable* t, std::uint32_t v) : t_(t), v_(v) {}

    operator ConstRow() const { return {t_, v_}; }

    Row& operator=(std::initializer_list<Record> recs) {
      t_->clear_row(v_);
      for (const Record& r : recs) t_->push(v_, r, kDriverShard);
      return *this;
    }
    Row& operator=(const ConstRow& src) {
      if (src.table() == t_ && src.row_id() == v_) return *this;
      t_->clear_row(v_);
      // Slot-indexed walk: pushes into t_ may grow the shared pool, which
      // would invalidate iterators into the same table but not slot ids.
      const RecordTable* st = src.table();
      for (std::uint32_t slot = st->head_slot(src.row_id()); slot != kNilSlot;
           slot = st->next_slot(slot)) {
        t_->push(v_, st->at_slot(slot), kDriverShard);
      }
      return *this;
    }
    Row& operator=(const Row& src) { return *this = static_cast<ConstRow>(src); }

    void push_back(Record r) { t_->push(v_, r, kDriverShard); }
    void clear() { t_->clear_row(v_); }
    bool empty() const { return t_->empty(v_); }
    std::uint32_t size() const { return t_->size(v_); }

    iterator begin() { return {t_, t_->rows_[v_].head}; }
    iterator end() { return {t_, kNilSlot}; }
    const_iterator begin() const { return {t_, t_->rows_[v_].head}; }
    const_iterator end() const { return {t_, kNilSlot}; }

    const Record& operator[](std::uint32_t i) const {
      return static_cast<ConstRow>(*this)[i];
    }

   private:
    RecordTable* t_;
    std::uint32_t v_;
  };

 private:
  struct RowHead {
    std::uint32_t head = kNilSlot;
    std::uint32_t tail = kNilSlot;
    std::uint32_t size = 0;
    std::uint32_t cursor = kNilSlot;
  };

  // Slot payload + chain link, co-located so a chain hop touches one line.
  struct Slot {
    Record rec;
    std::uint32_t next;
  };

  // Chunked arena geometry: chunk c holds 2^(kChunk0Bits + c) slots, so
  // the chunk table covering all 2^kIdxBits indices is 17 pointers and a
  // slot index decodes with one bit_width. Existing slots NEVER move --
  // growth fills in the next null chunk pointer -- which is what makes
  // cross-shard frozen-slot access safe while the owner appends.
  static constexpr unsigned kChunk0Bits = 10;  // first chunk: 1024 slots
  static constexpr unsigned kNumChunks = kIdxBits - kChunk0Bits + 1;

  // One arena: stable-address slot chunks (logical size = used), plus the
  // rows first touched from this shard since the last reset.
  struct Shard {
    std::array<std::unique_ptr<Slot[]>, kNumChunks> chunks;
    std::vector<std::uint32_t> touched;
    std::uint32_t used = 0;
    std::uint32_t cap = 0;  // slots allocated across chunks
  };

  // idx -> (chunk, offset): bias by the first chunk's size so the chunk
  // index is bit_width(biased) - (kChunk0Bits + 1) and the offset is the
  // remainder below the chunk's base.
  static Slot& slot_at(Shard& sh, std::uint32_t idx) {
    const std::uint32_t biased = idx + (1u << kChunk0Bits);
    const unsigned chunk =
        static_cast<unsigned>(std::bit_width(biased)) - (kChunk0Bits + 1);
    return sh.chunks[chunk][biased - (1u << (chunk + kChunk0Bits))];
  }
  static const Slot& slot_at(const Shard& sh, std::uint32_t idx) {
    const std::uint32_t biased = idx + (1u << kChunk0Bits);
    const unsigned chunk =
        static_cast<unsigned>(std::bit_width(biased)) - (kChunk0Bits + 1);
    return sh.chunks[chunk][biased - (1u << (chunk + kChunk0Bits))];
  }

  static void grow(Shard& sh) {
    const std::uint32_t biased = sh.cap + (1u << kChunk0Bits);
    const unsigned chunk =
        static_cast<unsigned>(std::bit_width(biased)) - (kChunk0Bits + 1);
    CPT_ASSERT(sh.chunks[chunk] == nullptr);
    const std::uint32_t size = 1u << (kChunk0Bits + chunk);
    sh.chunks[chunk] = std::make_unique<Slot[]>(size);
    sh.cap += size;
  }

  std::vector<RowHead> rows_;
  std::array<Shard, kMaxShards> shards_;
};

inline RecordTable::Row RecordTable::operator[](std::uint32_t v) {
  CPT_EXPECTS(v < rows_.size());
  return {this, v};
}

inline RecordTable::ConstRow RecordTable::operator[](std::uint32_t v) const {
  CPT_EXPECTS(v < rows_.size());
  return {this, v};
}

}  // namespace cpt::congest
