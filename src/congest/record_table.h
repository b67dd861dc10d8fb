// Flat per-node record tables backed by one slot arena.
//
// A RecordTable replaces the `std::vector<std::vector<Record>>` per-node
// tables the Stage I drivers used to pool: every record of every row lives
// in a shared slot pool, rows are slot chains (head/tail indices plus a
// per-slot `next` link), and reset() re-arms the whole table by bumping
// the allocation watermark back to zero and clearing only the rows
// touched since the previous reset.
//
// Slot storage is a table of doubling chunks with stable addresses instead
// of one std::vector: existing slots never move as the arena grows, so a
// reference into a row stays valid across pushes into the same table (a
// row copied within its own table, Row::operator=, relies on this).
//
// The pooling contract:
//
//   * reset(n) is O(rows touched since the last reset), never O(n) once
//     the table has been sized, and never releases pool capacity -- the
//     steady state of a driver that resets one table across thousands of
//     passes is allocation-free.
//   * Rows appended without interleaving occupy consecutive slots
//     (CSR-like layout), so iteration over a row written in one go
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

  // Re-arms the table for `n` rows; see the pooling contract above. When
  // most rows were touched, one sequential re-assign beats the scattered
  // per-row clears.
  void reset(std::size_t n) {
    if (rows_.size() != n || touched_.size() >= n / 8) {
      rows_.assign(n, RowHead{});
    } else {
      for (const std::uint32_t v : touched_) rows_[v] = RowHead{};
    }
    touched_.clear();
    used_ = 0;  // chunks stay allocated: the steady state is alloc-free
  }

  std::size_t num_rows() const { return rows_.size(); }

  class ConstRow;
  class Row;

  Row operator[](std::uint32_t v);
  ConstRow operator[](std::uint32_t v) const;

  bool empty(std::uint32_t v) const { return rows_[v].size == 0; }
  std::uint32_t size(std::uint32_t v) const { return rows_[v].size; }

  // Appends r to row v.
  void push(std::uint32_t v, Record r) {
    CPT_EXPECTS(v < rows_.size());
    const std::uint32_t slot = used_++;
    // Unconditional (survives CPT_DISABLE_CONTRACTS): running past the
    // last chunk would index out of the chunk table.
    if (slot >= kMaxSlots) {
      contract_fail("Invariant", "record arena full", __FILE__, __LINE__);
    }
    if (slot == cap_) grow();
    Slot& st = slot_at(slot);
    st.rec = r;
    st.next = kNilSlot;
    RowHead& h = rows_[v];
    if (h.head == kNilSlot) {
      h.head = h.tail = slot;
      touched_.push_back(v);
    } else {
      slot_at(h.tail).next = slot;
      h.tail = slot;
    }
    ++h.size;
  }

  void clear_row(std::uint32_t v) { rows_[v] = RowHead{}; }

  // ---- Touched-row iteration ---------------------------------------------
  // Rows that may hold records, in first-touch order (deduplicated only by
  // reset; may include since-cleared rows, and a row cleared and refilled
  // appears once per refill). Lets drivers visit non-empty rows without an
  // O(n) sweep; consumers must tolerate repeats (they do: row copies and
  // idempotent mask updates).
  const std::vector<std::uint32_t>& touched_rows() const { return touched_; }

  // ---- Slot-level access for streaming consumers --------------------------
  std::uint32_t head_slot(std::uint32_t v) const { return rows_[v].head; }
  std::uint32_t tail_slot(std::uint32_t v) const { return rows_[v].tail; }
  std::uint32_t next_slot(std::uint32_t slot) const {
    return slot_at(slot).next;
  }
  const Record& at_slot(std::uint32_t slot) const { return slot_at(slot).rec; }

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

    reference operator*() const { return t_->slot_at(slot_).rec; }
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
  class Row {
   public:
    Row(RecordTable* t, std::uint32_t v) : t_(t), v_(v) {}

    operator ConstRow() const { return {t_, v_}; }

    Row& operator=(std::initializer_list<Record> recs) {
      t_->clear_row(v_);
      for (const Record& r : recs) t_->push(v_, r);
      return *this;
    }
    Row& operator=(const ConstRow& src) {
      if (src.table() == t_ && src.row_id() == v_) return *this;
      t_->clear_row(v_);
      // Slot-indexed walk over stable slots: pushes into t_ may grow the
      // arena while the walk reads it.
      const RecordTable* st = src.table();
      for (std::uint32_t slot = st->head_slot(src.row_id()); slot != kNilSlot;
           slot = st->next_slot(slot)) {
        t_->push(v_, st->at_slot(slot));
      }
      return *this;
    }
    Row& operator=(const Row& src) { return *this = static_cast<ConstRow>(src); }

    void push_back(Record r) { t_->push(v_, r); }
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
  // kNumChunks chunks hold kMaxSlots = 2^32 - 2^kChunk0Bits slots (every
  // id stays below kNilSlot) and a slot id decodes with one bit_width.
  // Existing slots NEVER move -- growth fills in the next null chunk
  // pointer.
  static constexpr unsigned kChunk0Bits = 10;  // first chunk: 1024 slots
  static constexpr unsigned kNumChunks = 32 - kChunk0Bits;
  static constexpr std::uint32_t kMaxSlots = kNilSlot - (1u << kChunk0Bits) + 1;

  // slot -> (chunk, offset): bias by the first chunk's size so the chunk
  // index is bit_width(biased) - (kChunk0Bits + 1) and the offset is the
  // remainder below the chunk's base.
  Slot& slot_at(std::uint32_t slot) {
    const std::uint32_t biased = slot + (1u << kChunk0Bits);
    const unsigned chunk =
        static_cast<unsigned>(std::bit_width(biased)) - (kChunk0Bits + 1);
    return chunks_[chunk][biased - (1u << (chunk + kChunk0Bits))];
  }
  const Slot& slot_at(std::uint32_t slot) const {
    return const_cast<RecordTable*>(this)->slot_at(slot);
  }

  void grow() {
    const std::uint32_t biased = cap_ + (1u << kChunk0Bits);
    const unsigned chunk =
        static_cast<unsigned>(std::bit_width(biased)) - (kChunk0Bits + 1);
    CPT_ASSERT(chunks_[chunk] == nullptr);
    const std::uint32_t size = 1u << (kChunk0Bits + chunk);
    chunks_[chunk] = std::make_unique<Slot[]>(size);
    cap_ += size;
  }

  std::vector<RowHead> rows_;
  std::array<std::unique_ptr<Slot[]>, kNumChunks> chunks_;
  std::vector<std::uint32_t> touched_;  // rows first touched since reset
  std::uint32_t used_ = 0;
  std::uint32_t cap_ = 0;  // slots allocated across chunks
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
