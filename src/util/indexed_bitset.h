// An ordered set of integers in [0, capacity) on a three-level bitmap
// hierarchy: level 0 holds one bit per element, each level-1 bit says "this
// level-0 word is nonzero", and likewise for level 2 over level 1.
//
// insert / erase / contains are O(1) (three word operations); pop_front
// extracts the minimum in O(1) word operations amortized, using a cursor
// over the level-2 summary. Draining k elements therefore costs O(k) plus
// the level-2 scan (capacity / 2^18 words), with no sorting and no
// allocation. The CONGEST simulator uses one of these per in-flight buffer
// to deliver messages in (destination, port) order sort-free; it is also a
// reusable "epoch-free" scratch set: clear() costs O(size), not
// O(capacity), so a quiesced structure is reusable for free.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/contracts.h"

namespace cpt {

class IndexedBitset {
 public:
  IndexedBitset() = default;
  explicit IndexedBitset(std::size_t capacity) { reset(capacity); }

  // Resizes to hold [0, capacity) and removes all elements. O(capacity).
  void reset(std::size_t capacity) {
    capacity_ = capacity;
    l0_.assign(words_for(capacity), 0);
    l1_.assign(words_for(l0_.size()), 0);
    l2_.assign(words_for(l1_.size()), 0);
    count_ = 0;
    scan0_ = 0;
    scan2_ = 0;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool contains(std::size_t i) const {
    CPT_EXPECTS(i < capacity_);
    return (l0_[i >> 6] >> (i & 63)) & 1;
  }

  // Returns false (leaving the set unchanged) if `i` is already a member.
  bool insert(std::size_t i) {
    CPT_EXPECTS(i < capacity_);
    const std::size_t w0 = i >> 6;
    const std::uint64_t old = l0_[w0];
    const std::uint64_t bit = 1ULL << (i & 63);
    if (old & bit) return false;
    l0_[w0] = old | bit;
    if (old == 0) {  // summaries already cover a nonzero word
      l1_[w0 >> 6] |= 1ULL << (w0 & 63);
      l2_[w0 >> 12] |= 1ULL << ((w0 >> 6) & 63);
    }
    if (w0 < scan0_) scan0_ = w0;
    if ((w0 >> 12) < scan2_) scan2_ = w0 >> 12;
    ++count_;
    return true;
  }

  // Precondition: `i` is a member.
  void erase(std::size_t i) {
    CPT_EXPECTS(contains(i));
    const std::size_t w0 = i >> 6;
    if ((l0_[w0] &= ~(1ULL << (i & 63))) == 0) {
      if ((l1_[w0 >> 6] &= ~(1ULL << (w0 & 63))) == 0) {
        l2_[w0 >> 12] &= ~(1ULL << ((w0 >> 6) & 63));
      }
    }
    --count_;
  }

  // Smallest member. Precondition: !empty().
  std::size_t front() const {
    CPT_EXPECTS(count_ > 0);
    // Fast path: scan0_ still points at the minimum's level-0 word (true
    // whenever the set is drained in order, e.g. message delivery popping
    // consecutive arcs). One load + countr_zero.
    if (l0_[scan0_] != 0) return (scan0_ << 6) + std::countr_zero(l0_[scan0_]);
    while (l2_[scan2_] == 0) ++scan2_;
    const std::size_t w1 = (scan2_ << 6) + std::countr_zero(l2_[scan2_]);
    const std::size_t w0 = (w1 << 6) + std::countr_zero(l1_[w1]);
    scan0_ = w0;
    return (w0 << 6) + std::countr_zero(l0_[w0]);
  }

  // Removes and returns the smallest member. Precondition: !empty().
  std::size_t pop_front() {
    const std::size_t i = front();
    erase(i);
    return i;
  }

  // Removes all elements in O(nonzero words) + the level-2 scan (NOT
  // O(capacity), and no per-bit pop loop): the summaries name exactly the
  // level-0 words to zero.
  void clear() {
    if (count_ != 0) {
      for (std::size_t w2 = 0; w2 < l2_.size(); ++w2) {
        std::uint64_t m2 = l2_[w2];
        if (m2 == 0) continue;
        l2_[w2] = 0;
        while (m2 != 0) {
          const std::size_t w1 =
              (w2 << 6) + static_cast<std::size_t>(std::countr_zero(m2));
          m2 &= m2 - 1;
          std::uint64_t m1 = l1_[w1];
          l1_[w1] = 0;
          while (m1 != 0) {
            const std::size_t w0 =
                (w1 << 6) + static_cast<std::size_t>(std::countr_zero(m1));
            m1 &= m1 - 1;
            l0_[w0] = 0;
          }
        }
      }
      count_ = 0;
    }
    scan0_ = 0;
    scan2_ = 0;
  }

 private:
  static std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  // Cursors bounding the minimum from below: scan0_ <= min's level-0 word
  // and scan2_ <= min's level-2 word. Only lowered by insert and only
  // raised when proven empty below, so min-extraction never rescans.
  mutable std::size_t scan0_ = 0;
  mutable std::size_t scan2_ = 0;
  std::vector<std::uint64_t> l0_, l1_, l2_;
};

}  // namespace cpt
