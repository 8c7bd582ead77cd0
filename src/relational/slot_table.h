// SlotTable: the open-addressed hash table behind Relation, HashIndex and
// Join's build side.
//
// It maps 64-bit hashes to dense ids and owns nothing else: the owner
// keeps the keys in arrays indexed by id and passes an equality test to
// Find. Each slot holds an id and 32 bits of the mixed hash, so probing
// and growth never touch the owner's arrays.
//
//   * The slot index comes from a splitmix finalizer of the hash, so
//     hashes that differ only in their high bits (std::hash<int64_t> is
//     the identity) still spread over the table.
//   * Linear probing over a power-of-two table, at most half full.
//   * Erase shifts the rest of the probe run back (no tombstones), so a
//     lookup's cost depends only on the live entries.
//   * An empty table allocates nothing.

#ifndef SWEEPMV_RELATIONAL_SLOT_TABLE_H_
#define SWEEPMV_RELATIONAL_SLOT_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fingerprint.h"

namespace sweepmv {

class SlotTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  SlotTable() = default;
  SlotTable(const SlotTable&) = default;
  SlotTable& operator=(const SlotTable&) = default;
  // A moved-from table is empty.
  SlotTable(SlotTable&& other) noexcept { *this = std::move(other); }
  SlotTable& operator=(SlotTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    mask_ = std::exchange(other.mask_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  // The id stored under `hash` for which same(id) holds, or kNone.
  template <class Same>
  uint32_t Find(uint64_t hash, Same&& same) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = Tag(hash);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && same(s.id)) return s.id;
    }
  }

  // The id stored under `hash` for which same(id) holds; when there is
  // none, stores `id` under `hash` and returns it. One probe does both.
  template <class Same>
  uint32_t FindOrInsert(uint64_t hash, uint32_t id, Same&& same) {
    SWEEP_CHECK(id != kNone);
    Grow();
    const uint32_t tag = Tag(hash);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s = Slot{id, tag};
        ++size_;
        return id;
      }
      if (s.tag == tag && same(s.id)) return s.id;
    }
  }

  // Removes `id`, stored under `hash`.
  void Erase(uint64_t hash, uint32_t id) {
    size_t hole = SlotOf(hash, id);
    for (size_t i = (hole + 1) & mask_; slots_[i].id != kNone;
         i = (i + 1) & mask_) {
      // An entry may fill the hole if the hole lies on its probe path,
      // i.e. is no further from the entry than its home slot is.
      const size_t home = slots_[i].tag & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].id = kNone;
    --size_;
  }

  // Renumbers the entry stored under `hash` from `from` to `to` (the
  // owner moved its keys).
  void Rename(uint64_t hash, uint32_t from, uint32_t to) {
    slots_[SlotOf(hash, from)].id = to;
  }

  // Drops every entry and frees the slots.
  void Clear() {
    slots_ = {};
    mask_ = 0;
    size_ = 0;
  }

  // Makes room for `n` entries without further growth.
  void Reserve(size_t n) {
    size_t capacity = slots_.empty() ? 8 : slots_.size();
    while (n * 2 > capacity) capacity *= 2;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // The slot a lookup of `hash` starts at (0 while the table is empty).
  size_t Home(uint64_t hash) const { return Tag(hash) & mask_; }

  // The longest probe run (slots a lookup of a stored id visits).
  size_t LongestProbe() const {
    size_t longest = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id == kNone) continue;
      const size_t run = ((i - (slots_[i].tag & mask_)) & mask_) + 1;
      if (run > longest) longest = run;
    }
    return longest;
  }

 private:
  struct Slot {
    uint32_t id = kNone;
    uint32_t tag = 0;  // low 32 bits of the mixed hash; home = tag & mask_
  };

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(SplitMixLane(hash, 0x2545f4914f6cdd1dull));
  }

  size_t SlotOf(uint64_t hash, uint32_t id) const {
    for (size_t i = Tag(hash) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return i;
      SWEEP_CHECK_MSG(slots_[i].id != kNone, "id is not in the slot table");
    }
  }

  // Makes room for one more entry.
  void Grow() {
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? 8 : slots_.size() * 2);
    }
  }

  void Rehash(size_t capacity) {
    // Tags hold 32 bits of home position.
    SWEEP_CHECK(capacity <= (size_t{1} << 32));
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t i = s.tag & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_SLOT_TABLE_H_
