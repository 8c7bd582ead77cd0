#include "relational/relation.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

Relation Relation::OfInts(
    Schema schema,
    std::initializer_list<std::initializer_list<int64_t>> rows) {
  Relation r(std::move(schema));
  for (const auto& row : rows) {
    r.Add(IntTuple(row), 1);
  }
  return r;
}

template <typename T>
void Relation::AddImpl(T&& t, int64_t count) {
  if (count == 0) return;
  SWEEP_CHECK_MSG(schema_.arity() == 0 || schema_.Matches(t),
                  "tuple does not match relation schema");
  // try_emplace moves from `t` only when it inserts.
  auto [it, inserted] = counts_.try_emplace(std::forward<T>(t), count);
  if (!inserted) {
    it->second += count;
    if (it->second == 0) counts_.erase(it);
  }
}

void Relation::Add(const Tuple& t, int64_t count) { AddImpl(t, count); }

void Relation::Add(Tuple&& t, int64_t count) { AddImpl(std::move(t), count); }

int64_t Relation::CountOf(const Tuple& t) const {
  auto it = counts_.find(t);
  return it == counts_.end() ? 0 : it->second;
}

int64_t Relation::TotalCount() const {
  int64_t total = 0;
  for (const auto& [t, c] : counts_) total += c;
  return total;
}

int64_t Relation::AbsoluteCount() const {
  int64_t total = 0;
  for (const auto& [t, c] : counts_) total += c < 0 ? -c : c;
  return total;
}

bool Relation::HasNegative() const {
  for (const auto& [t, c] : counts_) {
    if (c < 0) return true;
  }
  return false;
}

void Relation::Merge(const Relation& other) {
  for (const auto& [t, c] : other.counts_) Add(t, c);
}

void Relation::Merge(Relation&& other) {
  while (!other.counts_.empty()) {
    auto node = other.counts_.extract(other.counts_.begin());
    SWEEP_CHECK_MSG(schema_.arity() == 0 || schema_.Matches(node.key()),
                    "tuple does not match relation schema");
    auto it = counts_.find(node.key());
    if (it == counts_.end()) {
      counts_.insert(std::move(node));
      continue;
    }
    it->second += node.mapped();
    if (it->second == 0) counts_.erase(it);
  }
}

void Relation::MergeNegated(const Relation& other) {
  for (const auto& [t, c] : other.counts_) Add(t, -c);
}

Relation Relation::Negated() const {
  Relation out(schema_);
  for (const auto& [t, c] : counts_) out.counts_.emplace(t, -c);
  return out;
}

size_t Relation::EraseMatching(const std::vector<int>& positions,
                               const Tuple& key) {
  size_t erased = 0;
  for (auto it = counts_.begin(); it != counts_.end();) {
    if (it->first.Project(positions) == key) {
      it = counts_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

void Relation::ClampToSet() {
  for (auto& [t, c] : counts_) {
    if (c > 1) c = 1;
  }
}

std::vector<const Relation::CountMap::value_type*> Relation::SortedEntries()
    const& {
  using Entry = const CountMap::value_type*;
  std::vector<Entry> out;
  out.reserve(counts_.size());
  const bool int_keys = schema_.arity() >= 2 &&
                        schema_.attr(0).type == ValueType::kInt &&
                        schema_.attr(1).type == ValueType::kInt;
  if (!int_keys) {
    for (const auto& kv : counts_) out.push_back(&kv);
    std::sort(out.begin(), out.end(),
              [](Entry a, Entry b) { return a->first < b->first; });
    return out;
  }
  // Every tuple matches the schema, so each one leads with two ints. Each
  // is carried as an unsigned key with the sign bit flipped, which orders
  // exactly as the signed value; the tuple compare breaks ties on both.
  struct Keyed {
    uint64_t k0;
    uint64_t k1;
    Entry entry;
  };
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  std::vector<Keyed> keyed;
  keyed.reserve(counts_.size());
  for (const auto& kv : counts_) {
    const std::vector<Value>& cells = kv.first.values();
    keyed.push_back({static_cast<uint64_t>(cells[0].AsInt()) ^ kSignBit,
                     static_cast<uint64_t>(cells[1].AsInt()) ^ kSignBit,
                     &kv});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.k0 != b.k0) return a.k0 < b.k0;
    if (a.k1 != b.k1) return a.k1 < b.k1;
    return a.entry->first < b.entry->first;
  });
  for (const Keyed& k : keyed) out.push_back(k.entry);
  return out;
}

std::string Relation::ToDisplayString() const {
  std::vector<std::string> parts;
  for (const auto* entry : SortedEntries()) {
    parts.push_back(entry->first.ToDisplayString() + "[" +
                    std::to_string(entry->second) + "]");
  }
  return "{" + Join(parts, ", ") + "}";
}

std::ostream& operator<<(std::ostream& os, const Relation& r) {
  return os << r.ToDisplayString();
}

Fp128 RelationDigest(const Relation& rel) {
  Fp128 sum;
  // A commutative reduction: lane sums mod 2^64 are the same in every
  // visit order.
  for (const auto& [t, c] : rel.entries()) {
    const uint64_t hash = static_cast<uint64_t>(t.Hash());
    const uint64_t count = static_cast<uint64_t>(c);
    sum.lo += count * SplitMixLane(hash, 0xa0761d6478bd642full);
    sum.hi += count * SplitMixLane(hash, 0xe7037ed1a0b428dbull);
  }
  return sum;
}

void AbsorbRelation(StateHasher& h, const char* tag, const Relation& rel) {
  h.U64(tag, rel.DistinctSize());
  const Fp128 sum = RelationDigest(rel);
  h.Mix(sum.lo);
  h.Mix(sum.hi);
  if (!h.keeps_text()) return;
  for (const auto* entry : rel.SortedEntries()) {
    h.Note("t.hash", static_cast<uint64_t>(entry->first.Hash()));
    h.Note("t.count", static_cast<uint64_t>(entry->second));
  }
}

}  // namespace sweepmv
