// Canonical 128-bit state fingerprints for the schedule explorer.
//
// StateHasher absorbs a stream of integers/bytes into two independently
// mixed 64-bit lanes (splitmix64-style finalizers with distinct salts),
// one mix per lane per datum. The stream carries no tags, so it must
// decode unambiguously on its own: every container writes its length
// before its elements, an optional or a unique_ptr writes a presence
// flag before its value, and a relation writes its distinct size before
// its order-free additive digest (RelationDigest, relational/relation.h).
// The controlled system feeds it from the state lists (common/state.h,
// StateHashVisitor) through *sorted or keyed* iteration, or through a
// commutative reduction, never from unordered-container visit order —
// so the digest of a logical state is identical no matter which
// interleaving reached it. The explorer keys its visited table on the
// resulting Fp128 (see docs/verification.md, "State-space
// deduplication": collision policy and the verify_on_hit debug mode).
//
// The optional text mode additionally records "tag=value" lines for every
// absorbed datum; tags feed only this dump. The undo-log round-trip
// oracle byte-compares these dumps, so a divergence names the first
// mismatching member instead of just flipping a hash bit.

#ifndef SWEEPMV_COMMON_FINGERPRINT_H_
#define SWEEPMV_COMMON_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

namespace sweepmv {

struct Fp128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Fp128& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const Fp128& other) const { return !(*this == other); }
  bool operator<(const Fp128& other) const {
    return std::tie(hi, lo) < std::tie(other.hi, other.lo);
  }
};

// The splitmix64 finalizer of x + salt.
inline uint64_t SplitMixLane(uint64_t x, uint64_t salt) {
  x += salt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class StateHasher {
 public:
  // `keep_text` additionally accumulates a human-readable dump of every
  // absorbed datum (the round-trip oracle's byte-compare format).
  explicit StateHasher(bool keep_text = false) : keep_text_(keep_text) {}

  void U64(const char* tag, uint64_t value) {
    Mix(value);
    if (keep_text_) Note(tag, value);
  }
  void I64(const char* tag, int64_t value) {
    U64(tag, static_cast<uint64_t>(value));
  }
  void Bool(const char* tag, bool value) {
    U64(tag, value ? 1 : 0);
  }
  void Bytes(const char* tag, const void* data, size_t size);
  void Str(const char* tag, const std::string& value) {
    Bytes(tag, value.data(), value.size());
  }

  // Absorbs `value` into the digest alone; the text dump does not show it.
  void Mix(uint64_t value) {
    lo_ = SplitMixLane(lo_ ^ value, 0x9e3779b97f4a7c15ull);
    hi_ = SplitMixLane(hi_ + value, 0xd1b54a32d192ed03ull);
  }
  // Appends a "tag=value" line to the text dump alone; the digest does not
  // see it. For a datum the digest absorbs in another form (a relation's
  // entries, which it sums instead).
  void Note(const char* tag, uint64_t value);
  bool keeps_text() const { return keep_text_; }

  Fp128 Digest() const { return Fp128{lo_, hi_}; }
  // Empty unless constructed with keep_text.
  const std::string& Text() const { return text_; }

 private:
  uint64_t lo_ = 0x9e3779b97f4a7c15ull;
  uint64_t hi_ = 0xbf58476d1ce4e5b9ull;
  bool keep_text_ = false;
  std::string text_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_COMMON_FINGERPRINT_H_
