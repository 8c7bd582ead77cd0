// Canonical 128-bit state fingerprints for the schedule explorer.
//
// StateHasher absorbs a tagged stream of integers/bytes into two
// independently mixed 64-bit lanes (splitmix64-style finalizers with
// distinct odd multipliers). The controlled system feeds it from the
// state lists (common/state.h, StateHashVisitor) through *sorted or
// keyed* iteration only — never from unordered-container visit order —
// so the digest of a logical state is identical no matter which
// interleaving reached it. The explorer keys its visited table on
// the resulting Fp128 (see docs/verification.md, "State-space
// deduplication": collision policy and the verify_on_hit debug mode).
//
// The optional text mode additionally records "tag=value" lines for every
// absorbed datum; the undo-log round-trip oracle byte-compares these
// dumps, so a divergence names the first mismatching member instead of
// just flipping a hash bit.

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

class StateHasher {
 public:
  // `keep_text` additionally accumulates a human-readable dump of every
  // absorbed datum (the round-trip oracle's byte-compare format).
  explicit StateHasher(bool keep_text = false) : keep_text_(keep_text) {}

  void U64(const char* tag, uint64_t value);
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

  Fp128 Digest() const { return Fp128{lo_, hi_}; }
  // Empty unless constructed with keep_text.
  const std::string& Text() const { return text_; }

 private:
  void Mix(uint64_t value);

  uint64_t lo_ = 0x9e3779b97f4a7c15ull;
  uint64_t hi_ = 0xbf58476d1ce4e5b9ull;
  bool keep_text_ = false;
  std::string text_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_COMMON_FINGERPRINT_H_
