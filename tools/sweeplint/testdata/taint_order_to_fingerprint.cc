// determinism-taint, positive: unordered iteration order folded through
// a non-commutative accumulation and returned by a fingerprint
// function.
namespace std {
template <typename K, typename V>
struct unordered_map {
  struct value_type {
    K first;
    V second;
  };
  const value_type* begin() const { return nullptr; }
  const value_type* end() const { return nullptr; }
};
}  // namespace std

struct Harness {
  unsigned long Fingerprint() const {
    unsigned long h = 0;
    for (const auto& entry : counts_) {
      h = h * 31 + entry.second;
    }
    return h;
  }
  std::unordered_map<int, int> counts_;
};
