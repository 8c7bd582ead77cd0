// determinism-taint, clean: a non-commutative fold over an ordered
// std::map into a fingerprint is fine — visit order is the key order.
namespace std {
template <typename K, typename V>
struct map {
  struct value_type {
    K first;
    V second;
  };
  const value_type* begin() const { return nullptr; }
  const value_type* end() const { return nullptr; }
};
}  // namespace std

struct Registry {
  unsigned long Fingerprint() const {
    unsigned long h = 0;
    for (const auto& entry : table_) {
      h = h * 31 + entry.second;
    }
    return h;
  }
  std::map<int, int> table_;
};
