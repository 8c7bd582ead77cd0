// determinism-taint, positive: a comparison and a display string built
// by '+=' in unordered iteration order, so equal bags can compare and
// print unequal. Neither string is declared with '=', and '+=' on a
// string concatenates in visit order: no commutative reduction.
namespace std {
struct string {
  string() {}
  string(const char* s) {}
  string& operator+=(int k) { return *this; }
  bool operator==(const string& o) const { return true; }
};
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

struct Bag {
  bool operator==(const Bag& other) const {
    std::string keys;
    for (const auto& entry : counts_) {
      keys += entry.first;
    }
    return keys == other.keys_;
  }
  std::string ToString() const {
    std::string out("bag:");
    for (const auto& entry : counts_) {
      out += entry.first;
    }
    return out;
  }
  std::unordered_map<int, int> counts_;
  std::string keys_;
};
