// determinism-taint, positive: stream output written in unordered
// iteration order, through a `trace_` member and from operator<<.
namespace std {
template <typename K, typename V>
struct unordered_map {
  struct value_type { K first; V second; };
  const value_type* begin() const { return nullptr; }
  const value_type* end() const { return nullptr; }
};
struct ostream {
  ostream& operator<<(int v) { return *this; }
};
}  // namespace std

struct Steps {
  void Record(int v) {}
};

struct Bag {
  void Dump() {
    for (const auto& entry : counts_) trace_.Record(entry.first);
  }
  std::unordered_map<int, int> counts_;
  Steps trace_;
};

std::ostream& operator<<(std::ostream& os, const Bag& bag) {
  for (const auto& entry : bag.counts_) os << entry.first;
  return os;
}
