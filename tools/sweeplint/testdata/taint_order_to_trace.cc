// determinism-taint, positive: the enclosing function is not itself a
// sink, but the unordered loop's body feeds one (Trace).
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

struct Tracer {
  void Trace(int value) { last_ = value; }
  int last_ = 0;
};

struct Collector {
  void Flush() {
    for (const auto& entry : pending_) {
      tracer_.Trace(entry.second);
    }
  }
  std::unordered_map<int, int> pending_;
  Tracer tracer_;
};
