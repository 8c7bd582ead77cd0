// determinism-taint, clean: a well-formed allow on the source loop
// silences every taint flow out of it, so one annotation covers all the
// loop's sinks.
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
    // sweeplint:allow determinism-taint debug-only counter dump, the
    // trace consumer sums the values so order cannot matter
    for (const auto& entry : pending_) {
      tracer_.Trace(entry.second);
    }
  }
  std::unordered_map<int, int> pending_;
  Tracer tracer_;
};
