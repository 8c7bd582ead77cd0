// determinism-taint, positive: unordered iteration order decides the
// order in which view deltas are installed, and so the install log.
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

struct Warehouse {
  void InstallViewDelta(int delta) { installed_ += delta; }
  void FlushPending() {
    for (const auto& entry : pending_) {
      InstallViewDelta(entry.second);
    }
  }
  std::unordered_map<int, int> pending_;
  int installed_ = 0;
};
