// raw-thread, positive: a real thread outside src/verify/, spawned in a
// body and held as a member, directly and through a type alias.
namespace std {
struct thread {
  template <typename F>
  explicit thread(F f) {}
  void join() {}
};
template <typename T>
struct vector {};
}  // namespace std

using Worker = std::thread;

struct Pump {
  void Spawn() { std::thread([] {}).join(); }
  Worker Start() {
    return Worker([] {});
  }
  std::thread worker_;
  std::vector<Worker> pool_;
};
