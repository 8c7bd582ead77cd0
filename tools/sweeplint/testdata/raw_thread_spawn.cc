// raw-thread, positive: a real thread outside src/verify/ in a body, a
// member (also via an alias), a parameter and a namespace-scope variable.
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

void Adopt(int id, std::thread worker) { worker.join(); }

std::thread background;
int ticks = 0;
