// direct-schedule, positive: protocol code scheduling a simulator event
// itself, even through the labeled overload, bypasses the network that
// keeps protocol messages FIFO per link.
struct Sim {
  void Schedule(long delay, int label, void (*fn)()) {}
};

inline void Answer() {}

struct Source {
  void Reply() { sim_->Schedule(5, 1, Answer); }
  Sim* sim_ = nullptr;
};
