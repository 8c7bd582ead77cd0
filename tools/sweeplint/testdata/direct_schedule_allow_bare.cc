// direct-schedule, positive: a suppression without a rationale is itself
// an error (and still suppresses the finding, so the fix is to write the
// rationale, not to delete the annotation).
struct Sim {
  void Schedule(long delay, int label, void (*fn)()) {}
};

inline void Reissue() {}

struct Warehouse {
  void ArmTimer() {
    sim_->Schedule(3, 0, Reissue);  // sweeplint:allow direct-schedule why
  }
  Sim* sim_ = nullptr;
};
