// state-inventory, positive: a member listed twice, in a nested state
// struct; the second entry is the finding.
class Probe {
 private:
  struct Pending {
    int attempts = 0;
    bool done = false;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("attempts", self.attempts);
      v.Protocol("done", self.done);
      v.Protocol("attempts", self.attempts);
    }
  };
};
