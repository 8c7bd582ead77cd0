// state-inventory, negative: every member listed exactly once, with an
// adapter, every tag, a static member (not state) and a class without a
// list (out of scope).
struct Stats {
  int probes = 0;
  int matches = 0;
};

class Probe {
 public:
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("site_id_", self.site_id_);
    v.Protocol("view_", self.view_);
    v.Log("installs_", self.installs_);
    v.Durable("wal_", self.wal_);
    v.History("next_seq_", self.next_seq_);
    v.Protocol("stats_", self.stats_, ProbeCounts{});
  }

 private:
  struct ProbeCounts {};

  static int instances_;
  int site_id_ = 0;
  int view_ = 0;
  std::vector<int> installs_;
  std::vector<int> wal_;
  long next_seq_ = 0;
  Stats stats_;
};
