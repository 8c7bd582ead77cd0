// state-inventory, positive: a member absent from the class's state
// list, so every derived mechanism would skip it.
class Probe {
 public:
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("site_id_", self.site_id_);
    v.Protocol("counted_", self.counted_);
  }

 private:
  int site_id_ = 0;
  int counted_ = 0;
  int forgotten_ = 0;
};
