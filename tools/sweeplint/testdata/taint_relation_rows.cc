// determinism-taint: Relation::entries() walks rows in history order (an
// erase moves the last row into the hole), so its RowRange is an
// unordered source. A non-commutative fold over it that reaches a Hash
// sink is flagged; a commutative fold is silent.
struct TupleRef {
  unsigned long Hash() const { return hash_; }
  unsigned long hash_ = 0;
};

struct Entry {
  TupleRef first;
  long second;
};

struct Relation {
  struct RowRange {
    const Entry* begin() const { return nullptr; }
    const Entry* end() const { return nullptr; }
  };
  RowRange entries() const { return RowRange(); }
};

struct OrderedDigest {
  unsigned long Hash() const {
    unsigned long h = 0;
    for (const auto& entry : rel_.entries()) {
      h = h * 31 + entry.first.Hash();
    }
    return h;
  }
  Relation rel_;
};

struct SummedDigest {
  unsigned long Hash() const {
    unsigned long sum = 0;
    for (const auto& entry : rel_.entries()) {
      sum += entry.first.Hash();
    }
    return sum;
  }
  Relation rel_;
};
