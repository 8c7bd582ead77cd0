// Suppression audit, positive: the code this annotation once suppressed
// was fixed, but the annotation stayed behind.
struct Source {
  // sweeplint:allow direct-schedule the timer this excused was removed
  int Pending() const { return pending_; }
  int pending_ = 0;
};
