// Suppression audit, positive: an unknown check name is flagged, so a
// typo cannot silently disable a check.
struct Source {
  void Tick() {}  // sweeplint:allow direct-shedule misspelled check name here
};
