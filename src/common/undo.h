// Per-step undo log: O(changes) backtracking for the schedule explorer.
//
// The prefix-sharing explorer (PR 4) backtracks by restoring a
// ControlledSystem::SavedState — a deep copy of *everything*, including
// the warehouse's whole install history and every source relation, taken
// at every branching decision point. This log replaces that with
// mutation-granular entries: every component, at each controlled-step
// entry point, records how to undo what the step is about to change, and
// backtracking pops entries back to the parent's watermark. Branch cost
// becomes proportional to the events executed since the parent instead of
// the total state size. SaveState/RestoreState survive as the periodic
// safety anchor (ExplorerConfig::snapshot_anchor_every) and as the oracle
// the round-trip tests compare against.
//
// Capture discipline (the correctness contract, pinned by
// tests/undo_log_test.cc). Every entry point records its class's whole
// state list (common/state.h), so no member can be left out:
//
//   * An *era* is the span between two watermarks (MarkPoint /
//     RollbackTo / DiscardTo each open a new one). The explorer marks
//     before every controlled step, so one era = one executed event.
//   * Hooks run at the *top* of each mutation entry point, before any
//     member changes. The first capture of a member per era therefore
//     stores its watermark value; later captures of the same member in
//     the same era are deduplicated (first-touch-per-era), keyed on
//     (address, capture kind).
//   * CaptureValue restores by whole-value assignment — always sound.
//     CaptureTail records only the length of an append-only container
//     and restores by truncation — sound as long as every *non-append*
//     mutation of that container happens in an era that value-captures
//     it instead (the warehouse's crash/recovery path does exactly
//     this). Mixed eras compose because entries apply in reverse order:
//     a newer value-capture first restores the full container (whose
//     prefix up to the older era's length is untouched history), then
//     the older truncation cuts it back.

#ifndef SWEEPMV_COMMON_UNDO_H_
#define SWEEPMV_COMMON_UNDO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

namespace sweepmv {

// Identity of one state member for the effect-set soundness oracle:
// (declaring class, member name, site). `site == -1` means global (one
// instance, e.g. UpdateIdGenerator::next_). The strings are expected to
// be string literals; comparisons go through strcmp so distinct literals
// with equal text compare equal.
struct EffectAtom {
  const char* cls = "";
  const char* member = "";
  int site = -1;
};

class UndoLog {
 public:
  using Mark = size_t;

  // Opens a new era and returns the current watermark.
  Mark MarkPoint() {
    OpenEra();
    return entries_.size();
  }

  // Applies every entry above `mark` in reverse recording order, then
  // opens a new era.
  void RollbackTo(Mark mark) {
    while (entries_.size() > mark) {
      entries_.back()();
      entries_.pop_back();
    }
    ++rollbacks_;
    OpenEra();
  }

  // Drops entries above `mark` without applying them — used after the
  // explorer restores a full snapshot anchor instead of unwinding.
  void DiscardTo(Mark mark) {
    entries_.resize(mark);
    OpenEra();
  }

  // Whole-value restore; first touch per era wins. The tagged overload
  // names the member for the effect oracle: while observing, a probe
  // compares the pre-step value against the current one at drain time
  // and reports the atom only if the member actually changed.
  // Incomparable types degrade to "always changed" (conservative).
  template <typename T>
  void CaptureValue(T* target, EffectAtom atom) {
    if (!FirstTouch(target, kValue)) return;
    if (observing_) {
      if constexpr (requires(const T& a, const T& b) { a == b; }) {
        probes_.push_back(
            [target, atom, saved = *target](std::vector<EffectAtom>& out) {
              if (!(saved == *target)) out.push_back(atom);
            });
      } else {
        probes_.push_back([atom](std::vector<EffectAtom>& out) {
          out.push_back(atom);
        });
      }
    }
    entries_.push_back([target, saved = *target]() mutable {
      *target = std::move(saved);
    });
  }

  template <typename T>
  void CaptureValue(T* target) {
    CaptureValue(target, EffectAtom{"<untagged>", "", -1});
  }

  // Truncate-only restore for append-only containers; first touch per
  // era wins. See the capture discipline above for when this is sound.
  // The observation probe compares lengths: for an append-only container
  // "size changed" is exactly "mutated this era".
  template <typename Container>
  void CaptureTail(Container* target, EffectAtom atom) {
    if (!FirstTouch(target, kTail)) return;
    if (observing_) {
      probes_.push_back(
          [target, atom, length = target->size()](std::vector<EffectAtom>& out) {
            if (target->size() != length) out.push_back(atom);
          });
    }
    entries_.push_back([target, length = target->size()]() {
      if (target->size() > length) {
        target->erase(
            target->begin() + static_cast<std::ptrdiff_t>(length),
            target->end());
      }
    });
  }

  template <typename Container>
  void CaptureTail(Container* target) {
    CaptureTail(target, EffectAtom{"<untagged>", "", -1});
  }

  // Custom deduplicated restore (e.g. "restore this relation and rebuild
  // its indexes"). `key` identifies the captured object for the
  // first-touch-per-era rule. The probe supplies change detection for
  // state that needs hand-rolled comparison (per-link network channels,
  // indexed relations); it appends one atom per member it finds changed.
  void Capture(const void* key, std::function<void()> undo,
               std::function<void(std::vector<EffectAtom>&)> probe) {
    if (!FirstTouch(key, kCustom)) return;
    if (observing_ && probe) probes_.push_back(std::move(probe));
    entries_.push_back(std::move(undo));
  }

  size_t size() const { return entries_.size(); }
  // Lifetime counters for the bench's undo-entries-per-backtrack row.
  int64_t entries_recorded() const { return recorded_; }
  int64_t rollbacks() const { return rollbacks_; }

  // --- effect observation (soundness oracle support) ---------------------
  //
  // While observing, each first-touch capture also registers a *probe*
  // that, at drain time, decides whether the captured member actually
  // changed since the era opened. One era = one controlled step, so
  // DrainObserved() right after a step yields the step's true write set.
  void SetObserve(bool on) {
    observing_ = on;
    if (!on) probes_.clear();
  }
  bool observing() const { return observing_; }

  // Runs all registered probes, returns the deduplicated set of atoms
  // observed changed this era, and clears the probes.
  std::vector<EffectAtom> DrainObserved() {
    std::vector<EffectAtom> out;
    for (auto& probe : probes_) probe(out);
    probes_.clear();
    auto less = [](const EffectAtom& a, const EffectAtom& b) {
      int c = std::strcmp(a.cls, b.cls);
      if (c != 0) return c < 0;
      c = std::strcmp(a.member, b.member);
      if (c != 0) return c < 0;
      return a.site < b.site;
    };
    std::sort(out.begin(), out.end(), less);
    out.erase(std::unique(out.begin(), out.end(),
                          [&](const EffectAtom& a, const EffectAtom& b) {
                            return !less(a, b) && !less(b, a);
                          }),
              out.end());
    return out;
  }

 private:
  enum Kind { kValue = 0, kTail = 1, kCustom = 2 };

  void OpenEra() {
    for (auto& seen : seen_) seen.clear();
    probes_.clear();
  }

  bool FirstTouch(const void* addr, Kind kind) {
    if (!seen_[kind].insert(addr).second) return false;
    ++recorded_;
    return true;
  }

  std::vector<std::function<void()>> entries_;
  std::vector<std::function<void(std::vector<EffectAtom>&)>> probes_;
  bool observing_ = false;
  std::unordered_set<const void*> seen_[3];
  int64_t recorded_ = 0;
  int64_t rollbacks_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_COMMON_UNDO_H_
