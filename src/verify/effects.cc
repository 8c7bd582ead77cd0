#include "verify/effects.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/str.h"
#include "verify/effects_table.h"

namespace sweepmv {

namespace {

// "Class::member@binding" -> (class, member, binding). The generator
// guarantees the shape; a malformed atom is a build-system bug.
struct ParsedAtom {
  std::string cls;
  std::string member;
  bool global = false;
};

ParsedAtom ParseAtom(const std::string& text) {
  const size_t sep = text.find("::");
  const size_t at = text.rfind('@');
  SWEEP_CHECK_MSG(sep != std::string::npos && at != std::string::npos &&
                      sep < at,
                  "malformed effect atom in the generated table");
  ParsedAtom atom;
  atom.cls = text.substr(0, sep);
  atom.member = text.substr(sep + 2, at - sep - 2);
  const std::string binding = text.substr(at + 1);
  SWEEP_CHECK_MSG(binding == "self" || binding == "global",
                  "unknown effect binding in the generated table");
  atom.global = binding == "global";
  return atom;
}

std::vector<std::string> SplitAtoms(const char* column) {
  std::vector<std::string> out;
  std::string text(column);
  size_t pos = 0;
  while (pos < text.size()) {
    size_t space = text.find(' ', pos);
    if (space == std::string::npos) space = text.size();
    if (space > pos) out.push_back(text.substr(pos, space - pos));
    pos = space + 1;
  }
  return out;
}

const verify::HandlerEffectsRow* FindTableRow(const char* handler_class,
                                              const char* kind) {
  for (const verify::HandlerEffectsRow& row : verify::kHandlerEffects) {
    if (std::strcmp(row.handler_class, handler_class) == 0 &&
        std::strcmp(row.kind, kind) == 0) {
      return &row;
    }
  }
  return nullptr;
}

bool SortedIntersect(const std::vector<int>& a, const std::vector<int>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

std::string AtomKey(const std::string& cls, const std::string& member,
                    int site) {
  return StrFormat("%s::%s@%d", cls.c_str(), member.c_str(), site);
}

}  // namespace

int EffectsIndex::Intern(const std::string& cls, const std::string& member,
                         int site) {
  known_classes_.insert(cls);
  const std::string key = AtomKey(cls, member, site);
  auto it = atom_ids_.find(key);
  if (it != atom_ids_.end()) return it->second;
  const int id = static_cast<int>(atom_ids_.size());
  atom_ids_.emplace(key, id);
  return id;
}

void EffectsIndex::AddRow(const Key& key, const char* handler_class,
                          const char* kind, int self_site,
                          bool drops_enabled) {
  Row resolved;
  const verify::HandlerEffectsRow* row = FindTableRow(handler_class, kind);
  if (row == nullptr || !row->bounded) {
    // Unknown or unbounded handler: keep a declining row so lookups are
    // distinguishable from "no handler at this key" (timers).
    rows_.emplace(key, std::move(resolved));
    return;
  }
  auto resolve = [&](const char* column, std::vector<int>* out) {
    for (const std::string& text : SplitAtoms(column)) {
      const ParsedAtom atom = ParseAtom(text);
      out->push_back(
          Intern(atom.cls, atom.member, atom.global ? -1 : self_site));
    }
  };
  resolve(row->reads, &resolved.reads);
  resolve(row->writes, &resolved.writes);
  resolve(row->incs, &resolved.incs);
  // A drop-write is a real write exactly when the scenario can arm a
  // drop; otherwise the guarded branch is dead and the atom vanishes.
  if (drops_enabled) resolve(row->drop_writes, &resolved.writes);
  std::sort(resolved.reads.begin(), resolved.reads.end());
  std::sort(resolved.writes.begin(), resolved.writes.end());
  std::sort(resolved.incs.begin(), resolved.incs.end());
  resolved.bounded = true;
  rows_.emplace(key, std::move(resolved));
}

EffectsIndex EffectsIndex::ForScenario(const ControlledScenario& scenario) {
  EffectsIndex index;
  const bool drops = scenario.max_message_drops > 0;
  index.mixed_internal_ =
      scenario.warehouse_crashes > 0 && scenario.max_message_drops > 0;
  const int n = scenario.view.num_relations();

  // Primary warehouse at site 0: delivery handler, plus the controlled
  // crash when the scenario schedules one.
  const char* primary = AlgorithmClassName(scenario.algorithm);
  index.AddRow(Key{"deliver", 0}, primary, "message", 0, drops);
  if (scenario.warehouse_crashes > 0) {
    index.AddRow(Key{"crash", 0}, primary, "crash", 0, drops);
  }

  // Sources at 1..n (or ECA's single source at 1, hosting the whole
  // chain): query deliveries and the transaction stream.
  const int num_sources = RequiresSingleSource(scenario.algorithm) ? 1 : n;
  for (int s = 1; s <= num_sources; ++s) {
    index.AddRow(Key{"deliver", s}, "DataSource", "query", s, drops);
    index.AddRow(Key{"txn", s}, "DataSource", "txn", s, drops);
  }

  // Extra warehouses past the sources (multi-view deployment).
  for (size_t w = 0; w < scenario.extra_warehouses.size(); ++w) {
    const int site = n + 1 + static_cast<int>(w);
    index.AddRow(Key{"deliver", site},
                 AlgorithmClassName(scenario.extra_warehouses[w]), "message",
                 site, drops);
  }

  if (scenario.max_message_drops > 0) {
    index.AddRow(Key{"arm-drop", -1}, "Network", "arm-drop", -1, drops);
  }
  return index;
}

const EffectsIndex::Row* EffectsIndex::RowFor(const EventLabel& label) const {
  Key key;
  switch (label.kind) {
    case EventKind::kDelivery:
      key = Key{"deliver", label.to};
      break;
    case EventKind::kTxn:
      key = Key{"txn", label.to};
      break;
    case EventKind::kInternal:
      if (label.what != nullptr &&
          std::strcmp(label.what, "warehouse-crash") == 0) {
        key = Key{"crash", label.to};
      } else if (label.what != nullptr &&
                 std::strcmp(label.what, "arm-drop") == 0) {
        key = Key{"arm-drop", -1};
      } else {
        // Timer events and channel-head reconstructions carry no
        // resolvable handler identity.
        return nullptr;
      }
      break;
  }
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

bool EffectsIndex::Commute(const EventLabel& a, const EventLabel& b) const {
  // Deliveries already commute across sites under the site rule; the
  // effect grant targets the pairs that rule declares dependent —
  // transactions and internal events.
  auto qualifies = [](const EventLabel& label) {
    return label.kind == EventKind::kTxn ||
           label.kind == EventKind::kInternal;
  };
  if (!qualifies(a) || !qualifies(b)) return false;
  // Crash and arm-drop events share the internal channel and one
  // EventId; sleeping one would prune the other too. Mixed scenarios
  // decline all internal grants.
  if (mixed_internal_ && (a.kind == EventKind::kInternal ||
                          b.kind == EventKind::kInternal)) {
    return false;
  }
  // One FIFO channel: order is semantic, never commute.
  if (ChannelOf(a) == ChannelOf(b)) return false;
  const Row* ra = RowFor(a);
  const Row* rb = RowFor(b);
  if (ra == nullptr || rb == nullptr || !ra->bounded || !rb->bounded) {
    return false;
  }
  // Writes conflict with everything; increments conflict with reads but
  // commute with each other.
  const bool conflict =
      SortedIntersect(ra->writes, rb->writes) ||
      SortedIntersect(ra->writes, rb->reads) ||
      SortedIntersect(ra->writes, rb->incs) ||
      SortedIntersect(rb->writes, ra->reads) ||
      SortedIntersect(rb->writes, ra->incs) ||
      SortedIntersect(ra->incs, rb->reads) ||
      SortedIntersect(rb->incs, ra->reads);
  return !conflict;
}

bool EffectsIndex::CheckObserved(const EventLabel& label,
                                 const std::vector<EffectAtom>& observed,
                                 std::string* error) const {
  const Row* row = RowFor(label);
  if (row == nullptr || !row->bounded) return true;
  for (const EffectAtom& atom : observed) {
    if (std::strcmp(atom.cls, "<untagged>") == 0) {
      if (error != nullptr) {
        *error = "effect oracle: an untagged undo capture changed state "
                 "the oracle cannot attribute";
      }
      return false;
    }
    // Classes the table never mentions (the Simulator's event queue and
    // clock) are schedule bookkeeping, outside the protocol-state
    // universe the independence argument is about.
    if (known_classes_.count(atom.cls) == 0) continue;
    bool allowed = false;
    const auto it = atom_ids_.find(AtomKey(atom.cls, atom.member, atom.site));
    if (it != atom_ids_.end()) {
      allowed = std::binary_search(row->writes.begin(), row->writes.end(),
                                   it->second) ||
                std::binary_search(row->incs.begin(), row->incs.end(),
                                   it->second);
    }
    if (!allowed) {
      if (error != nullptr) {
        *error = StrFormat(
            "effect oracle: handler for '%s' (site %d) changed "
            "%s::%s@%d, which its static write footprint does not cover",
            LabelToString(label).c_str(), label.to, atom.cls, atom.member,
            atom.site);
      }
      return false;
    }
  }
  return true;
}

bool IndependentUnder(const EffectsIndex* effects, const EventLabel& a,
                      const EventLabel& b, int64_t* refined_grants) {
  if (Independent(a, b)) return true;
  if (effects != nullptr && effects->Commute(a, b)) {
    if (refined_grants != nullptr) ++(*refined_grants);
    return true;
  }
  return false;
}

}  // namespace sweepmv
