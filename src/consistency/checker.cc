#include "consistency/checker.h"

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/str.h"
#include "consistency/replay.h"

namespace sweepmv {

namespace {

// Verifies the strong-consistency conditions; fills `detail` with the
// first violation. Also decides completeness (the same walk with extra
// conditions) to avoid replaying twice.
struct WalkResult {
  bool strong = false;
  bool complete = false;
  // An install named an update no source logged. Raised only once the
  // final view is known to match: a wrong final view is reported first.
  bool unknown_update = false;
  std::string detail;
};

// Walks the installs on `replay`, which starts at the initial states.
// `*current` holds the view evaluated at replay.versions() whenever the
// walk evaluated it there, so the final check need not evaluate it again.
WalkResult WalkInstalls(const ViewDef& view, const Warehouse& warehouse,
                        Replayer& replay, std::optional<Relation>* current) {
  WalkResult result;

  const auto& installs = warehouse.install_log();
  const auto& arrivals = warehouse.arrival_log();

  // Candidate for completeness until proven otherwise.
  bool complete = installs.size() == arrivals.size();
  if (!complete) {
    result.detail = StrFormat(
        "%zu installs for %zu updates (complete consistency needs one "
        "view state per update)",
        installs.size(), arrivals.size());
  }

  std::set<int64_t> incorporated;
  std::vector<size_t> versions(
      static_cast<size_t>(view.num_relations()), 0);
  size_t arrival_cursor = 0;

  for (size_t k = 0; k < installs.size(); ++k) {
    const InstallRecord& install = installs[k];

    if (install.update_ids.empty()) {
      result.detail = StrFormat("install %zu incorporated no updates", k);
      return result;
    }

    // Complete consistency additionally requires delivery order, one
    // update per install.
    if (complete) {
      if (install.update_ids.size() != 1 ||
          install.update_ids[0] != arrivals[k].first) {
        complete = false;
        if (result.detail.empty()) {
          result.detail = StrFormat(
              "install %zu does not match delivery order one-to-one", k);
        }
      }
    }

    // A batch install is atomic: its ids are a set. Per relation they
    // must extend that relation's source order by a contiguous block
    // starting at the current version (prefix rule), but the enumeration
    // order within the batch carries no meaning.
    std::map<int, std::set<size_t>> batch_positions;
    for (int64_t id : install.update_ids) {
      if (!incorporated.insert(id).second) {
        result.detail =
            StrFormat("update %lld incorporated twice",
                      static_cast<long long>(id));
        return result;
      }
      const std::pair<int, size_t>* at = replay.Find(id);
      if (at == nullptr) {
        result.unknown_update = true;
        return result;
      }
      batch_positions[at->first].insert(at->second);
    }
    for (const auto& [rel, positions] : batch_positions) {
      size_t expected = versions[static_cast<size_t>(rel)];
      for (size_t pos : positions) {  // std::set iterates in order
        if (pos != expected) {
          result.detail = StrFormat(
              "install %zu: R%d updates do not extend the source order "
              "contiguously (position %zu, expected %zu)",
              k, rel, pos, expected);
          return result;
        }
        ++expected;
      }
      versions[static_cast<size_t>(rel)] = expected;
    }

    // Strong consistency also demands the batch not run ahead of
    // delivery: every incorporated update must have arrived by now. (It
    // has, trivially, since the warehouse only sees arrived updates; we
    // keep the cursor to validate the log's internal order.)
    while (arrival_cursor < arrivals.size() &&
           incorporated.count(arrivals[arrival_cursor].first) != 0) {
      ++arrival_cursor;
    }

    replay.AdvanceTo(versions);
    const Relation& expected = current->emplace(replay.CurrentView());
    if (install.view_after != expected) {
      result.detail = StrFormat(
          "install %zu view does not match the replayed view (%zu vs %zu "
          "tuples)",
          k, install.view_after.DistinctSize(), expected.DistinctSize());
      return result;
    }
  }

  // Every update must eventually be incorporated.
  for (int rel = 0; rel < view.num_relations(); ++rel) {
    if (versions[static_cast<size_t>(rel)] !=
        replay.TotalUpdates(rel)) {
      result.detail = StrFormat(
          "R%d: only %zu of %zu updates were incorporated", rel,
          versions[static_cast<size_t>(rel)], replay.TotalUpdates(rel));
      return result;
    }
  }

  result.strong = true;
  result.complete = complete;
  return result;
}

}  // namespace

ConsistencyReport CheckConsistency(
    const ViewDef& view, const std::vector<const StateLog*>& source_logs,
    const Warehouse& warehouse) {
  ConsistencyReport report;
  report.installs = warehouse.install_log().size();
  report.updates = warehouse.arrival_log().size();

  // One replay serves both checks. Version vectors only grow, so the
  // install walk goes first and the final state (every update applied)
  // is reached from wherever it stopped; when the last install already
  // incorporated every update, its replayed view is the final one.
  Replayer replay(&view, source_logs);
  std::optional<Relation> current;
  WalkResult walk = WalkInstalls(view, warehouse, replay, &current);
  std::vector<size_t> final_versions;
  for (int rel = 0; rel < view.num_relations(); ++rel) {
    final_versions.push_back(replay.TotalUpdates(rel));
  }
  if (replay.versions() != final_versions) {
    replay.AdvanceTo(final_versions);
    current.reset();
  }
  if (!current.has_value()) current.emplace(replay.CurrentView());
  report.final_state_correct = warehouse.view() == *current;

  if (!report.final_state_correct) {
    report.level = ConsistencyLevel::kInconsistent;
    report.detail = "final view does not match the replayed final view";
    return report;
  }

  SWEEP_CHECK_MSG(!walk.unknown_update, "unknown update id");
  if (walk.complete) {
    report.level = ConsistencyLevel::kComplete;
  } else if (walk.strong) {
    report.level = ConsistencyLevel::kStrong;
    report.detail = walk.detail;
  } else {
    report.level = ConsistencyLevel::kConvergent;
    report.detail = walk.detail;
  }
  return report;
}

}  // namespace sweepmv
