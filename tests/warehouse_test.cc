#include "core/warehouse.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "test_util.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;
using testing_util::System;

// The view changes only through InstallViewDelta/InstallAbsoluteView,
// which log every install the consistency checker replays. The compiler
// enforces it: view_ is private with no friend, so no algorithm subclass
// can name it. The probe asks from a subclass's scope; naming a
// protected member is its control, so the first assert is not vacuous.
template <class W>
struct ViewAccessProbe : W {
  static constexpr bool kNamesView = requires(ViewAccessProbe& p) { p.view_; };
  static constexpr bool kNamesProtected =
      requires(ViewAccessProbe& p) { p.site_id(); };
};
static_assert(!ViewAccessProbe<Warehouse>::kNamesView,
              "an algorithm subclass can name Warehouse::view_ and bypass "
              "the install log");
static_assert(ViewAccessProbe<Warehouse>::kNamesProtected);

TEST(WarehouseTest, ArrivalLogRecordsDeliveryOrderAndTimes) {
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()),
             LatencyModel::Fixed(1000));
  sys.ScheduleInsert(0, 0, IntTuple({9, 3}));
  sys.ScheduleInsert(500, 2, IntTuple({5, 9}));
  sys.Run();

  const auto& arrivals = sys.warehouse().arrival_log();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].second, 1000);
  EXPECT_EQ(arrivals[1].second, 1500);
  EXPECT_LT(arrivals[0].first, arrivals[1].first);
  EXPECT_EQ(sys.warehouse().updates_received(), 2);
}

TEST(WarehouseTest, InstallLogSnapshotsAndCounters) {
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()));
  sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
  sys.Run();

  const auto& installs = sys.warehouse().install_log();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].view_after, sys.warehouse().view());
  EXPECT_FALSE(installs[0].negative_counts);
  EXPECT_GT(installs[0].time, 0);
  EXPECT_EQ(sys.warehouse().updates_incorporated(), 1);
  EXPECT_GT(sys.warehouse().queries_sent(), 0);
}

TEST(WarehouseTest, LogInstallsCanBeDisabled) {
  WarehouseConfig config;
  config.base.log_installs = false;
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()),
             LatencyModel::Fixed(1000), config);
  sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
  sys.Run();
  EXPECT_TRUE(sys.warehouse().install_log().empty());
  // The view is still maintained, and the incorporation counter still
  // advances.
  EXPECT_EQ(sys.warehouse().view(), sys.ExpectedView());
  EXPECT_EQ(sys.warehouse().updates_incorporated(), 1);
}

TEST(WarehouseTest, NamesAndPromises) {
  for (Algorithm a : AllAlgorithms()) {
    EXPECT_STRNE(AlgorithmName(a), "?");
    EXPECT_STRNE(PromisedMessageCost(a), "?");
  }
  EXPECT_EQ(PromisedConsistency(Algorithm::kSweep),
            ConsistencyLevel::kComplete);
  EXPECT_EQ(PromisedConsistency(Algorithm::kCStrobe),
            ConsistencyLevel::kComplete);
  EXPECT_EQ(PromisedConsistency(Algorithm::kStrobe),
            ConsistencyLevel::kStrong);
  EXPECT_EQ(PromisedConsistency(Algorithm::kNestedSweep),
            ConsistencyLevel::kStrong);
  EXPECT_EQ(PromisedConsistency(Algorithm::kEca),
            ConsistencyLevel::kStrong);
  EXPECT_EQ(PromisedConsistency(Algorithm::kRecompute),
            ConsistencyLevel::kConvergent);
  EXPECT_TRUE(RequiresSingleSource(Algorithm::kEca));
  EXPECT_FALSE(RequiresSingleSource(Algorithm::kSweep));
}

TEST(WarehouseTest, FactoryBuildsEveryAlgorithm) {
  for (Algorithm a : AllAlgorithmVariants()) {
    System sys(a, PaperView(), PaperBases(PaperView()));
    EXPECT_EQ(sys.warehouse().name(), AlgorithmName(a));
    EXPECT_FALSE(sys.warehouse().Busy());
    EXPECT_EQ(sys.warehouse().view().CountOf(IntTuple({7, 8})), 2);
  }
}

TEST(WarehouseTest, EveryAlgorithmHandlesTheSameSimpleRun) {
  for (Algorithm a : AllAlgorithmVariants()) {
    System sys(a, PaperView(), PaperBases(PaperView()),
               LatencyModel::Fixed(500));
    sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
    sys.ScheduleDelete(5000, 2, IntTuple({7, 8}));
    sys.Run();
    EXPECT_EQ(sys.warehouse().view(), sys.ExpectedView())
        << AlgorithmName(a);
    EXPECT_TRUE(sys.warehouse().update_queue().empty());
    EXPECT_FALSE(sys.warehouse().Busy());
  }
}

TEST(WarehouseTest, InstallObserverSeesEachInstalledDeltaAndIds) {
  for (Algorithm a : AllAlgorithmVariants()) {
    System sys(a, PaperView(), PaperBases(PaperView()),
               LatencyModel::Fixed(500));
    std::vector<std::pair<Relation, std::vector<int64_t>>> seen;
    sys.warehouse().SetInstallObserver(
        [&seen](const Relation& delta, const std::vector<int64_t>& ids) {
          seen.emplace_back(delta, ids);
        });
    Relation before = sys.warehouse().view();
    sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
    sys.ScheduleDelete(5000, 2, IntTuple({7, 8}));
    sys.Run();

    // Each observed delta is exactly the view transition it announces,
    // with the ids the install log records for it.
    const auto& installs = sys.warehouse().install_log();
    ASSERT_EQ(seen.size(), installs.size()) << AlgorithmName(a);
    for (size_t i = 0; i < installs.size(); ++i) {
      Relation transition = installs[i].view_after;
      transition.MergeNegated(before);
      EXPECT_EQ(seen[i].first, transition) << AlgorithmName(a);
      EXPECT_EQ(seen[i].second, installs[i].update_ids) << AlgorithmName(a);
      before = installs[i].view_after;
    }
  }

  // SWEEP on Figure 5's first update: +(3,5) into R2 adds (5,6) twice.
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()));
  std::vector<std::pair<Relation, std::vector<int64_t>>> seen;
  sys.warehouse().SetInstallObserver(
      [&seen](const Relation& delta, const std::vector<int64_t>& ids) {
        seen.emplace_back(delta, ids);
      });
  sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
  sys.Run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first.ToDisplayString(), "{(5,6)[2]}");
  EXPECT_EQ(seen[0].second,
            std::vector<int64_t>{sys.warehouse().arrival_log()[0].first});
}

}  // namespace
}  // namespace sweepmv
