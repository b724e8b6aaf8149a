// Refresh manager tests: cadence, postponement budget, stagger.
#include <gtest/gtest.h>

#include "mem/refresh_manager.h"

namespace rop::mem {
namespace {

class RefreshManagerTest : public ::testing::Test {
 protected:
  dram::DramTimings t = dram::make_ddr4_1600_timings();
};

TEST_F(RefreshManagerTest, FirstRefreshDueAtFirstBoundary) {
  RefreshManager rm(t, 1);
  // Nothing is owed until a full tREFI has elapsed: the first boundary
  // sits at offset + tREFI, not at the phase offset itself.
  EXPECT_EQ(rm.owed(0, 0), 0u);
  EXPECT_EQ(rm.owed(0, t.tREFI - 1), 0u);
  EXPECT_EQ(rm.owed(0, t.tREFI), 1u);
  rm.on_refresh_issued(0);
  EXPECT_EQ(rm.owed(0, t.tREFI), 0u);
  EXPECT_EQ(rm.owed(0, 2 * t.tREFI - 1), 0u);
  EXPECT_EQ(rm.owed(0, 2 * t.tREFI), 1u);
}

// Regression for the owed() off-by-one: the formula used to count the
// phase offset itself as a boundary, so rank 0 was issued its first REF
// at cycle 0 instead of one full tREFI in. Pin the first-REF-due cycle
// for every rank of a staggered 4-rank config.
TEST_F(RefreshManagerTest, FirstRefreshCyclePinnedPerRank) {
  RefreshManager rm(t, 4);
  for (RankId r = 0; r < 4; ++r) {
    const Cycle first = rm.phase_offset(r) + t.tREFI;
    EXPECT_EQ(rm.owed(r, first - 1), 0u) << "rank " << r;
    EXPECT_EQ(rm.owed(r, first), 1u) << "rank " << r;
    EXPECT_EQ(rm.next_owed_increase(r, 0), first) << "rank " << r;
  }
}

TEST_F(RefreshManagerTest, OwedAccumulatesWhenPostponed) {
  RefreshManager rm(t, 1);
  // Never issue: after k boundaries, k refreshes are owed.
  EXPECT_EQ(rm.owed(0, 3 * t.tREFI), 3u);  // boundaries at 1,2,3 x tREFI
}

TEST_F(RefreshManagerTest, UrgentAtPostponementBudget) {
  RefreshManager rm(t, 1);
  const Cycle almost = t.max_postponed_refreshes * t.tREFI;
  EXPECT_FALSE(rm.urgent(0, almost - 1));
  EXPECT_TRUE(rm.urgent(0, almost));  // 8 boundaries passed, none issued
}

TEST_F(RefreshManagerTest, CatchUpClearsBacklog) {
  RefreshManager rm(t, 1);
  const Cycle now = 3 * t.tREFI;  // 3 owed
  for (int i = 0; i < 3; ++i) rm.on_refresh_issued(0);
  EXPECT_EQ(rm.owed(0, now), 0u);
  EXPECT_EQ(rm.issued(0), 3u);
  EXPECT_EQ(rm.total_issued(), 3u);
}

TEST_F(RefreshManagerTest, RanksAreStaggered) {
  RefreshManager rm(t, 4);
  EXPECT_EQ(rm.phase_offset(0), 0u);
  EXPECT_EQ(rm.phase_offset(1), t.tREFI / 4);
  EXPECT_EQ(rm.phase_offset(3), 3u * t.tREFI / 4);
  // Before its first boundary (offset + tREFI), a rank owes nothing.
  EXPECT_EQ(rm.owed(3, rm.phase_offset(3) + t.tREFI - 1), 0u);
  EXPECT_EQ(rm.owed(3, rm.phase_offset(3) + t.tREFI), 1u);
}

TEST_F(RefreshManagerTest, NextBoundaryAdvancesWithIssues) {
  RefreshManager rm(t, 2);
  const Cycle trefi = t.tREFI;
  // Each issue covers one more boundary: after k issues nothing is owed
  // until boundary k + 1, and one unit is owed from that boundary on.
  for (Cycle k = 0; k < 3; ++k) {
    EXPECT_EQ(rm.owed(0, (k + 1) * trefi - 1), 0u) << "issues " << k;
    EXPECT_EQ(rm.owed(0, (k + 1) * trefi), 1u) << "issues " << k;
    rm.on_refresh_issued(0);
  }
  // The crossing cadence owed() steps at does not move with issues.
  EXPECT_EQ(rm.next_owed_increase(0, 10), trefi);
  EXPECT_EQ(rm.next_owed_increase(0, trefi), 2 * trefi);
  // Rank 1 boundaries sit one interval past its phase offset.
  EXPECT_EQ(rm.next_owed_increase(1, 0), rm.phase_offset(1) + trefi);
  EXPECT_EQ(rm.owed(1, rm.phase_offset(1) + trefi), 1u);
}

TEST_F(RefreshManagerTest, LongRunAverageOnePerTrefi) {
  RefreshManager rm(t, 1);
  Cycle now = 0;
  std::uint64_t issued = 0;
  // Issue as soon as due for 1000 intervals.
  for (int i = 0; i < 1000; ++i) {
    while (rm.owed(0, now) == 0) now += 13;
    rm.on_refresh_issued(0);
    ++issued;
  }
  EXPECT_EQ(issued, 1000u);
  // Elapsed time ~ 1000 x tREFI (first due at tREFI).
  EXPECT_NEAR(static_cast<double>(now),
              1000.0 * static_cast<double>(t.tREFI),
              static_cast<double>(t.tREFI));
}

}  // namespace
}  // namespace rop::mem
