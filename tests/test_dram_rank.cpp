// Rank-scope timing tests: tRRD, tFAW, tCCD, write-to-read turnaround,
// refresh lockout, and activity accounting for the power model.
#include <gtest/gtest.h>

#include "dram/channel.h"
#include "dram/rank.h"

namespace rop::dram {
namespace {

Command act(RankId r, BankId b, RowId row) {
  return Command{CmdType::kActivate, DramCoord{0, r, b, row, 0}, 0};
}
Command rd(RankId r, BankId b, RowId row, ColumnId col) {
  return Command{CmdType::kRead, DramCoord{0, r, b, row, col}, 0};
}
Command wr(RankId r, BankId b, RowId row, ColumnId col) {
  return Command{CmdType::kWrite, DramCoord{0, r, b, row, col}, 0};
}
Command pre(RankId r, BankId b) {
  return Command{CmdType::kPrecharge, DramCoord{0, r, b, 0, 0}, 0};
}
Command ref(RankId r) {
  return Command{CmdType::kRefresh, DramCoord{0, r, 0, 0, 0}, 0};
}

class RankTest : public ::testing::Test {
 protected:
  DramTimings t = make_ddr4_1600_timings();
  Rank rank{t, 8};
};

TEST_F(RankTest, TrrdBetweenActivatesToDifferentBanks) {
  rank.issue(act(0, 0, 1), 0);
  EXPECT_FALSE(rank.can_issue(act(0, 1, 1), t.tRRD - 1));
  EXPECT_TRUE(rank.can_issue(act(0, 1, 1), t.tRRD));
}

TEST_F(RankTest, TfawLimitsFourActivatesPerWindow) {
  Cycle now = 0;
  for (BankId b = 0; b < 4; ++b) {
    rank.issue(act(0, b, 1), now);
    now += t.tRRD;
  }
  // The 5th ACT must wait until tFAW from the first (DDR4-1600: tFAW is
  // exactly 4 x tRRD, so the window opens right as tRRD would allow it).
  EXPECT_FALSE(rank.can_issue(act(0, 4, 1), t.tFAW - 1));
  EXPECT_TRUE(rank.can_issue(act(0, 4, 1), t.tFAW));
}

TEST_F(RankTest, TccdBetweenColumnCommands) {
  rank.issue(act(0, 0, 1), 0);
  rank.issue(act(0, 1, 1), t.tRRD);
  const Cycle first_rd = t.tRRD + t.tRCD;
  rank.issue(rd(0, 0, 1, 0), first_rd);
  EXPECT_FALSE(rank.can_issue(rd(0, 1, 1, 0), first_rd + t.tCCD - 1));
  EXPECT_TRUE(rank.can_issue(rd(0, 1, 1, 0), first_rd + t.tCCD));
}

TEST_F(RankTest, WriteToReadTurnaroundAppliesRankWide) {
  rank.issue(act(0, 0, 1), 0);
  rank.issue(act(0, 1, 1), t.tRRD);
  const Cycle wr_at = t.tRRD + t.tRCD;
  rank.issue(wr(0, 0, 1, 0), wr_at);
  const Cycle rd_ok = t.write_data_done(wr_at) + t.tWTR;
  // Read to a *different* bank in the same rank also waits for tWTR.
  EXPECT_FALSE(rank.can_issue(rd(0, 1, 1, 0), rd_ok - 1));
  EXPECT_TRUE(rank.can_issue(rd(0, 1, 1, 0), rd_ok));
}

TEST_F(RankTest, RefreshRequiresAllBanksPrecharged) {
  rank.issue(act(0, 3, 1), 0);
  EXPECT_FALSE(rank.can_issue(ref(0), t.tRAS + t.tRP + 100));
  rank.issue(pre(0, 3), t.tRAS);
  // Still waiting on tRP recovery of bank 3.
  EXPECT_FALSE(rank.can_issue(ref(0), t.tRAS + t.tRP - 1));
  EXPECT_TRUE(rank.can_issue(ref(0), t.tRAS + t.tRP));
}

TEST_F(RankTest, RefreshNeverReadyWhileAnyBankIsOpen) {
  // REF needs every bank, not just the one its coordinate names: an open
  // bank 3 never closes by itself, so time alone cannot make REF legal.
  rank.issue(act(0, 3, 1), 0);
  EXPECT_EQ(rank.earliest_issue(ref(0)), kNeverCycle);
  EXPECT_FALSE(rank.can_issue(ref(0), 100'000));
  rank.issue(pre(0, 3), t.tRAS);
  EXPECT_EQ(rank.earliest_issue(ref(0)), t.tRAS + t.tRP);
}

TEST(RankRefreshTest, RefreshWaitsForInFlightSubarrayRefresh) {
  // A whole-rank REF cannot start while a subarray refresh still holds a
  // bank; it becomes legal exactly when that busy interval ends.
  const DramTimings t = make_ddr4_1600_timings();
  DramOrganization org;
  org.subarrays = 8;
  Channel ch(t, org);
  const RowId sub0 = ch.rank(0).bank(0).subarray_row(0);
  ch.issue(Command{CmdType::kRefreshBank, DramCoord{0, 0, 0, sub0, 0}, 0},
           100);
  const Cycle busy_until = ch.rank(0).bank(0).subarray_busy_until(0);
  ASSERT_EQ(busy_until, 100 + t.tRFCpb);
  EXPECT_EQ(ch.earliest_issue(ref(0)), busy_until);
  for (Cycle c = 101; c < busy_until; ++c) {
    ch.tick(c);
    ASSERT_FALSE(ch.can_issue(ref(0), c)) << "REF legal at " << c;
  }
  ch.tick(busy_until);
  EXPECT_TRUE(ch.can_issue(ref(0), busy_until));
}

TEST_F(RankTest, RefreshFreezesEveryBankUntilTrfc) {
  rank.issue(ref(0), 10);
  EXPECT_TRUE(rank.refreshing());
  EXPECT_EQ(rank.refresh_done(), 10 + t.tRFC);
  EXPECT_FALSE(rank.can_issue(act(0, 0, 1), 10 + t.tRFC - 1));
  rank.tick(10 + t.tRFC - 1);
  EXPECT_TRUE(rank.refreshing());
  rank.tick(10 + t.tRFC);
  EXPECT_FALSE(rank.refreshing());
  EXPECT_TRUE(rank.can_issue(act(0, 0, 1), 10 + t.tRFC));
}

TEST_F(RankTest, ActivityAccountingPartitionsTime) {
  // 100 cycles precharged, then active until 300, then refresh.
  rank.issue(act(0, 0, 5), 100);
  rank.issue(pre(0, 0), 100 + t.tRAS);
  const Cycle ref_at = 300;
  rank.issue(ref(0), ref_at);
  rank.tick(ref_at + t.tRFC);
  rank.settle_accounting(1000);

  const RankActivity& a = rank.activity();
  EXPECT_EQ(a.active_cycles, static_cast<std::uint64_t>(t.tRAS));
  EXPECT_EQ(a.refresh_cycles, static_cast<std::uint64_t>(t.tRFC));
  EXPECT_EQ(a.active_cycles + a.precharged_cycles + a.refresh_cycles, 1000u);
}

TEST_F(RankTest, AccountingSettlesMidRefresh) {
  rank.issue(ref(0), 0);
  rank.settle_accounting(t.tRFC / 2);
  EXPECT_EQ(rank.activity().refresh_cycles,
            static_cast<std::uint64_t>(t.tRFC / 2));
  // Settling past the end splits refresh vs precharged correctly.
  rank.settle_accounting(t.tRFC + 50);
  EXPECT_EQ(rank.activity().refresh_cycles,
            static_cast<std::uint64_t>(t.tRFC));
  EXPECT_EQ(rank.activity().precharged_cycles, 50u);
}

}  // namespace
}  // namespace rop::dram
