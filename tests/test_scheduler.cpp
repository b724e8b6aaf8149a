// FR-FCFS scheduler tests (arena-backed queues, indexed by bank).
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mem/scheduler.h"

namespace rop::mem {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : t(dram::make_ddr4_1600_timings()) {
    org.channels = 1;
    org.ranks = 2;
    org.banks = 8;
  }

  /// Allocate a request in the arena and append its index to `q`.
  void add(std::vector<RequestIndex>& q, RequestId id, ReqType type,
           RankId rank, BankId bank, RowId row, ColumnId col = 0,
           Cycle arrival = 0) {
    Request r;
    r.id = id;
    r.type = type;
    r.coord = DramCoord{0, rank, bank, row, col};
    r.arrival = arrival;
    q.push_back(arena.alloc(r));
  }

  /// A scheduler view of `q`, indexed over the channel's current open
  /// rows.
  [[nodiscard]] QueueView view(const std::vector<RequestIndex>& q, int id,
                               const dram::Channel& ch) {
    RequestQueue& index = indices.emplace_back(org.ranks, org.banks);
    index.assign(q, arena, ch);
    return QueueView{&arena, &index, id};
  }

  static bool never_blocked(RankId, int) { return false; }

  dram::DramTimings t;
  dram::DramOrganization org;
  RequestArena arena;
  std::deque<RequestQueue> indices;  // stable addresses for the views
  Scheduler sched{SchedulerConfig{}};
};

TEST_F(SchedulerTest, EmptyQueuesPickNothing) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  QueueView views[] = {view(reads, 0, ch)};
  EXPECT_FALSE(sched.pick(views, ch, 0, never_blocked).has_value());
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 0, never_blocked),
            kNeverCycle);
}

TEST_F(SchedulerTest, ClosedBankGetsActivate) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0, ch)};
  const auto pick = sched.pick(views, ch, 0, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kActivate);
  EXPECT_EQ(pick->cmd.coord.row, 42u);
  EXPECT_FALSE(pick->services_request());
}

TEST_F(SchedulerTest, RowHitBeatsOlderRowMiss) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // Older request misses (bank 0 row 9); younger hits open row 7 in bank 0.
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9, 0, 0);
  add(reads, 2, ReqType::kRead, 0, 0, 7, 3, 1);
  QueueView views[] = {view(reads, 0, ch)};
  const auto pick = sched.pick(views, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(pick->cmd.request, 2u);
  EXPECT_TRUE(pick->services_request());
  EXPECT_EQ(pick->request, reads[1]);
}

TEST_F(SchedulerTest, RowConflictPrechargesWhenNoTakerRemains) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  QueueView views[] = {view(reads, 0, ch)};
  const auto pick = sched.pick(views, ch, t.tRAS, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kPrecharge);
}

TEST_F(SchedulerTest, OpenRowKeptWhileYoungerRequestStillHitsIt) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // Older conflicts with open row 7 but a younger request still wants it
  // and merely isn't timing-ready: the scheduler must not close the row
  // (it will pick the younger row-hit instead once ready; here the hit IS
  // ready so pass 1 takes it).
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  add(reads, 2, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0, ch)};
  const auto pick = sched.pick(views, ch, t.tRAS, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(pick->cmd.request, 2u);
}

TEST_F(SchedulerTest, QueuePriorityOrderRespected) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  std::vector<RequestIndex> prefetches;
  add(reads, 1, ReqType::kRead, 0, 0, 7);
  add(prefetches, 2, ReqType::kPrefetch, 0, 0, 7);
  // Both row-hit; the first view wins.
  QueueView views_rp[] = {view(reads, 0, ch), view(prefetches, 2, ch)};
  auto pick = sched.pick(views_rp, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.request, 1u);

  QueueView views_pr[] = {view(prefetches, 2, ch), view(reads, 0, ch)};
  pick = sched.pick(views_pr, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.request, 2u);
}

TEST_F(SchedulerTest, BlockedPredicateMasksRequests) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  add(reads, 2, ReqType::kRead, 1, 0, 42);
  QueueView views[] = {view(reads, 0, ch)};
  const auto rank0_blocked = [](RankId r, int) { return r == 0; };
  const auto pick = sched.pick(views, ch, 0, rank0_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.coord.rank, 1u);

  // With every request masked nothing can ever issue: the unblock point is
  // a separate controller event, so the scan reports "never".
  const auto all_blocked = [](RankId, int) { return true; };
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 0, all_blocked),
            kNeverCycle);
}

TEST_F(SchedulerTest, WriteGetsWriteCommand) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 2, 5, 0}, 0},
           0);
  std::vector<RequestIndex> writes;
  add(writes, 9, ReqType::kWrite, 0, 2, 5);
  QueueView views[] = {view(writes, 1, ch)};
  const auto pick = sched.pick(views, ch, t.tRCD, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kWrite);
  EXPECT_EQ(pick->queue_id, 1);
}

TEST_F(SchedulerTest, ActMemoRespectsSubarrays) {
  // Under subarrays ACT legality depends on the row's subarray, so a
  // verdict cached for one request must not answer a same-bank request
  // into another subarray.
  org.subarrays = 8;
  dram::Channel ch(t, org);
  const dram::Bank& bank = ch.rank(0).bank(0);
  const RowId sub0_row = bank.subarray_row(0);
  const RowId sub3_row = bank.subarray_row(3);
  ch.issue(dram::Command{dram::CmdType::kRefreshBank,
                         DramCoord{0, 0, 0, sub0_row, 0}, 0},
           100);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, sub0_row);  // older: locked subarray
  add(reads, 2, ReqType::kRead, 0, 0, sub3_row);  // younger: free subarray
  QueueView views[] = {view(reads, 0, ch)};
  const dram::Command act3{dram::CmdType::kActivate,
                           DramCoord{0, 0, 0, sub3_row, 0}, 2};
  ASSERT_TRUE(ch.can_issue(act3, 105));
  const auto pick = sched.pick(views, ch, 105, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kActivate);
  EXPECT_EQ(pick->cmd.request, 2u);
  EXPECT_EQ(pick->cmd.coord.row, sub3_row);
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 105, never_blocked), 106u);
}

// ---------------------------------------------------------------------------
// earliest_issue_cycle: the event-driven clock's scan must agree with pick()
// on frozen state — pick() returns nothing strictly before the reported
// cycle and returns a command exactly at it.

TEST_F(SchedulerTest, EarliestIssueClampsReadyCandidateToNextTick) {
  dram::Channel ch(t, org);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 42);
  QueueView views[] = {view(reads, 0, ch)};
  // The ACT is issuable immediately; on frozen state the next tick that can
  // act is now + 1.
  EXPECT_EQ(sched.earliest_issue_cycle(views, ch, 5, never_blocked), 6u);
}

TEST_F(SchedulerTest, EarliestIssueMatchesFirstPickForRowHit) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0, ch)};
  const Cycle when = sched.earliest_issue_cycle(views, ch, 0, never_blocked);
  EXPECT_EQ(when, Cycle{t.tRCD});
  for (Cycle c = 1; c < when; ++c) {
    EXPECT_FALSE(sched.pick(views, ch, c, never_blocked).has_value())
        << "pick() issued before the reported earliest cycle " << when
        << " at " << c;
  }
  const auto pick = sched.pick(views, ch, when, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
}

TEST_F(SchedulerTest, EarliestIssueMatchesFirstPickForPrecharge) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // Row conflict with no taker: the first possible command is the PRE at
  // tRAS expiry.
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  QueueView views[] = {view(reads, 0, ch)};
  const Cycle when = sched.earliest_issue_cycle(views, ch, 0, never_blocked);
  EXPECT_EQ(when, Cycle{t.tRAS});
  for (Cycle c = 1; c < when; ++c) {
    EXPECT_FALSE(sched.pick(views, ch, c, never_blocked).has_value());
  }
  const auto pick = sched.pick(views, ch, when, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kPrecharge);
}

TEST_F(SchedulerTest, EarliestIssueSuppressesPrechargeWhileTakerRemains) {
  dram::Channel ch(t, org);
  ch.issue(dram::Command{dram::CmdType::kActivate, DramCoord{0, 0, 0, 7, 0}, 0},
           0);
  // A conflicting read would want a PRE at tRAS, but a younger row-hit
  // keeps the row open: the next candidate is the hit's column command at
  // tRCD, exactly what pick() will choose.
  std::vector<RequestIndex> reads;
  add(reads, 1, ReqType::kRead, 0, 0, 9);
  add(reads, 2, ReqType::kRead, 0, 0, 7);
  QueueView views[] = {view(reads, 0, ch)};
  const Cycle when = sched.earliest_issue_cycle(views, ch, 0, never_blocked);
  EXPECT_EQ(when, Cycle{t.tRCD});
  const auto pick = sched.pick(views, ch, when, never_blocked);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->cmd.type, dram::CmdType::kRead);
  EXPECT_EQ(pick->cmd.request, 2u);
}


// The request queue against a flat reference: a fixed-seed run of pushes,
// mid-queue erases, order-preserving remove_if passes and open-row moves
// over 2 ranks x 8 banks. After every step the queue's order, per-bank
// lists, per-rank sizes, busy banks and open-row hit counts must match the
// reference, and a queue rebuilt from the order must equal the one kept
// step by step.

/// The queue's derived state, in a form two queues can be compared by.
struct QueueState {
  std::vector<RequestIndex> order;
  std::vector<std::vector<std::pair<RequestIndex, RowId>>> banks;
  std::vector<std::uint32_t> hits;
  std::vector<bool> busy;
  std::vector<std::uint32_t> rank_sizes;
  bool operator==(const QueueState&) const = default;
};

QueueState state_of(const RequestQueue& q, std::uint32_t ranks) {
  QueueState s;
  s.order = q.order();
  const std::size_t slots = static_cast<std::size_t>(ranks) * q.banks();
  s.busy.assign(slots, false);
  q.for_each_busy([&s](std::size_t slot) {
    s.busy[slot] = true;
    return false;
  });
  for (std::size_t slot = 0; slot < slots; ++slot) {
    auto& bank = s.banks.emplace_back();
    std::uint64_t last_age = 0;
    for (const RequestQueue::Entry& e : q.bank(slot)) {
      // Ages rise within a bank: its list is in age order.
      EXPECT_TRUE(bank.empty() || e.age > last_age);
      last_age = e.age;
      bank.emplace_back(e.request, e.row);
    }
    s.hits.push_back(q.open_row_hits(slot));
  }
  for (RankId r = 0; r < ranks; ++r) s.rank_sizes.push_back(q.rank_size(r));
  return s;
}

/// The same state recomputed from a flat queue and the channel.
QueueState reference_state(const std::vector<RequestIndex>& flat,
                           const RequestArena& arena, const dram::Channel& ch,
                           std::uint32_t banks) {
  QueueState s;
  s.order = flat;
  const std::size_t slots = static_cast<std::size_t>(ch.num_ranks()) * banks;
  s.banks.resize(slots);
  s.hits.assign(slots, 0);
  s.busy.assign(slots, false);
  s.rank_sizes.assign(ch.num_ranks(), 0);
  for (const RequestIndex idx : flat) {
    const DramCoord& c = arena[idx].coord;
    const std::size_t slot = static_cast<std::size_t>(c.rank) * banks + c.bank;
    s.banks[slot].emplace_back(idx, c.row);
    s.busy[slot] = true;
    ++s.rank_sizes[c.rank];
    if (ch.rank(c.rank).bank(c.bank).open_row() == c.row) ++s.hits[slot];
  }
  return s;
}

TEST_F(SchedulerTest, RequestQueueMatchesFlatReference) {
  dram::Channel ch(t, org);
  RequestQueue q(org.ranks, org.banks);
  std::vector<RequestIndex> flat;
  Rng rng(17);
  Cycle now = 0;
  RequestId id = 1;
  std::uint64_t removed_by_pass = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t action = rng.next_below(10);
    if (action < 4 && flat.size() < 48) {  // push
      Request r;
      r.id = id++;
      r.coord = DramCoord{0, static_cast<RankId>(rng.next_below(org.ranks)),
                          static_cast<BankId>(rng.next_below(org.banks)),
                          static_cast<RowId>(rng.next_below(4)), 0};
      const RequestIndex idx = arena.alloc(r);
      q.push(idx, r.coord, ch);
      flat.push_back(idx);
    } else if (action < 6 && !flat.empty()) {  // erase from anywhere
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(flat.size()));
      const RequestIndex idx = flat[static_cast<std::size_t>(at)];
      q.erase(idx, arena[idx].coord, ch);
      flat.erase(flat.begin() + at);
      arena.release(idx);
    } else if (action == 6) {  // remove_if over one rank, by request id
      const auto rank = static_cast<RankId>(rng.next_below(org.ranks));
      const std::uint64_t parity = rng.next_below(2);
      const auto pick = [&](RequestIndex idx) {
        return arena[idx].coord.rank == rank && arena[idx].id % 2 == parity;
      };
      std::vector<RequestIndex> asked;
      std::vector<RequestIndex> kept;
      for (const RequestIndex idx : flat) {
        if (!pick(idx)) kept.push_back(idx);
      }
      q.remove_if(arena, ch, [&](RequestIndex idx) {
        asked.push_back(idx);
        if (!pick(idx)) return false;
        arena.release(idx);  // allowed: the queue read the coord first
        ++removed_by_pass;
        return true;
      });
      ASSERT_EQ(asked, flat) << "step " << step;  // asked oldest first
      flat = kept;
    } else {  // time passes; a bank opens or closes a row
      ch.tick(++now);
      const auto r = static_cast<RankId>(rng.next_below(org.ranks));
      const auto b = static_cast<BankId>(rng.next_below(org.banks));
      const bool open = ch.rank(r).bank(b).state() == dram::BankState::kActive;
      const dram::Command cmd{
          open ? dram::CmdType::kPrecharge : dram::CmdType::kActivate,
          DramCoord{0, r, b, static_cast<RowId>(rng.next_below(4)), 0}, 0};
      if (ch.can_issue(cmd, now)) {
        ch.issue(cmd, now);
        q.set_open_row(r, b, ch.rank(r).bank(b).open_row());
      }
    }
    const QueueState kept = state_of(q, org.ranks);
    ASSERT_EQ(kept, reference_state(flat, arena, ch, org.banks))
        << "step " << step;
    RequestQueue rebuilt(org.ranks, org.banks);
    rebuilt.assign(q.order(), arena, ch);
    ASSERT_EQ(state_of(rebuilt, org.ranks), kept) << "step " << step;
  }
  // Every path ran, with rows open.
  EXPECT_GT(removed_by_pass, 50u);
  EXPECT_GT(id, 500u);
  EXPECT_GT(ch.events().activates, 50u);
}

}  // namespace
}  // namespace rop::mem
