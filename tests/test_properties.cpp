// Property-based parameterized suites over randomized inputs: timing
// legality of scheduled command streams, probability ranges, budget
// conservation, request conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "mem/memory_system.h"
#include "mem/scheduler.h"
#include "rop/pattern_profiler.h"
#include "rop/prediction_table.h"
#include "rop/rop_engine.h"

namespace rop {
namespace {

// --- Timing legality: replay random request loads through the controller
// and verify rank-level invariants on the issued command stream via a
// shadow checker fed from channel events. The channel itself aborts on
// illegal commands (ROP_ASSERT in Bank::issue), so simply surviving a
// randomized run is the property; these tests also check aggregate
// invariants afterwards.

struct LoadParams {
  std::uint64_t seed;
  std::uint32_t ranks;
  double write_fraction;
  Cycle mean_gap;
};

class RandomLoadTest : public ::testing::TestWithParam<LoadParams> {};

TEST_P(RandomLoadTest, RandomTrafficNeverTripsTimingAsserts) {
  const LoadParams p = GetParam();
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.ranks = p.ranks;
  StatRegistry stats;
  mem::MemorySystem mem(cfg, &stats);
  Rng rng(p.seed);

  std::uint64_t accepted_reads = 0;
  std::uint64_t completed_reads = 0;
  const std::uint64_t total_lines = cfg.org.total_lines();
  Cycle next_arrival = 0;
  const Cycle horizon = 4 * cfg.timings.tREFI;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now >= next_arrival) {
      const Address addr = rng.next_below(total_lines) << kLineShift;
      const bool is_write = rng.next_bool(p.write_fraction);
      const auto type = is_write ? mem::ReqType::kWrite : mem::ReqType::kRead;
      if (mem.can_accept(addr, type)) {
        const auto id = mem.enqueue(addr, type, 0, now);
        if (id && !is_write) ++accepted_reads;
      }
      next_arrival = now + rng.next_gap(static_cast<double>(p.mean_gap));
    }
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  // Drain the tail.
  for (Cycle now = horizon; completed_reads < accepted_reads &&
                            now < horizon + 100'000;
       ++now) {
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  EXPECT_EQ(completed_reads, accepted_reads);

  // Refresh average rate: one per tREFI per rank (within slack).
  const auto& rm = mem.controller(0).refresh_manager();
  for (RankId r = 0; r < p.ranks; ++r) {
    EXPECT_GE(rm.issued(r), 3u);
    EXPECT_LE(rm.issued(r), 6u);  // horizon boundaries + at most one in the tail
  }
  mem.finalize(horizon + 100'000);
  // Activity accounting is exhaustive for every rank.
  for (RankId r = 0; r < p.ranks; ++r) {
    const auto& a = mem.controller(0).channel().rank(r).activity();
    EXPECT_EQ(a.active_cycles + a.precharged_cycles + a.refresh_cycles,
              horizon + 100'000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loads, RandomLoadTest,
    ::testing::Values(LoadParams{1, 1, 0.0, 8}, LoadParams{2, 1, 0.3, 20},
                      LoadParams{3, 2, 0.5, 12}, LoadParams{4, 4, 0.25, 30},
                      LoadParams{5, 4, 0.9, 15}, LoadParams{6, 2, 0.1, 5}));

// --- ROP-enabled runs satisfy the same conservation and legality bounds.

class RandomRopLoadTest : public ::testing::TestWithParam<LoadParams> {};

TEST_P(RandomRopLoadTest, RopTrafficConservesRequests) {
  const LoadParams p = GetParam();
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.ranks = p.ranks;
  cfg.ctrl.policy = mem::RefreshPolicy::kRopDrain;
  StatRegistry stats;
  mem::MemorySystem mem(cfg, &stats);
  engine::RopConfig rc;
  rc.training_refreshes = 3;
  engine::RopEngine eng(rc, mem.controller(0), mem.address_map(), &stats);
  Rng rng(p.seed * 77);

  std::uint64_t accepted_reads = 0;
  std::uint64_t completed_reads = 0;
  std::uint64_t stream_line = 0;
  const Cycle horizon = 6 * cfg.timings.tREFI;
  Cycle next_arrival = 0;
  for (Cycle now = 0; now < horizon; ++now) {
    if (now >= next_arrival) {
      // Mix of streaming and random traffic exercises both prediction
      // success and failure paths.
      const Address addr = rng.next_bool(0.5)
                               ? (stream_line++ << kLineShift)
                               : rng.next_below(1 << 22) << kLineShift;
      const bool is_write = rng.next_bool(p.write_fraction);
      const auto type = is_write ? mem::ReqType::kWrite : mem::ReqType::kRead;
      if (mem.can_accept(addr, type)) {
        const auto id = mem.enqueue(addr, type, 0, now);
        if (id && !is_write) ++accepted_reads;
      }
      next_arrival = now + rng.next_gap(static_cast<double>(p.mean_gap));
    }
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  for (Cycle now = horizon; completed_reads < accepted_reads &&
                            now < horizon + 200'000;
       ++now) {
    mem.tick(now);
    completed_reads += mem.drain_completed().size();
  }
  EXPECT_EQ(completed_reads, accepted_reads);
  EXPECT_GE(eng.overall_hit_rate(), 0.0);
  EXPECT_LE(eng.overall_hit_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, RandomRopLoadTest,
    ::testing::Values(LoadParams{11, 1, 0.2, 10}, LoadParams{12, 1, 0.4, 25},
                      LoadParams{13, 2, 0.3, 18}, LoadParams{14, 4, 0.2, 40}));

// --- Never-late event bound: Controller::next_event_cycle(now) promises
// that every tick in (now, bound) is a no-op as long as nothing is
// enqueued in between; the event-driven loop skips exactly those ticks.
// Tick every cycle under random load and hold every policy to the promise
// on the observable state: the channel's command counts, completions, and
// each rank's refreshing flag and refresh phase.

using BoundParams =
    std::tuple<mem::RefreshPolicy, dram::RefreshMode, std::uint32_t>;

constexpr mem::RefreshPolicy kAllPolicies[] = {
    mem::RefreshPolicy::kNoRefresh, mem::RefreshPolicy::kAutoRefresh,
    mem::RefreshPolicy::kPerBank,   mem::RefreshPolicy::kElastic,
    mem::RefreshPolicy::kPausing,   mem::RefreshPolicy::kRopDrain,
    mem::RefreshPolicy::kDarp,      mem::RefreshPolicy::kSarp,
    mem::RefreshPolicy::kHira};

std::string bound_case_name(
    const ::testing::TestParamInfo<BoundParams>& info) {
  static constexpr const char* kPolicy[] = {
      "NoRefresh", "Auto", "PerBank", "Elastic", "Pausing",
      "Rop",       "Darp", "Sarp",    "Hira"};
  const auto [policy, fgr, ranks] = info.param;
  return std::string(kPolicy[static_cast<int>(policy)]) + "_" +
         std::to_string(static_cast<int>(fgr)) + "x_" +
         std::to_string(ranks) + "rank";
}

class EventBoundProperty : public ::testing::TestWithParam<BoundParams> {};

TEST_P(EventBoundProperty, NoTickBeforeTheBoundChangesState) {
  const auto [policy, fgr, ranks] = GetParam();
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings(fgr);
  cfg.org.ranks = ranks;
  cfg.ctrl.policy = policy;
  if (mem::policy_uses_subarrays(policy)) cfg.org.subarrays = 8;
  StatRegistry stats;
  mem::MemorySystem memory(cfg, &stats);
  // ROP gets its engine, so the prefetch hold and the SRAM buffer's
  // reentrant completions are exercised too.
  std::unique_ptr<engine::RopEngine> eng;
  if (policy == mem::RefreshPolicy::kRopDrain) {
    engine::RopConfig rc;
    rc.training_refreshes = 4;
    rc.eval_period_refreshes = 8;
    eng = std::make_unique<engine::RopEngine>(rc, memory.controller(0),
                                              memory.address_map(), &stats);
  }
  const mem::Controller& ctrl = memory.controller(0);

  struct Observed {
    dram::ChannelEvents ev;
    std::vector<bool> refreshing;
    std::vector<std::uint8_t> phase;
    bool operator==(const Observed& o) const {
      return ev.activates == o.ev.activates &&
             ev.precharges == o.ev.precharges && ev.reads == o.ev.reads &&
             ev.writes == o.ev.writes && ev.refreshes == o.ev.refreshes &&
             ev.bank_refreshes == o.ev.bank_refreshes &&
             ev.refresh_segments == o.ev.refresh_segments &&
             refreshing == o.refreshing && phase == o.phase;
    }
  };
  const auto observe = [&ctrl, ranks = ranks] {
    Observed o{ctrl.channel().events(), {}, {}};
    for (RankId r = 0; r < ranks; ++r) {
      o.refreshing.push_back(ctrl.rank_refreshing(r));
      o.phase.push_back(ctrl.refresh_phase(r));
    }
    return o;
  };

  // A long saturating stretch first drives the postponing policies to
  // their JEDEC budget; then bursty and idle stretches alternate, so
  // elastic, pausing and DARP act on their own and long skips happen.
  Rng rng(0x5eed ^ (static_cast<std::uint64_t>(policy) << 8) ^
          (static_cast<std::uint64_t>(fgr) << 4) ^ ranks);
  const Cycle trefi = dram::make_ddr4_1600_timings().tREFI;
  const Cycle horizon = 12 * trefi;
  Cycle covered_until = 0;  // latest bound since the last change or enqueue
  Observed before = observe();
  std::uint64_t changes = 0;
  bool skipped = false;
  for (Cycle now = 0; now < horizon; ++now) {
    const double load =
        now < 9 * trefi ? 0.5 : (now / 3000) % 2 == 0 ? 0.06 : 0.0;
    bool enqueued = false;
    if (rng.next_bool(load)) {
      const Address addr = rng.next_below(1u << 22) << kLineShift;
      const auto type =
          rng.next_bool(0.3) ? mem::ReqType::kWrite : mem::ReqType::kRead;
      if (memory.can_accept(addr, type)) {
        enqueued = memory.enqueue(addr, type, 0, now).has_value();
      }
    }
    memory.tick(now);
    const bool completed = !memory.drain_completed().empty();
    const Observed after = observe();
    const bool changed = completed || !(after == before);
    if (changed && !enqueued) {
      ASSERT_LE(covered_until, now)
          << "a tick the event bound promised to be a no-op changed state";
    }
    if (changed || enqueued) covered_until = 0;
    const Cycle bound = ctrl.next_event_cycle(now);
    ASSERT_GT(bound, now);
    covered_until = std::max(covered_until, bound);
    changes += changed ? 1 : 0;
    skipped = skipped || bound > now + 1;
    before = after;
  }
  EXPECT_GT(changes, 0u);
  EXPECT_TRUE(skipped) << "the bound never allowed a skip";
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicy, EventBoundProperty,
    ::testing::Combine(::testing::ValuesIn(kAllPolicies),
                       ::testing::Values(dram::RefreshMode::k1x,
                                         dram::RefreshMode::k2x,
                                         dram::RefreshMode::k4x),
                       ::testing::Values(1u, 2u)),
    bound_case_name);

// --- Exact scheduler bound: Scheduler::earliest_issue_cycle(now) names the
// first cycle after `now` at which pick() over the same frozen queues
// returns a command. Drive the channel into a random state with a random
// legal command history (open rows, recovery windows, tFAW slots, bus
// turnarounds, whole-rank, whole-bank and subarray refreshes), queue random
// reads, writes and prefetches, then tick cycle by cycle and hold pick()
// to the bound: empty before it, non-empty (and legal) at it.

using SchedulerParams = std::tuple<std::uint32_t, std::uint32_t>;

std::string scheduler_case_name(
    const ::testing::TestParamInfo<SchedulerParams>& info) {
  const auto [subarrays, ranks] = info.param;
  return std::to_string(subarrays) + "sub_" + std::to_string(ranks) + "rank";
}

/// Rows cluster on three per subarray; one in three lands in a subarray
/// still locked by its refresh at `c`, if the bank has one.
RowId random_row(Rng& rng, const dram::Bank& bank, Cycle c) {
  auto sub = static_cast<std::uint32_t>(rng.next_below(bank.subarrays()));
  if (const auto locked = bank.refreshing_subarray(c);
      locked && rng.next_bool(1.0 / 3)) {
    sub = *locked;
  }
  return bank.subarray_row(sub) + static_cast<RowId>(rng.next_below(3));
}

/// Tick `ch` through cycles [from, to], issuing a random legal command on
/// about 40% of them: open rows, recovery windows, tFAW slots, bus
/// turnarounds, whole-rank, whole-bank and subarray refreshes. Returns the
/// ACTs and PREs issued, the commands that move open rows.
std::vector<dram::Command> random_history(Rng& rng, dram::Channel& ch,
                                          const dram::DramOrganization& org,
                                          Cycle from, Cycle to) {
  constexpr dram::CmdType kHistory[] = {
      dram::CmdType::kActivate,    dram::CmdType::kActivate,
      dram::CmdType::kPrecharge,   dram::CmdType::kRead,
      dram::CmdType::kWrite,       dram::CmdType::kRefreshBank,
      dram::CmdType::kRefreshBank, dram::CmdType::kRefresh};
  std::vector<dram::Command> row_moves;
  for (Cycle c = from; c <= to; ++c) {
    ch.tick(c);
    if (!rng.next_bool(0.4)) continue;
    const auto r = static_cast<RankId>(rng.next_below(org.ranks));
    const auto b = static_cast<BankId>(rng.next_below(org.banks));
    const dram::Bank& bank = ch.rank(r).bank(b);
    const dram::CmdType type = kHistory[rng.next_below(std::size(kHistory))];
    // Whole-rank REF is rare, and only in whole-bank geometry: no policy
    // mixes it with subarray refresh (RankRefreshTest pins that rule).
    if (type == dram::CmdType::kRefresh &&
        (org.subarrays > 1 || !rng.next_bool(0.2))) {
      continue;
    }
    const bool column =
        type == dram::CmdType::kRead || type == dram::CmdType::kWrite;
    const RowId row = column && bank.open_row() ? *bank.open_row()
                                                : random_row(rng, bank, c);
    const dram::Command cmd{type, DramCoord{0, r, b, row, 0}, 0};
    if (!ch.can_issue(cmd, c)) continue;
    ch.issue(cmd, c);
    if (type == dram::CmdType::kActivate ||
        type == dram::CmdType::kPrecharge) {
      row_moves.push_back(cmd);
    }
  }
  return row_moves;
}

/// A random request of queue `k` (0 read, 1 write, 2 prefetch) that hits
/// its bank's open row 40% of the time when one is open.
mem::Request random_request(Rng& rng, const dram::Channel& ch,
                            const dram::DramOrganization& org, int k,
                            RequestId id, Cycle now) {
  constexpr mem::ReqType kKinds[3] = {mem::ReqType::kRead,
                                      mem::ReqType::kWrite,
                                      mem::ReqType::kPrefetch};
  mem::Request req;
  req.id = id;
  req.type = kKinds[k];
  const auto r = static_cast<RankId>(rng.next_below(org.ranks));
  const auto b = static_cast<BankId>(rng.next_below(org.banks));
  const dram::Bank& bank = ch.rank(r).bank(b);
  const RowId row = bank.open_row() && rng.next_bool(0.4)
                        ? *bank.open_row()
                        : random_row(rng, bank, now);
  req.coord = DramCoord{0, r, b, row, 0};
  return req;
}

class SchedulerBoundProperty
    : public ::testing::TestWithParam<SchedulerParams> {};

TEST_P(SchedulerBoundProperty, PickIsEmptyBeforeTheBoundAndReadyAtIt) {
  const auto [subarrays, ranks] = GetParam();
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = ranks;
  org.banks = 4;  // few banks: same-bank requests meet often
  org.subarrays = subarrays;
  const mem::Scheduler sched{mem::SchedulerConfig{}};
  std::uint32_t waited = 0;  // trials whose bound lay beyond now + 1

  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    Rng rng(trial * 1000 + subarrays * 10 + ranks);
    dram::Channel ch(t, org);
    const Cycle now = 20 + rng.next_below(400);
    random_history(rng, ch, org, 0, now);

    mem::RequestArena arena;
    std::vector<mem::RequestIndex> queues[3];
    RequestId id = 1;
    for (int k = 0; k < 3; ++k) {
      // Short queues are the common case: a ready candidate elsewhere
      // would mask a candidate the bound and pick() disagree on.
      const std::uint64_t n =
          rng.next_below(1 + rng.next_below(k == 0 ? 10 : 5));
      for (std::uint64_t i = 0; i < n; ++i) {
        queues[k].push_back(
            arena.alloc(random_request(rng, ch, org, k, id++, now)));
      }
    }
    std::deque<mem::RequestQueue> indices;
    const auto view = [&](int k) {
      indices.emplace_back(org.ranks, org.banks).assign(queues[k], arena, ch);
      return mem::QueueView{&arena, &indices.back(), k};
    };
    // Priority order as the controller builds it: reads then writes, or
    // writes first while draining; prefetches last.
    std::vector<mem::QueueView> views;
    const bool draining = rng.next_bool(0.3);
    views.push_back(view(draining ? 1 : 0));
    views.push_back(view(draining ? 0 : 1));
    views.push_back(view(2));
    const std::uint64_t blocked_ranks = rng.next_below(4) == 0 ? 1 : 0;
    const auto blocked = [blocked_ranks](RankId r, int) {
      return ((blocked_ranks >> r) & 1u) != 0;
    };

    const Cycle bound = sched.earliest_issue_cycle(views, ch, now, blocked);
    ASSERT_GT(bound, now);
    if (bound != kNeverCycle && bound > now + 1) ++waited;
    const Cycle last = bound == kNeverCycle ? now + 2000 : bound;
    for (Cycle c = now + 1; c <= last; ++c) {
      ch.tick(c);
      const auto pick = sched.pick(views, ch, c, blocked);
      ASSERT_EQ(pick.has_value(), c == bound)
          << "trial " << trial << ": bound " << bound << " from " << now
          << ", pick " << (pick ? "issued" : "was empty") << " at " << c;
      if (pick) {
        ASSERT_TRUE(ch.can_issue(pick->cmd, c)) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(waited, 0u) << "no trial had to wait for its bound";
}

INSTANTIATE_TEST_SUITE_P(Geometries, SchedulerBoundProperty,
                         ::testing::Combine(::testing::Values(1u, 8u),
                                            ::testing::Values(1u, 2u)),
                         scheduler_case_name);

// --- Reference FR-FCFS oracle: the indexed scheduler against an index-free,
// memo-free pick and bound written straight from the FR-FCFS rule over the
// flat queues. Each trial drives a channel through a random history and
// runs a random sequence of enqueues, removals (SRAM-buffer service and
// prefetch drops take requests from the middle of a queue) and scheduled
// issues, keeping the per-bank indices up to date the way the controller
// does, and holds every pick and bound to the oracle's under random views
// (drain and no-drain order, writes in or out of the view) and random
// (rank, queue) block masks.

/// One queue as the oracle sees it: its requests, oldest first.
struct FlatQueue {
  const std::vector<mem::RequestIndex>* requests;
  int id;
};

/// The earliest issue cycle of request `req`'s candidate command under the
/// FR-FCFS rule, and the command: the column command on an open-row hit;
/// an ACT on a precharged or refreshing bank (a refreshing bank's no
/// earlier than `now + 1`); a PRE on a row conflict, never issuable while
/// any request in `queues`, blocked or not, hits the open row.
std::pair<dram::Command, Cycle> reference_candidate(
    std::span<const FlatQueue> queues, const mem::RequestArena& arena,
    const dram::Channel& ch, Cycle now, const mem::Request& req) {
  const dram::Bank& bank = ch.rank(req.coord.rank).bank(req.coord.bank);
  if (bank.state() == dram::BankState::kActive) {
    if (*bank.open_row() == req.coord.row) {
      const dram::Command col{req.type == mem::ReqType::kWrite
                                  ? dram::CmdType::kWrite
                                  : dram::CmdType::kRead,
                              req.coord, req.id};
      return {col, ch.earliest_issue(col)};
    }
    const dram::Command pre{dram::CmdType::kPrecharge, req.coord, 0};
    for (const FlatQueue& q : queues) {
      for (const mem::RequestIndex idx : *q.requests) {
        const DramCoord& c = arena[idx].coord;
        if (c.rank == req.coord.rank && c.bank == req.coord.bank &&
            c.row == *bank.open_row()) {
          return {pre, kNeverCycle};
        }
      }
    }
    return {pre, ch.earliest_issue(pre)};
  }
  const dram::Command act{dram::CmdType::kActivate, req.coord, req.id};
  Cycle when = ch.earliest_issue(act);
  if (bank.state() == dram::BankState::kRefreshing) {
    when = std::max(when, now + 1);
  }
  return {act, when};
}

/// The first ready column command in (queue, age) order; failing that, the
/// first ready candidate of any kind.
template <typename Blocked>
std::optional<mem::SchedulerPick> reference_pick(
    std::span<const FlatQueue> queues, const mem::RequestArena& arena,
    const dram::Channel& ch, Cycle now, const Blocked& blocked) {
  for (const bool columns_only : {true, false}) {
    for (const FlatQueue& q : queues) {
      for (const mem::RequestIndex idx : *q.requests) {
        const mem::Request& req = arena[idx];
        if (blocked(req.coord.rank, q.id)) continue;
        const auto [cmd, when] =
            reference_candidate(queues, arena, ch, now, req);
        if (columns_only && !cmd.is_column()) continue;
        if (when <= now) return mem::SchedulerPick{cmd, q.id, idx};
      }
    }
  }
  return std::nullopt;
}

/// The minimum over every unblocked candidate of its earliest issue cycle,
/// clamped to `now + 1`.
template <typename Blocked>
Cycle reference_bound(std::span<const FlatQueue> queues,
                      const mem::RequestArena& arena, const dram::Channel& ch,
                      Cycle now, const Blocked& blocked) {
  Cycle best = kNeverCycle;
  for (const FlatQueue& q : queues) {
    for (const mem::RequestIndex idx : *q.requests) {
      const mem::Request& req = arena[idx];
      if (blocked(req.coord.rank, q.id)) continue;
      const Cycle when =
          reference_candidate(queues, arena, ch, now, req).second;
      best = std::min(best, std::max(when, now + 1));
    }
  }
  return best;
}

class SchedulerOracleProperty
    : public ::testing::TestWithParam<SchedulerParams> {};

TEST_P(SchedulerOracleProperty, IndexedPickAndBoundMatchTheReference) {
  const auto [subarrays, ranks] = GetParam();
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = ranks;
  org.banks = 4;
  org.subarrays = subarrays;
  const mem::Scheduler sched{mem::SchedulerConfig{}};
  std::uint64_t picks = 0;
  std::uint64_t kinds[6] = {};  // picks per command type

  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    Rng rng(trial * 7919 + subarrays * 10 + ranks);
    dram::Channel ch(t, org);
    Cycle now = 20 + rng.next_below(200);
    random_history(rng, ch, org, 0, now);

    mem::RequestArena arena;
    std::vector<mem::RequestIndex> queues[3];
    std::vector<mem::RequestQueue> indices(3,
                                           mem::RequestQueue(ranks, org.banks));
    const auto remove = [&](int k, std::size_t at) {
      const mem::RequestIndex idx = queues[k][at];
      indices[k].erase(idx, arena[idx].coord, ch);
      queues[k].erase(queues[k].begin() + static_cast<std::ptrdiff_t>(at));
      arena.release(idx);
    };
    const auto moved_row = [&](const dram::Command& cmd) {
      const auto open = ch.rank(cmd.coord.rank).bank(cmd.coord.bank).open_row();
      for (mem::RequestQueue& index : indices) {
        index.set_open_row(cmd.coord.rank, cmd.coord.bank, open);
      }
    };
    RequestId id = 1;

    for (int step = 0; step < 60; ++step) {
      const std::uint64_t action = rng.next_below(10);
      if (action < 4) {  // enqueue
        const auto k = static_cast<int>(rng.next_below(3));
        if (queues[k].size() >= 12) continue;
        const mem::Request req = random_request(rng, ch, org, k, id++, now);
        const mem::RequestIndex idx = arena.alloc(req);
        queues[k].push_back(idx);
        indices[k].push(idx, req.coord, ch);
        continue;
      }
      if (action == 4) {  // removal from the middle of a queue
        const auto k = static_cast<int>(rng.next_below(3));
        if (!queues[k].empty()) remove(k, rng.next_below(queues[k].size()));
        continue;
      }
      if (action == 5) {  // time passes, other commands land
        const Cycle to = now + 1 + rng.next_below(30);
        for (const dram::Command& cmd :
             random_history(rng, ch, org, now + 1, to)) {
          moved_row(cmd);
        }
        now = to;
        continue;
      }
      // Schedule: compare with the oracle, then issue its pick.
      const bool draining = rng.next_bool(0.4);
      std::vector<int> order;
      if (draining) {
        order = {1, 0, 2};
      } else {
        order = {0};
        if (rng.next_bool(0.5)) order.push_back(1);
        order.push_back(2);
      }
      std::vector<mem::QueueView> views;
      std::vector<FlatQueue> flat;
      for (const int k : order) {
        views.push_back(mem::QueueView{&arena, &indices[k], k});
        flat.push_back(FlatQueue{&queues[k], k});
      }
      const std::uint64_t mask =
          rng.next_bool(0.5) ? rng.next_below(std::uint64_t{1} << (3 * ranks))
                             : 0;
      const auto blocked = [mask, ranks](RankId r, int k) {
        return ((mask >> (static_cast<std::uint32_t>(k) * ranks + r)) & 1u) !=
               0;
      };
      const std::string where = "trial " + std::to_string(trial) + " step " +
                                std::to_string(step) + " at " +
                                std::to_string(now);
      for (int k = 0; k < 3; ++k) {
        ASSERT_EQ(indices[k].order(), queues[k]) << where;
      }
      ASSERT_EQ(sched.earliest_issue_cycle(views, ch, now, blocked),
                reference_bound(flat, arena, ch, now, blocked))
          << where;
      const auto want = reference_pick(flat, arena, ch, now, blocked);
      const auto got = sched.pick(views, ch, now, blocked);
      ASSERT_EQ(got.has_value(), want.has_value()) << where;
      if (!want) continue;
      ASSERT_EQ(got->cmd.type, want->cmd.type) << where;
      ASSERT_EQ(got->cmd.coord, want->cmd.coord) << where;
      ASSERT_EQ(got->cmd.request, want->cmd.request) << where;
      ASSERT_EQ(got->queue_id, want->queue_id) << where;
      ASSERT_EQ(got->request, want->request) << where;
      ASSERT_TRUE(ch.can_issue(want->cmd, now)) << where;
      ch.issue(want->cmd, now);
      ch.tick(++now);  // one command per cycle
      ++picks;
      ++kinds[static_cast<std::size_t>(want->cmd.type)];
      if (want->cmd.is_column()) {
        const auto& q = queues[want->queue_id];
        remove(want->queue_id, static_cast<std::size_t>(
                                   std::ranges::find(q, want->request) -
                                   q.begin()));
      } else {
        moved_row(want->cmd);
      }
    }
  }
  // Every kind of pick was exercised.
  EXPECT_GT(picks, 1000u);
  EXPECT_GT(kinds[static_cast<std::size_t>(dram::CmdType::kActivate)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(dram::CmdType::kPrecharge)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(dram::CmdType::kRead)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(dram::CmdType::kWrite)], 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, SchedulerOracleProperty,
                         ::testing::Combine(::testing::Values(1u, 8u),
                                            ::testing::Values(1u, 2u)),
                         scheduler_case_name);

// --- Prediction table properties over random access sequences.

class TableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableProperty, BudgetsNeverExceedCapacityAndOffsetsInRange) {
  Rng rng(GetParam());
  const std::uint64_t bank_lines = 1 << 16;
  engine::PredictionTable t(8, bank_lines);
  for (int i = 0; i < 3000; ++i) {
    t.on_access(static_cast<BankId>(rng.next_below(8)),
                rng.next_below(bank_lines), i);
    if (i % 97 == 0) {
      const std::uint32_t cap = 1 + static_cast<std::uint32_t>(
                                        rng.next_below(128));
      const auto preds = t.predict(cap, rng.next_bool(0.5),
                                   static_cast<std::uint32_t>(
                                       rng.next_below(20)),
                                   i, rng.next_below(2) * 500);
      std::uint32_t total = 0;
      for (const auto& bp : preds) {
        total += bp.budget;
        EXPECT_LE(bp.offsets.size(), bp.budget);
        for (const auto off : bp.offsets) {
          EXPECT_LT(off, bank_lines);
        }
      }
      EXPECT_LE(total, cap);
    }
    if (i % 501 == 0) t.decay();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Correlator probability properties over random timelines.

class CorrelatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorrelatorProperty, ProbabilitiesAlwaysInUnitInterval) {
  Rng rng(GetParam() * 1337);
  engine::WindowCorrelator wc(500 + rng.next_below(2000), 2);
  Cycle now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += 1 + rng.next_below(300);
    const RankId rank = static_cast<RankId>(rng.next_below(2));
    if (rng.next_bool(0.2)) {
      wc.on_refresh(rank, now);
    } else {
      wc.on_request(rank, now, rng.next_bool(0.7));
    }
  }
  wc.finalize();
  const auto& c = wc.counts();
  EXPECT_GE(c.lambda(), 0.0);
  EXPECT_LE(c.lambda(), 1.0);
  EXPECT_GE(c.beta(), 0.0);
  EXPECT_LE(c.beta(), 1.0);
  EXPECT_GE(c.e1_fraction() + c.e2_fraction(), 0.0);
  EXPECT_LE(c.e1_fraction() + c.e2_fraction(), 1.0);
  // Every refresh was categorized exactly once.
  EXPECT_GT(c.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rop
