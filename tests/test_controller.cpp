// Controller integration tests: request lifecycle, refresh policies,
// forwarding, and the listener hook protocol.
#include <gtest/gtest.h>

#include <map>

#include "check/sim_checker.h"
#include "common/rng.h"
#include "common/snapshot_io.h"
#include "mem/controller.h"

namespace rop::mem {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : t(dram::make_ddr4_1600_timings()) {
    org.channels = 1;
    org.ranks = 1;
    org.banks = 8;
  }

  std::unique_ptr<Controller> make(ControllerConfig cfg = {}) {
    return std::make_unique<Controller>(0, t, org, cfg, &stats);
  }

  Request read_req(Address line, RankId rank = 0, BankId bank = 0,
                   RowId row = 0, ColumnId col = 0) {
    Request r;
    r.id = next_id_++;
    r.type = ReqType::kRead;
    r.line_addr = line;
    r.coord = DramCoord{0, rank, bank, row, col};
    return r;
  }
  Request write_req(Address line, RankId rank = 0, BankId bank = 0,
                    RowId row = 0, ColumnId col = 0) {
    Request r = read_req(line, rank, bank, row, col);
    r.type = ReqType::kWrite;
    return r;
  }

  /// Tick until `pred` or the bound is hit; returns cycles consumed.
  template <typename Pred>
  Cycle run_until(Controller& c, Cycle from, Cycle bound, Pred pred) {
    Cycle now = from;
    for (; now < bound && !pred(); ++now) c.tick(now);
    return now;
  }

  dram::DramTimings t;
  dram::DramOrganization org;
  StatRegistry stats;
  RequestId next_id_ = 1;
};

TEST_F(ControllerTest, ReadCompletesWithDramLatency) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(read_req(0x1000, 0, 0, 5, 3), 0));
  std::vector<Request> done;
  run_until(*c, 0, 1000, [&] {
    auto d = c->drain_completed();
    done.insert(done.end(), d.begin(), d.end());
    return !done.empty();
  });
  ASSERT_EQ(done.size(), 1u);
  // ACT at ~1, RD at ~1+tRCD, data done CL+tBL later.
  EXPECT_GE(done[0].completion, t.tRCD + t.CL + t.tBL);
  EXPECT_LE(done[0].completion, t.tRCD + t.CL + t.tBL + 8);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kDram);
}

TEST_F(ControllerTest, WritesArePostedAndRetireSilently) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x2000, 0, 1, 2, 0), 0));
  run_until(*c, 0, 2000, [&] { return c->idle(); });
  EXPECT_TRUE(c->idle());
  EXPECT_EQ(stats.counter_value("mem.writes_issued"), 1u);
  EXPECT_TRUE(c->drain_completed().empty());
}

TEST_F(ControllerTest, ReadAfterWriteForwards) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x3000, 0, 0, 1, 1), 0));
  ASSERT_TRUE(c->enqueue(read_req(0x3000, 0, 0, 1, 1), 0));
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kWriteForward);
  EXPECT_EQ(done[0].completion, 1u);
}

TEST_F(ControllerTest, DuplicateWritesCoalesce) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x4000), 0));
  ASSERT_TRUE(c->enqueue(write_req(0x4000), 0));
  EXPECT_EQ(stats.counter_value("mem.write_coalesced"), 1u);
  EXPECT_EQ(c->write_queue_depth(), 1u);
}

TEST_F(ControllerTest, ReadQueueCapacityEnforced) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  cfg.sched.read_queue_capacity = 4;
  auto c = make(cfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c->can_accept(ReqType::kRead));
    ASSERT_TRUE(c->enqueue(read_req(0x100 * (i + 1), 0, 0, i), 0));
  }
  EXPECT_FALSE(c->can_accept(ReqType::kRead));
  EXPECT_FALSE(c->enqueue(read_req(0x9999, 0, 0, 7), 0));
}

TEST_F(ControllerTest, AutoRefreshIssuesOnCadence) {
  auto c = make();  // refresh enabled, baseline policy
  const Cycle horizon = 5 * t.tREFI;
  run_until(*c, 0, horizon, [] { return false; });
  // Boundaries at tREFI, ..., 4 x tREFI inside the horizon (the first
  // tREFI interval must elapse before a refresh comes due).
  EXPECT_EQ(c->refresh_manager().issued(0), 4u);
  EXPECT_EQ(stats.counter_value("mem.refreshes"), 4u);
}

TEST_F(ControllerTest, NoRefreshModeNeverRefreshes) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  run_until(*c, 0, 3 * t.tREFI, [] { return false; });
  EXPECT_EQ(stats.counter_value("mem.refreshes"), 0u);
}

TEST_F(ControllerTest, BaselineBlocksDemandDuringRefresh) {
  auto c = make();
  // Enqueue right at the first refresh boundary (tREFI): the read must
  // wait out tRFC.
  const Cycle boundary = t.tREFI;
  ASSERT_TRUE(c->enqueue(read_req(0x5000, 0, 0, 3), boundary));
  std::vector<Request> done;
  run_until(*c, boundary, boundary + 3000, [&] {
    auto d = c->drain_completed();
    done.insert(done.end(), d.begin(), d.end());
    return !done.empty();
  });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GE(done[0].completion, boundary + static_cast<Cycle>(t.tRFC));
}

TEST_F(ControllerTest, RankLockedAndUnavailableTrackPhases) {
  auto c = make();
  EXPECT_FALSE(c->rank_locked(0));
  c->tick(t.tREFI);  // refresh due at tREFI: baseline seals immediately
  // Either the REF went out on the first tick (rank refreshing) or the
  // rank is sealing; both count as unavailable.
  EXPECT_TRUE(c->rank_unavailable(0));
}

/// Listener that records the hook sequence.
class RecordingListener final : public ControllerListener {
 public:
  std::optional<Cycle> on_enqueue(const Request& req, Cycle) override {
    enqueued.push_back(req.line_addr);
    return std::nullopt;
  }
  void on_demand_serviced(const Request& req, Cycle) override {
    serviced.push_back(req.line_addr);
  }
  void on_rank_locked(RankId rank, Cycle now) override {
    locks.emplace_back(rank, now);
  }
  void on_refresh_issued(RankId rank, Cycle start, Cycle done) override {
    refreshes.emplace_back(rank, start);
    EXPECT_GT(done, start);
  }
  void on_prefetch_filled(const Request& req, Cycle) override {
    fills.push_back(req.line_addr);
  }
  void on_tick(Cycle) override { ++ticks; }

  std::vector<Address> enqueued, serviced, fills;
  std::vector<std::pair<RankId, Cycle>> locks, refreshes;
  std::uint64_t ticks = 0;
};

TEST_F(ControllerTest, ListenerSeesLockBeforeRefresh) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kRopDrain;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  run_until(*c, 0, 2 * t.tREFI, [] { return false; });
  ASSERT_GE(listener.refreshes.size(), 1u);
  ASSERT_GE(listener.locks.size(), 1u);
  EXPECT_LE(listener.locks[0].second, listener.refreshes[0].second);
  EXPECT_GT(listener.ticks, 0u);
}

TEST_F(ControllerTest, PrefetchFillsFlowThroughListener) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  Request pf = read_req(0x7000, 0, 0, 9, 2);
  pf.type = ReqType::kPrefetch;
  ASSERT_TRUE(c->enqueue_prefetch(pf, 0));
  run_until(*c, 0, 1000, [&] { return listener.fills.size() == 1; });
  ASSERT_EQ(listener.fills.size(), 1u);
  EXPECT_EQ(listener.fills[0], 0x7000u);
  // Prefetch fills never surface as completed demand.
  EXPECT_TRUE(c->drain_completed().empty());
}

TEST_F(ControllerTest, StalePrefetchFillDropped) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  Request pf = read_req(0x8000, 0, 0, 9, 2);
  pf.type = ReqType::kPrefetch;
  ASSERT_TRUE(c->enqueue_prefetch(pf, 0));
  // Keep the read queue non-empty so the write can never issue: writes are
  // only scheduled when no read work exists. The prefetch still slips into
  // command-bus gaps left by the paced read stream.
  Cycle now = 0;
  bool write_sent = false;
  for (; now < 4000 && listener.fills.empty() &&
         stats.counter_value("rop.prefetch_dropped_stale") == 0;
       ++now) {
    if (now % 6 == 0 && c->can_accept(ReqType::kRead)) {
      c->enqueue(read_req(0x100000 + (now << 6), 0, 2, 1,
                          static_cast<ColumnId>(now / 6 % 128)),
                 now);
    }
    if (!write_sent && stats.counter_value("rop.prefetch_issued") == 1) {
      // Prefetch is in flight: the write to the same line supersedes it.
      ASSERT_TRUE(c->enqueue(write_req(0x8000, 0, 1, 1), now));
      write_sent = true;
    }
    c->tick(now);
    c->drain_completed();
  }
  EXPECT_TRUE(write_sent);
  EXPECT_TRUE(listener.fills.empty());
  EXPECT_EQ(stats.counter_value("rop.prefetch_dropped_stale"), 1u);
}

// Companion to StalePrefetchFillDropped: once the fill is dropped, a read
// to the line must see the newest data via write-forwarding — it can never
// be SRAM-served, because no fill was ever delivered to the buffer.
TEST_F(ControllerTest, ReadAfterStaleDropForwardsNeverSramServed) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  RecordingListener listener;
  c->set_listener(&listener);
  Request pf = read_req(0x8000, 0, 0, 9, 2);
  pf.type = ReqType::kPrefetch;
  ASSERT_TRUE(c->enqueue_prefetch(pf, 0));
  Cycle now = 0;
  bool write_sent = false;
  for (; now < 4000 &&
         stats.counter_value("rop.prefetch_dropped_stale") == 0;
       ++now) {
    if (now % 6 == 0 && c->can_accept(ReqType::kRead)) {
      c->enqueue(read_req(0x100000 + (now << 6), 0, 2, 1,
                          static_cast<ColumnId>(now / 6 % 128)),
                 now);
    }
    if (!write_sent && stats.counter_value("rop.prefetch_issued") == 1) {
      ASSERT_TRUE(c->enqueue(write_req(0x8000, 0, 1, 1), now));
      write_sent = true;
    }
    c->tick(now);
    c->drain_completed();
  }
  ASSERT_EQ(stats.counter_value("rop.prefetch_dropped_stale"), 1u);
  EXPECT_TRUE(listener.fills.empty());
  // The superseding write is still queued (reads starve it), so the read
  // forwards from the write queue at enqueue time.
  ASSERT_TRUE(c->enqueue(read_req(0x8000, 0, 1, 1), now));
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].line_addr, 0x8000u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kWriteForward);
}

// Writes are posted and leave the write index the moment their WR command
// issues. A write to the same line arriving while the older one is mid-issue
// (burst still on the bus) must become a NEW queue entry, not coalesce into
// a no-longer-queued write — otherwise its data would be silently lost.
TEST_F(ControllerTest, WriteAfterOlderWriteIssuedIsNotCoalesced) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(write_req(0x9000, 0, 0, 3), 0));
  Cycle now = 0;
  for (; now < 2000 && stats.counter_value("mem.writes_issued") == 0; ++now) {
    c->tick(now);
  }
  ASSERT_EQ(stats.counter_value("mem.writes_issued"), 1u);
  // Older write just issued; the line is no longer queued.
  ASSERT_TRUE(c->enqueue(write_req(0x9000, 0, 0, 3), now));
  EXPECT_EQ(stats.counter_value("mem.write_coalesced"), 0u);
  EXPECT_EQ(c->write_queue_depth(), 1u);
  for (; now < 4000 && !c->idle(); ++now) c->tick(now);
  EXPECT_EQ(stats.counter_value("mem.writes_issued"), 2u);
}

TEST_F(ControllerTest, CompleteMatchingReadsServicesQueued) {
  ControllerConfig cfg;
  cfg.policy = RefreshPolicy::kNoRefresh;
  auto c = make(cfg);
  ASSERT_TRUE(c->enqueue(read_req(0xA000, 0, 0, 1), 0));
  ASSERT_TRUE(c->enqueue(read_req(0xB000, 0, 0, 2), 0));
  c->complete_matching_reads(0, [](const Request& r) -> std::optional<Cycle> {
    return r.line_addr == 0xA000 ? std::optional<Cycle>(42) : std::nullopt;
  });
  const auto done = c->drain_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].line_addr, 0xA000u);
  EXPECT_EQ(done[0].completion, 42u);
  EXPECT_EQ(done[0].serviced_by, ServicedBy::kSramBuffer);
  EXPECT_EQ(c->read_queue_depth(), 1u);
}

TEST_F(ControllerTest, RequestConservationUnderLoad) {
  // Every accepted read completes exactly once, even across refreshes.
  auto c = make();
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  Cycle now = 0;
  Rng rng(1);
  for (; now < 4 * t.tREFI; ++now) {
    if (now % 7 == 0 && c->can_accept(ReqType::kRead)) {
      const RowId row = static_cast<RowId>(rng.next_below(4));
      const BankId bank = static_cast<BankId>(rng.next_below(8));
      if (c->enqueue(read_req((now << 6) | 1, 0, bank, row), now)) ++accepted;
    }
    c->tick(now);
    completed += c->drain_completed().size();
  }
  for (; completed < accepted && now < 10 * t.tREFI; ++now) {
    c->tick(now);
    completed += c->drain_completed().size();
  }
  EXPECT_EQ(completed, accepted);
  c->finalize(now);
}

TEST_F(ControllerTest, QueueIndexFollowsEveryPath) {
  // The scheduler's per-bank queue index must follow every path that adds
  // or removes a request (enqueue, column issue, SRAM-buffer service,
  // prefetch drops at REF, snapshot restore) and every open-row change
  // (ACT, PRE, the precharges that seal a rank for REF, REFpb, and the
  // subarray refreshes of SARP and HiRA, HiRA's with a row open elsewhere).
  // The checker rebuilds it from the queues after every tick, and after
  // the SRAM-buffer service and the restore done between ticks here.
  org.ranks = 2;
  for (const RefreshPolicy policy :
       {RefreshPolicy::kAutoRefresh, RefreshPolicy::kPerBank,
        RefreshPolicy::kDarp, RefreshPolicy::kSarp, RefreshPolicy::kHira}) {
    SCOPED_TRACE(static_cast<int>(policy));
    org.subarrays = policy_uses_subarrays(policy) ? 8 : 1;
    ControllerConfig cfg;
    cfg.policy = policy;
    StatRegistry reg;
    auto c = std::make_unique<Controller>(0, t, org, cfg, &reg);
    check::SimChecker checker;
    c->set_auditor(&checker);
    Rng rng(static_cast<std::uint64_t>(policy) + 1);
    const auto coord = [&rng] {
      return DramCoord{0, static_cast<RankId>(rng.next_below(2)),
                       static_cast<BankId>(rng.next_below(4)),
                       static_cast<RowId>(rng.next_below(3) * 3000), 0};
    };
    for (Cycle now = 0; now < 3 * t.tREFI; ++now) {
      if (rng.next_bool(0.3)) {
        Request r = read_req((now << 6) | 1);
        r.coord = coord();
        if (rng.next_bool(0.3)) r.type = ReqType::kWrite;
        if (c->can_accept(r.type)) c->enqueue(r, now);
      }
      if (now % t.tREFI == t.tREFI - 2) {
        // A prefetch burst just before the refresh: REF drops what is
        // still queued for its rank.
        for (int i = 0; i < 16; ++i) {
          Request p = read_req((now << 6) | (i << 1));
          p.type = ReqType::kPrefetch;
          p.coord = coord();
          c->enqueue_prefetch(p, now);
        }
      }
      c->tick(now);
      c->drain_completed();
      if (rng.next_bool(0.02)) {
        const auto rank = static_cast<RankId>(rng.next_below(2));
        c->complete_matching_reads(
            rank, [now](const Request& r) -> std::optional<Cycle> {
              if ((r.line_addr >> 6) % 2 == 0) return std::nullopt;
              return now + 1;
            });
        checker.on_tick_end(*c, now);
      }
      if (now == t.tREFI + 100) {
        snap::Writer w;
        w.field(*c);
        const std::string bytes = w.take();
        auto restored = std::make_unique<Controller>(0, t, org, cfg, &reg);
        snap::Reader r(bytes);
        r.field(*restored);
        ASSERT_TRUE(r.ok() && r.at_end());
        c = std::move(restored);
        c->set_auditor(&checker);
        checker.on_tick_end(*c, now);
      }
    }
    EXPECT_TRUE(checker.ok()) << checker.summary();
    const dram::ChannelEvents& ev = c->channel().events();
    EXPECT_GT(ev.activates, 0u);
    EXPECT_GT(ev.precharges, 0u);
    EXPECT_GT(reg.counter_value("mem.sram_serviced"), 0u);
    EXPECT_GT(reg.counter_value("rop.prefetch_issued"), 0u);
    if (policy == RefreshPolicy::kAutoRefresh) {
      EXPECT_GT(reg.counter_value("rop.prefetch_dropped"), 0u);
    }
    EXPECT_GT(reg.counter_value("mem.refreshes") +
                  reg.counter_value("mem.bank_refreshes"),
              0u);
  }
}

}  // namespace
}  // namespace rop::mem
