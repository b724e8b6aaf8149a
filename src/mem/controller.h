// Per-channel memory controller.
//
// Owns the DRAM channel, the transaction queues, the FR-FCFS scheduler and
// the refresh manager, and exposes the hook interface the ROP engine plugs
// into. One command is issued on the command bus per controller clock.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/channel.h"
#include "mem/refresh_manager.h"
#include "mem/refresh_stats.h"
#include "mem/request.h"
#include "mem/scheduler.h"

namespace rop::mem {

/// Hook interface implemented by the ROP engine (src/rop). The controller
/// works identically with a null listener (baseline / no-refresh systems).
class ControllerListener {
 public:
  virtual ~ControllerListener() = default;

  /// A demand request is about to be enqueued. The listener may service a
  /// read immediately (SRAM buffer hit while the rank is locked or
  /// refreshing) by returning its completion cycle; writes always return
  /// nullopt but give the listener the chance to invalidate buffered copies.
  virtual std::optional<Cycle> on_enqueue(const Request& req, Cycle now) = 0;

  /// A demand column command went on the bus. The prediction tables learn
  /// from the *serviced* command stream, so that at staging time LastAddr
  /// points at the last line actually read from DRAM and the generated
  /// candidates start exactly at the still-queued blocked requests.
  virtual void on_demand_serviced(const Request& req, Cycle now) = 0;

  /// The rank sealed for its due refresh: queued demand has drained, new
  /// demand is frozen. This is the moment the ROP engine takes its
  /// prefetch decision and stages prefetch reads (paper §IV-D); REF goes
  /// out once they land.
  virtual void on_rank_locked(RankId rank, Cycle now) = 0;

  /// REF command went on the bus; the rank is frozen during [start, done).
  virtual void on_refresh_issued(RankId rank, Cycle start, Cycle done) = 0;

  /// A prefetch read finished its data burst: fill the SRAM buffer.
  virtual void on_prefetch_filled(const Request& req, Cycle now) = 0;

  /// Called once per controller tick before scheduling, so the engine can
  /// enqueue prefetch requests ahead of an imminent refresh.
  ///
  /// Under the event-driven clock (cpu::System fast-forward) ticks between
  /// controller events are skipped, so consecutive calls may be more than
  /// one cycle apart. Listener state must therefore be a function of `now`,
  /// not of the call count — the ROP engine accumulates deltas.
  virtual void on_tick(Cycle now) = 0;

  /// End of run at controller cycle `now`: settle any time-integrated
  /// accounting (the last on_tick may have landed well before `now` when
  /// ticks were skipped). Called from Controller::finalize in both the
  /// naive and the event-driven loop with the same cycle, which keeps
  /// accumulated statistics bit-identical between them.
  virtual void on_finalize(Cycle now) { (void)now; }
};

class Controller;

/// Read-only audit hook (src/check). Unlike ControllerListener — which
/// participates in request servicing — an auditor only observes: the
/// controller calls it after every tick and for every retired request so an
/// invariant checker can validate queue/counter/refresh bookkeeping. A null
/// auditor (the default) costs one branch per tick.
class ControllerAuditor {
 public:
  virtual ~ControllerAuditor() = default;

  /// All per-tick work (burst completion, refresh management, scheduling)
  /// for `now` has finished; the controller's state is stable.
  virtual void on_tick_end(const Controller& ctrl, Cycle now) = 0;

  /// A demand read left the controller through drain_completed().
  virtual void on_retired(const Request& req) = 0;
};

/// How the controller meets its refresh obligations. One value per
/// sim::MemoryMode: kAutoRefresh is the paper's baseline, kRopDrain the ROP
/// controller behaviour (§IV-D), kElastic and kPausing the two
/// refresh-hiding schemes the paper's related work compares against
/// conceptually (§VI), kDarp/kSarp/kHira the refresh-access parallelism
/// schemes. Each value's decision lives in one place in controller.cpp:
/// Controller::step acts on it and next_event_cycle bounds it.
enum class RefreshPolicy : std::uint8_t {
  /// The idealized no-refresh memory of Figs 1 and 7: nothing is ever owed.
  kNoRefresh,
  /// Issue REF the moment it is due; the rank blocks immediately.
  kAutoRefresh,
  /// Refresh one bank at a time in round-robin order (REFpb: tRFCpb lock
  /// per bank, 8x the cadence) instead of freezing the whole rank — the
  /// finer-granularity mode the paper's future work (§VII) targets. Other
  /// banks keep servicing demand during the lock.
  kPerBank,
  /// Elastic Refresh (Stuecheli et al., MICRO'10): postpone a due refresh
  /// until the rank has been idle for a threshold that shrinks as the
  /// postponement backlog grows; forced at the JEDEC budget.
  kElastic,
  /// Refresh Pausing (Nair et al., HPCA'13): execute the refresh in
  /// segments; between segments, pending demand is serviced. Pausing adds
  /// a small re-lock overhead per resume and is abandoned for a straight
  /// finish when the postponement budget nears exhaustion.
  kPausing,
  /// ROP (paper §IV-D): drain queued demand, seal the rank, stage the
  /// engine's prefetches, then refresh. Requires an attached RopEngine to
  /// be useful (without one it degrades to drain-then-refresh).
  kRopDrain,
  /// DARP (Chang et al., HPCA'14): out-of-order per-bank refresh scheduled
  /// into idle-bank and write-drain windows. A due REFpb goes to a bank
  /// with no pending demand (during write drain, no pending *reads*);
  /// when every un-refreshed bank has demand the refresh is postponed,
  /// forced at the JEDEC budget. A round bitmask keeps the out-of-order
  /// selection fair: each bank is refreshed once per round of 8.
  kDarp,
  /// SARP (same paper): per-bank refresh targets one *subarray* at a time;
  /// the bank keeps serving accesses to its other subarrays during the
  /// tRFCpb lock. Requires DramOrganization::subarrays > 1.
  kSarp,
  /// HiRA-style overlap (Yaglikci et al., MICRO'22): like kSarp, but the
  /// subarray refresh (a hidden row activation) may issue while a row is
  /// open in a *different* subarray of the same bank, overlapping refresh
  /// with activation instead of waiting for a precharged bank.
  kHira,
};

/// Policies that retire refresh obligations one bank-unit at a time
/// (RefreshManager runs at banks-per-tREFI cadence).
[[nodiscard]] constexpr bool policy_uses_bank_units(RefreshPolicy p) {
  return p == RefreshPolicy::kPerBank || p == RefreshPolicy::kDarp ||
         p == RefreshPolicy::kSarp || p == RefreshPolicy::kHira;
}

/// Policies that target individual subarrays (need org.subarrays > 1).
[[nodiscard]] constexpr bool policy_uses_subarrays(RefreshPolicy p) {
  return p == RefreshPolicy::kSarp || p == RefreshPolicy::kHira;
}

struct ControllerConfig {
  SchedulerConfig sched{};
  RefreshPolicy policy = RefreshPolicy::kAutoRefresh;
  /// kRopDrain: bound on the drain+staging window past due time.
  Cycle drain_bound = 1024;
  /// kElastic: rank-idle threshold at zero backlog; the threshold decays
  /// linearly to zero as owed refreshes approach the JEDEC budget.
  Cycle elastic_base_idle = 96;
  /// kPausing: refresh segment length (~60 ns) and re-lock overhead per
  /// resume.
  Cycle pause_quantum = 48;
  Cycle pause_overhead = 8;
};

class Controller {
 public:
  Controller(ChannelId id, const dram::DramTimings& timings,
             const dram::DramOrganization& org, ControllerConfig cfg,
             StatRegistry* stats);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  void set_listener(ControllerListener* listener) { listener_ = listener; }

  /// Attach/detach an invariant auditor (nullptr disables; see
  /// check::SimChecker). Near-zero cost when null.
  void set_auditor(ControllerAuditor* auditor) { auditor_ = auditor; }
  [[nodiscard]] ControllerAuditor* auditor() const { return auditor_; }

  /// Attach a telemetry trace sink (nullptr detaches). The controller
  /// records refresh windows, request latency spans and ROP drop events;
  /// the channel (handed the sink here too) records command issues. A null
  /// sink costs one pointer compare per would-be event.
  void set_trace(telemetry::TraceSink* trace) {
    trace_ = trace;
    channel_.set_trace(trace, id_);
  }
  [[nodiscard]] telemetry::TraceSink* trace() const { return trace_; }

  [[nodiscard]] bool can_accept(ReqType type) const;

  /// Enqueue a demand request. Returns false when the target queue is full
  /// (the caller must retry). On acceptance the request id is recorded and
  /// reads complete through drain_completed(); writes are posted.
  bool enqueue(Request req, Cycle now);

  /// Enqueue a prefetch read (ROP engine only). Prefetches are dropped
  /// silently if the prefetch queue is full.
  bool enqueue_prefetch(Request req, Cycle now);

  /// Advance one controller clock: complete data bursts, manage refresh,
  /// issue at most one command.
  void tick(Cycle now);

  /// Completed demand reads since the last drain (writes are posted and do
  /// not appear here). The caller takes ownership.
  std::vector<Request> drain_completed();

  /// Allocation-free drain: invokes `fn(const Request&)` for each completed
  /// demand read, in the same order drain_completed() would return them,
  /// and releases the arena slots. With an auditor attached this falls back
  /// to the vector path so the retired-audit ordering (all releases, then
  /// all audits, then delivery) matches the vector API exactly.
  template <typename Fn>
  void drain_completed_into(Fn&& fn) {
    if (completed_.empty()) return;
    if (auditor_ != nullptr) {
      for (const Request& req : drain_completed()) fn(req);
      return;
    }
    for (const RequestIndex idx : completed_) {
      const Request req = arena_[idx];
      arena_.release(idx);
      fn(req);
    }
    completed_.clear();
  }

  /// Remove queued demand reads to `rank` that `probe` can service (SRAM
  /// buffer hits at refresh start); each serviced request completes at the
  /// cycle `probe` returns.
  void complete_matching_reads(
      RankId rank,
      const std::function<std::optional<Cycle>(const Request&)>& probe);

  [[nodiscard]] const dram::Channel& channel() const { return channel_; }
  [[nodiscard]] dram::Channel& channel() { return channel_; }
  [[nodiscard]] const RefreshManager& refresh_manager() const { return rm_; }
  [[nodiscard]] RefreshBlockingStats& blocking_stats() { return blocking_; }
  [[nodiscard]] const RefreshBlockingStats& blocking_stats() const {
    return blocking_;
  }
  [[nodiscard]] ChannelId id() const { return id_; }
  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }

  [[nodiscard]] bool rank_refreshing(RankId rank) const {
    return channel_.rank(rank).refreshing();
  }
  /// True from the refresh-due lock until REF issues.
  [[nodiscard]] bool rank_locked(RankId rank) const {
    return phase_.at(rank) != RefreshPhase::kIdle;
  }
  /// True while demand requests to the rank cannot be serviced from DRAM
  /// (locked for refresh or refresh in flight) — the window during which
  /// the SRAM buffer stands in.
  [[nodiscard]] bool rank_unavailable(RankId rank) const {
    return rank_refreshing(rank) || rank_locked(rank);
  }
  [[nodiscard]] std::size_t pending_demand(RankId rank) const {
    return queues_[0].rank_size(rank) + queues_[1].rank_size(rank);
  }
  [[nodiscard]] std::size_t pending_prefetches(RankId rank) const {
    return queues_[2].rank_size(rank) + inflight_prefetches_[rank];
  }
  [[nodiscard]] std::size_t read_queue_depth() const {
    return queues_[0].size();
  }
  [[nodiscard]] std::size_t write_queue_depth() const {
    return queues_[1].size();
  }
  /// Cycle the pending refresh came due (kNeverCycle when no lock is
  /// active) and the count of pre-lock reads still draining — exposed for
  /// the invariant checker and the determinism state dump.
  [[nodiscard]] Cycle locked_at(RankId rank) const {
    return locked_at_.at(rank);
  }
  [[nodiscard]] std::uint32_t drain_pending(RankId rank) const {
    return drain_pending_.at(rank);
  }
  /// Refresh phase as a raw value (0 idle, 1 draining, 2 sealing) for
  /// state dumps.
  [[nodiscard]] std::uint8_t refresh_phase(RankId rank) const {
    return static_cast<std::uint8_t>(phase_.at(rank));
  }

  /// True when no demand work is queued, in flight, or awaiting drain.
  [[nodiscard]] bool idle() const {
    return queues_[0].empty() && queues_[1].empty() && in_flight_.empty() &&
           completed_.empty();
  }

  // -- Read-only inspection surface for the invariant checker ------------
  // (src/check/sim_checker.cpp). Exposes the raw structures the fast paths
  // maintain incrementally so an auditor can recompute them from scratch.
  // Queues are arena-backed; the views iterate like the Request containers
  // they replaced.
  [[nodiscard]] RequestView read_queue() const {
    return RequestView(&arena_, &queues_[0].order());
  }
  [[nodiscard]] RequestView write_queue() const {
    return RequestView(&arena_, &queues_[1].order());
  }
  [[nodiscard]] RequestView prefetch_queue() const {
    return RequestView(&arena_, &queues_[2].order());
  }
  [[nodiscard]] RequestView in_flight() const {
    return RequestView(&arena_, &in_flight_);
  }
  [[nodiscard]] const std::unordered_set<Address>& write_index() const {
    return write_index_;
  }
  /// Queue `queue_id` (0 read, 1 write, 2 prefetch) with its per-bank
  /// index and per-rank sizes.
  [[nodiscard]] const RequestQueue& request_queue(int queue_id) const {
    return queues_[static_cast<std::size_t>(queue_id)];
  }
  [[nodiscard]] std::uint32_t inflight_prefetches(RankId rank) const {
    return inflight_prefetches_.at(rank);
  }
  /// kPausing: refresh work (cycles) outstanding for the in-progress
  /// obligation; 0 when none.
  [[nodiscard]] Cycle refresh_remaining(RankId rank) const {
    return refresh_remaining_.at(rank);
  }

  /// Settle cycle accounting (energy) at end of run.
  void finalize(Cycle now);

  /// Earliest controller cycle > `now` at which this controller can do
  /// anything observable (complete a burst, issue a command, start or end a
  /// refresh, hit a refresh boundary), assuming no new request is enqueued
  /// in between (an enqueue invalidates the answer; cpu::System tracks that
  /// with a dirty flag). Must be called right after tick(now). May return a
  /// cycle where nothing happens (conservative-early is harmless: the tick
  /// executes as a no-op and recomputes), but never a cycle later than the
  /// true next action — the event-driven loop in cpu::System relies on
  /// every tick in (now, next_event_cycle) being a provable no-op.
  /// kNeverCycle when nothing is queued, in flight, or scheduled (e.g. the
  /// idle controller under kNoRefresh).
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const;

  /// True when completed demand reads await drain.
  [[nodiscard]] bool has_completed() const { return !completed_.empty(); }

  /// Delivery bound for the channel-sharded loop: the earliest tick cycle
  /// >= `pos` + 1 at which completed_ could gain an entry, given that no
  /// further request is enqueued (an enqueue invalidates the answer; the
  /// shard pool tracks that per channel). Unlike next_event_cycle this
  /// ignores channel-internal activity (command issues, refresh phases) —
  /// those advance inside the shard without the CPU having to observe
  /// them. Conservative-early is harmless (the pool re-advances and
  /// recomputes); late would mis-deliver a completion and is never
  /// returned. kNeverCycle when no queued or in-flight read exists.
  ///
  /// Soundness: completed_ gains entries during tick(T) only via
  ///  (1) an in-flight demand read whose data burst lands at T
  ///      (complete_bursts) — bounded by inflight_min_completion_;
  ///  (2) a prefetch fill at T whose listener services queued reads
  ///      reentrantly (on_prefetch_filled -> complete_matching_reads) —
  ///      also bounded by inflight_min_completion_;
  ///  (3) a queued read issued to DRAM after `pos` — its data needs at
  ///      least CL + tBL cycles after the earliest possible issue pos + 1;
  ///  (4) a refresh issue at T whose listener probes the SRAM buffer
  ///      (on_refresh_issued -> complete_matching_reads) — only possible
  ///      once the rank's refresh machinery is engaged or a refresh is
  ///      owed, so bounded by the next tREFI boundary when idle.
  [[nodiscard]] Cycle completion_lower_bound(Cycle pos) const;

  /// Snapshot serialization (see common/snapshot_io.h): the channel, the
  /// refresh bookkeeping, the arena-backed queues' orders, and every
  /// incrementally maintained counter. write_index_ and each queue's
  /// per-bank index and per-rank sizes are derived from the orders and are
  /// rebuilt on restore instead of being serialized (unordered containers
  /// have no canonical byte order; the indices' ages only need to follow
  /// queue order). Stat handles, the listener/auditor and the trace sink
  /// are runtime wiring and do not ride.
  template <class Ar>
  void io(Ar& ar) {
    ar(channel_, rm_, blocking_, arena_, queues_, in_flight_, completed_,
       inflight_min_completion_, inflight_prefetches_, draining_writes_,
       phase_, locked_at_, drain_pending_, last_arrival_, refresh_remaining_,
       refresh_started_, refresh_window_opened_, next_refresh_bank_,
       darp_round_mask_, next_refresh_sub_);
    if constexpr (Ar::kIsReader) {
      write_index_.clear();
      for (const RequestIndex idx : queues_[1].order()) {
        write_index_.insert(arena_[idx].line_addr);
      }
      for (RequestQueue& q : queues_) q.assign(q.order(), arena_, channel_);
    }
  }

 private:
  /// tick() body; split out so the auditor hook runs after every exit path.
  void step(Cycle now);
  void issue_pick(const SchedulerPick& pick, Cycle now);
  /// Put `cmd` on the bus (legal at `now`); an ACT or PRE also moves the
  /// bank's open-row hit counts in the queues. Every command the
  /// controller issues goes through here.
  Cycle issue_command(const dram::Command& cmd, Cycle now);
  void complete_bursts(Cycle now);
  /// Flush queued prefetches for a rank (urgent refresh override).
  void drop_prefetches(RankId rank);
  /// Latency bookkeeping + a kReadSpan trace event for a serviced demand
  /// read; `req` must have arrival and completion set.
  void record_read_latency(const Request& req);

  // -- Refresh -----------------------------------------------------------
  // Every decision below is made by one function that both the action
  // (manage_refresh, from step) and the bound (refresh_event_cycle, from
  // next_event_cycle) call, so the bound cannot drift from the action.

  /// This tick's refresh work under cfg_.policy, rank by rank; true when a
  /// refresh command (PRE, REF, REFpb or a pausing segment) used the bus.
  bool manage_refresh(Cycle now);
  /// Per-rank actions for a rank that is not refreshing. `bus_free` is
  /// false once an earlier rank used the bus this cycle; the rank-level
  /// ones still advance their phase bookkeeping. True when they issued.
  bool refresh_rank(RankId r, Cycle now, bool bus_free);  // auto/elastic/ROP
  bool refresh_pausing(RankId r, Cycle now, bool bus_free);
  bool refresh_bank_unit(RankId r, Cycle now);
  /// Put the REF for rank `r` on the bus (legal at `now`) and close the
  /// rank's lock bookkeeping.
  void issue_refresh(RankId r, Cycle now);

  /// Bank-unit policies: the PRE or REFpb the refresh machinery puts on
  /// the bus for rank `r` once the command is legal, or none while no unit
  /// is owed, the unit is postponed or the cursor bank is locked.
  [[nodiscard]] std::optional<dram::Command> bank_refresh_command(
      RankId r, Cycle now) const;
  /// The seal step for rank `r`: while rows are open, a PRE to the first
  /// open bank whose PRE is legal at `now` (failing that, the one that can
  /// close soonest); with every bank closed, the REF itself. `ready` is
  /// the earliest cycle the command can issue (<= `now`: legal now).
  struct SealStep {
    dram::Command cmd;
    Cycle ready;
  };
  [[nodiscard]] SealStep seal_step(RankId r, Cycle now) const;
  /// kElastic: the rank-idle span a due refresh waits for at backlog
  /// `owed`; it shrinks linearly to zero at the JEDEC budget.
  [[nodiscard]] Cycle elastic_idle_threshold(std::uint32_t owed) const;
  /// kRopDrain: the lock still waits for pre-lock reads to drain, or for
  /// staged prefetches to land, before sealing / issuing REF. Both give
  /// way at the drain bound and at the JEDEC budget.
  [[nodiscard]] bool drain_holds(RankId r, Cycle now, bool urgent) const;
  [[nodiscard]] bool prefetch_holds(RankId r, Cycle now, bool urgent) const;
  /// kPausing: the refresh in progress yields to pending demand until the
  /// JEDEC budget forces the finish.
  [[nodiscard]] bool pause_holds(RankId r, Cycle now) const;
  /// Earliest cycle the refresh machinery for (non-refreshing) rank `r`
  /// can act or change eligibility; kNeverCycle under kNoRefresh.
  [[nodiscard]] Cycle refresh_event_cycle(RankId r, Cycle now) const;

  /// DARP: pick the bank to refresh next on rank `r`, honouring the round
  /// mask and the idle-bank / write-drain heuristics. Returns num_banks
  /// when every eligible bank should be postponed (none when urgent).
  [[nodiscard]] BankId darp_pick_bank(RankId r, bool urgent) const;
  /// DARP idle test for (r, b): no pending demand, or no pending reads
  /// while the controller drains writes.
  [[nodiscard]] bool darp_bank_idle(RankId r, BankId b) const;

  /// Flat per-(rank, bank) slot index, the queues' slot order.
  [[nodiscard]] std::size_t bank_slot(RankId r, BankId b) const {
    return static_cast<std::size_t>(r) * num_banks_ + b;
  }

  /// Charge `cycles` of refresh-induced demand blocking for each of
  /// `requests` queued reads (see mem.refresh_blocked_cycles).
  void charge_refresh_blocking(std::uint64_t requests, Cycle cycles);
  /// Charge `cycles` to every read queued to rank `r`, in the aggregate and
  /// in each read's `cause` accumulator.
  void block_queued_reads(RankId r, Cycle cycles,
                          std::uint32_t Request::*cause);
  /// Subarray-refresh trace event + blocking charge at REFpb issue.
  void record_subarray_refresh(RankId r, BankId b, std::uint32_t sub,
                               Cycle now);

  // -- Scheduling --------------------------------------------------------

  /// Write-drain hysteresis: the drain flag a tick leaves behind when it
  /// finds `draining`.
  [[nodiscard]] bool write_drain_after(bool draining) const;
  /// One tick's scheduler inputs, built by scheduler_view for both step
  /// and next_event_cycle: the queue views in priority order, and the
  /// blocked predicate over (rank, queue) (refreshing ranks, urgent pausing
  /// ranks, and demand to sealing ranks).
  struct SchedulerView {
    const Controller* ctrl = nullptr;
    std::array<QueueView, 3> views{};
    std::size_t n_views = 0;
    std::uint32_t urgent_mask = 0;
    [[nodiscard]] std::span<const QueueView> queues() const {
      return {views.data(), n_views};
    }
    bool operator()(RankId r, int queue_id) const;
  };
  [[nodiscard]] SchedulerView scheduler_view(bool draining, Cycle now) const;

  /// A queued read left the read queue: it leaves the drain count when it
  /// predates its rank's lock.
  void on_read_leaves_queue(const Request& req);

  /// Hot-path statistics, resolved to stable pointers once at construction.
  /// Event code must go through these — a string-keyed registry lookup per
  /// event costs more than the event itself (see docs/PERFORMANCE.md).
  struct StatHandles {
    Counter* reads = nullptr;
    Counter* writes = nullptr;
    Counter* sram_serviced = nullptr;
    Counter* read_forwarded = nullptr;
    Counter* write_coalesced = nullptr;
    Counter* writes_issued = nullptr;
    Counter* refreshes = nullptr;
    Counter* bank_refreshes = nullptr;
    Counter* refresh_pauses = nullptr;
    /// Integral of refresh-induced demand blocking, in request-cycles:
    /// every queued demand read is charged the span during which its
    /// rank / bank / subarray is locked by an in-flight refresh. The
    /// scheme-comparison bench uses this as the cross-policy
    /// "refresh-blocking" metric (event-driven, so it is exact under
    /// skipped frozen cycles, unlike a per-tick census).
    Counter* refresh_blocked_cycles = nullptr;
    Counter* prefetch_enqueued = nullptr;
    Counter* prefetch_issued = nullptr;
    Counter* prefetch_dropped = nullptr;
    Counter* prefetch_dropped_queue_full = nullptr;
    Counter* prefetch_dropped_stale = nullptr;
    Counter* prefetch_completed = nullptr;
    Scalar* read_latency = nullptr;
    Histogram* read_latency_hist = nullptr;
    /// Attribution ledger (telemetry/attribution.h): per-cause
    /// refresh-blocked request-cycles folded at read retirement from the
    /// per-request accumulators (their sum across causes reproduces
    /// mem.refresh_blocked_cycles for demand reads), matching per-cause
    /// latency histograms, queue/activation wait spans, and the residual
    /// refresh-window cycles SRAM service recovered (the paper's revived
    /// frozen cycles).
    Counter* attr_blocked_rank = nullptr;
    Counter* attr_blocked_bank = nullptr;
    Counter* attr_blocked_sub = nullptr;
    Counter* attr_blocked_pause = nullptr;
    Counter* attr_rop_recovered = nullptr;
    Histogram* attr_blocked_rank_hist = nullptr;
    Histogram* attr_blocked_bank_hist = nullptr;
    Histogram* attr_blocked_sub_hist = nullptr;
    Histogram* attr_blocked_pause_hist = nullptr;
    Histogram* attr_queue_wait_hist = nullptr;
    Histogram* attr_act_wait_hist = nullptr;
  };

  ChannelId id_;
  ControllerConfig cfg_;
  dram::Channel channel_;
  RefreshManager rm_;
  Scheduler scheduler_;
  RefreshBlockingStats blocking_;
  StatRegistry* stats_;
  StatHandles h_;
  ControllerListener* listener_ = nullptr;
  ControllerAuditor* auditor_ = nullptr;

  /// Pooled request storage; every queue below holds indices into it.
  RequestArena arena_;
  /// The read, write and prefetch queues, by queue id (0, 1, 2). Each keeps
  /// its order, its per-bank index for the scheduler and the per-rank and
  /// per-bank sizes the refresh machinery reads.
  std::array<RequestQueue, 3> queues_;
  std::vector<RequestIndex> in_flight_;  // reads/prefetches waiting on data
  std::vector<RequestIndex> completed_;

  /// Min completion cycle over in_flight_, maintained incrementally
  /// (tightened on push, rebuilt during the complete_bursts sweep) so
  /// next_event_cycle avoids a per-call linear scan.
  Cycle inflight_min_completion_ = kNeverCycle;

  /// Lines currently present in the write queue. Coalescing keeps at most
  /// one queued write per line, so a set gives O(1) read-after-write
  /// forwarding, coalescing, and stale-prefetch checks without index
  /// fix-ups when issue_pick erases from the middle of the queue.
  std::unordered_set<Address> write_index_;
  /// Prefetches in flight per rank (the queued ones are counted by their
  /// queue).
  std::vector<std::uint32_t> inflight_prefetches_;

  bool draining_writes_ = false;

  /// Per-rank refresh progression. kIdle: no refresh pending. kDraining
  /// (ROP only): refresh due; demand keeps flowing while queued requests
  /// drain and staged prefetches fill the buffer. kSealing: demand to the
  /// rank is held while banks are precharged and REF goes out. Baseline
  /// auto-refresh jumps straight from kIdle to kSealing at due time.
  enum class RefreshPhase : std::uint8_t { kIdle, kDraining, kSealing };
  std::vector<RefreshPhase> phase_;
  /// Cycle the pending refresh came due (bounds the drain window).
  std::vector<Cycle> locked_at_;
  /// Queued reads that predate the rank's lock and still await service —
  /// the count the ROP drain waits on. The rank's read-queue size at lock
  /// time, incremented by lock-cycle arrivals, decremented as pre-lock
  /// reads leave the queue. Replaces a per-tick count over the read queue.
  std::vector<std::uint32_t> drain_pending_;
  /// kElastic: last demand arrival per rank (idle detection).
  std::vector<Cycle> last_arrival_;
  /// kPausing: refresh work remaining per rank (0 = none in progress) and
  /// whether the in-progress refresh has been paused at least once.
  std::vector<Cycle> refresh_remaining_;
  std::vector<bool> refresh_started_;
  /// kPausing: whether blocking stats saw the first segment of the
  /// in-progress refresh. Tracked explicitly — pause overhead mutates
  /// refresh_remaining_, so "remaining == tRFC" is not a reliable
  /// first-segment test (see docs/CORRECTNESS.md).
  std::vector<bool> refresh_window_opened_;
  /// kPerBank / kSarp / kHira: round-robin cursor of the next bank to
  /// refresh.
  std::vector<BankId> next_refresh_bank_;
  /// Banks per rank (sizes the flat per-bank vector below).
  std::uint32_t num_banks_ = 0;
  /// kDarp: bitmask of banks already refreshed in the current round (reset
  /// when all banks are set) — out-of-order selection stays fair.
  std::vector<std::uint32_t> darp_round_mask_;
  /// kSarp / kHira: per-(rank, bank) cursor of the next subarray to
  /// refresh (flat bank_slot indexing).
  std::vector<std::uint32_t> next_refresh_sub_;

  /// Event recorder for the telemetry timelines; null in the common case
  /// (every hook is a pointer compare). Kept at the cold end of the class
  /// so attaching telemetry support does not shift the hot queue members.
  telemetry::TraceSink* trace_ = nullptr;
};

}  // namespace rop::mem
