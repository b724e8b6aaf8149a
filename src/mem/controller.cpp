#include "mem/controller.h"

#include <algorithm>
#include <array>

#include "telemetry/trace_sink.h"

namespace rop::mem {

Controller::Controller(ChannelId id, const dram::DramTimings& timings,
                       const dram::DramOrganization& org, ControllerConfig cfg,
                       StatRegistry* stats)
    : id_(id),
      cfg_(cfg),
      channel_(timings, org),
      rm_(timings, org.ranks,
          policy_uses_bank_units(cfg.policy) ? org.banks : 1, stats),
      scheduler_(cfg.sched),
      blocking_(org.ranks, timings.tRFC),
      stats_(stats),
      queues_{RequestQueue(org.ranks, org.banks),
              RequestQueue(org.ranks, org.banks),
              RequestQueue(org.ranks, org.banks)},
      inflight_prefetches_(org.ranks, 0),
      phase_(org.ranks, RefreshPhase::kIdle),
      locked_at_(org.ranks, kNeverCycle),
      drain_pending_(org.ranks, 0),
      last_arrival_(org.ranks, 0),
      refresh_remaining_(org.ranks, 0),
      refresh_started_(org.ranks, false),
      refresh_window_opened_(org.ranks, false),
      next_refresh_bank_(org.ranks, 0),
      num_banks_(org.banks),
      darp_round_mask_(org.ranks, 0),
      next_refresh_sub_(static_cast<std::size_t>(org.ranks) * org.banks, 0) {
  ROP_ASSERT(stats != nullptr);
  // Subarray-targeted policies need the subarray-aware bank model.
  ROP_ASSERT(!policy_uses_subarrays(cfg.policy) || org.subarrays > 1);
  h_.reads = stats->counter_handle("mem.reads");
  h_.writes = stats->counter_handle("mem.writes");
  h_.sram_serviced = stats->counter_handle("mem.sram_serviced");
  h_.read_forwarded = stats->counter_handle("mem.read_forwarded");
  h_.write_coalesced = stats->counter_handle("mem.write_coalesced");
  h_.writes_issued = stats->counter_handle("mem.writes_issued");
  h_.refreshes = stats->counter_handle("mem.refreshes");
  h_.bank_refreshes = stats->counter_handle("mem.bank_refreshes");
  h_.refresh_pauses = stats->counter_handle("mem.refresh_pauses");
  h_.refresh_blocked_cycles =
      stats->counter_handle("mem.refresh_blocked_cycles");
  h_.prefetch_enqueued = stats->counter_handle("rop.prefetch_enqueued");
  h_.prefetch_issued = stats->counter_handle("rop.prefetch_issued");
  h_.prefetch_dropped = stats->counter_handle("rop.prefetch_dropped");
  h_.prefetch_dropped_queue_full =
      stats->counter_handle("rop.prefetch_dropped_queue_full");
  h_.prefetch_dropped_stale =
      stats->counter_handle("rop.prefetch_dropped_stale");
  h_.prefetch_completed = stats->counter_handle("rop.prefetch_completed");
  h_.read_latency = stats->scalar_handle("mem.read_latency");
  // 8-cycle buckets out to 1024 cycles (beyond 2x tRFC), overflow above.
  h_.read_latency_hist =
      stats->histogram_handle("mem.read_latency_hist", 8, 128);
  h_.attr_blocked_rank = stats->counter_handle("attr.blocked_rank_cycles");
  h_.attr_blocked_bank = stats->counter_handle("attr.blocked_bank_cycles");
  h_.attr_blocked_sub = stats->counter_handle("attr.blocked_subarray_cycles");
  h_.attr_blocked_pause = stats->counter_handle("attr.blocked_pause_cycles");
  h_.attr_rop_recovered = stats->counter_handle("attr.rop_recovered_cycles");
  h_.attr_blocked_rank_hist =
      stats->histogram_handle("attr.blocked_rank_hist", 8, 128);
  h_.attr_blocked_bank_hist =
      stats->histogram_handle("attr.blocked_bank_hist", 8, 128);
  h_.attr_blocked_sub_hist =
      stats->histogram_handle("attr.blocked_subarray_hist", 8, 128);
  h_.attr_blocked_pause_hist =
      stats->histogram_handle("attr.blocked_pause_hist", 8, 128);
  h_.attr_queue_wait_hist =
      stats->histogram_handle("attr.queue_wait_hist", 8, 128);
  h_.attr_act_wait_hist =
      stats->histogram_handle("attr.act_wait_hist", 8, 128);
}

void Controller::record_read_latency(const Request& req) {
  const Cycle latency = req.completion - req.arrival;
  h_.read_latency->record(static_cast<double>(latency));
  h_.read_latency_hist->record(latency);
  // Fold the per-request attribution accumulators into the ledger. The
  // zero-skips keep the common unblocked read at four integer compares.
  if (req.blocked_rank != 0) {
    h_.attr_blocked_rank->inc(req.blocked_rank);
    h_.attr_blocked_rank_hist->record(req.blocked_rank);
  }
  if (req.blocked_bank != 0) {
    h_.attr_blocked_bank->inc(req.blocked_bank);
    h_.attr_blocked_bank_hist->record(req.blocked_bank);
  }
  if (req.blocked_sub != 0) {
    h_.attr_blocked_sub->inc(req.blocked_sub);
    h_.attr_blocked_sub_hist->record(req.blocked_sub);
  }
  if (req.blocked_pause != 0) {
    h_.attr_blocked_pause->inc(req.blocked_pause);
    h_.attr_blocked_pause_hist->record(req.blocked_pause);
  }
  if (req.issued != kNeverCycle) {
    h_.attr_queue_wait_hist->record(req.issued - req.arrival);
    if (req.act != kNeverCycle) {
      h_.attr_act_wait_hist->record(req.issued - req.act);
    }
  }
  if (trace_ != nullptr && trace_->wants(telemetry::kCatReqs)) {
    telemetry::TraceEvent e;
    e.ts = req.arrival;
    e.dur = latency;
    e.arg = static_cast<std::uint64_t>(req.serviced_by);
    e.kind = telemetry::EventKind::kReadSpan;
    e.category = telemetry::kCatReqs;
    e.channel = static_cast<std::uint16_t>(id_);
    e.rank = static_cast<std::uint16_t>(req.coord.rank);
    e.bank = static_cast<std::uint16_t>(req.coord.bank);
    e.core = req.core;
    trace_->record(e);
    // Nested lifecycle slices inside the read span: queue wait
    // (arrival -> issue), activation wait (ACT -> issue) and the data
    // transfer (issue -> data). Chrome/Perfetto nest them by containment
    // on the same lane.
    if (req.issued != kNeverCycle) {
      if (req.issued > req.arrival) {
        e.ts = req.arrival;
        e.dur = req.issued - req.arrival;
        e.kind = telemetry::EventKind::kReadQueueSpan;
        trace_->record(e);
      }
      if (req.act != kNeverCycle && req.issued > req.act) {
        e.ts = req.act;
        e.dur = req.issued - req.act;
        e.kind = telemetry::EventKind::kReadActSpan;
        trace_->record(e);
      }
      e.ts = req.issued;
      e.dur = req.completion - req.issued;
      e.kind = telemetry::EventKind::kReadXferSpan;
      trace_->record(e);
    }
  }
}

bool Controller::can_accept(ReqType type) const {
  switch (type) {
    case ReqType::kRead:
      return queues_[0].size() < cfg_.sched.read_queue_capacity;
    case ReqType::kWrite:
      return queues_[1].size() < cfg_.sched.write_queue_capacity;
    case ReqType::kPrefetch:
      return queues_[2].size() < cfg_.sched.read_queue_capacity;
  }
  return false;
}

bool Controller::enqueue(Request req, Cycle now) {
  ROP_ASSERT(req.type != ReqType::kPrefetch);
  // Admission control comes first: a rejected request must leave stats,
  // arrival tracking, and listener/profiler state completely untouched —
  // the caller retries the same request next cycle and it would otherwise
  // be double-counted.
  if (!can_accept(req.type)) return false;
  req.arrival = now;
  req.eligible = now;
  last_arrival_[req.coord.rank] = now;

  if (req.type == ReqType::kRead) {
    h_.reads->inc();
    blocking_.on_read_arrival(req.coord.rank, now);
    // The ROP engine observes every demand arrival; it may service a read
    // from the SRAM buffer while the rank is frozen.
    if (listener_ != nullptr) {
      if (const auto done = listener_->on_enqueue(req, now)) {
        req.completion = *done;
        req.serviced_by = ServicedBy::kSramBuffer;
        h_.sram_serviced->inc();
        // The revived-cycle credit: without the buffer this read would
        // have waited out the rest of the refresh window.
        const dram::Rank& rk = channel_.rank(req.coord.rank);
        if (rk.refreshing() && rk.refresh_done() > req.completion) {
          h_.attr_rop_recovered->inc(rk.refresh_done() - req.completion);
        }
        record_read_latency(req);
        completed_.push_back(arena_.alloc(req));
        return true;
      }
    }
    // Read-after-write forwarding: coalescing keeps at most one queued
    // write per line, so set membership is exact.
    if (write_index_.count(req.line_addr) != 0) {
      req.completion = now + 1;
      req.serviced_by = ServicedBy::kWriteForward;
      h_.read_forwarded->inc();
      record_read_latency(req);
      completed_.push_back(arena_.alloc(req));
      return true;
    }
    const RankId r = req.coord.rank;
    const RequestIndex idx = arena_.alloc(req);
    queues_[0].push(idx, req.coord, channel_);
    // A read arriving at the lock cycle itself satisfies `arrival <= lock`
    // and the drain must wait for it too.
    if (locked_at_[r] != kNeverCycle && now <= locked_at_[r]) {
      ++drain_pending_[r];
    }
    // Refresh-blocking metric: a read arriving mid-lock is charged the
    // remaining lock span (issue-time charges cover the reads already
    // queued when the lock began). The per-request accumulator records the
    // same span under its cause, and `eligible` moves to the lock release.
    Request& qr = arena_[idx];
    const dram::Rank& rank = channel_.rank(r);
    const dram::Bank& bank = rank.bank(req.coord.bank);
    if (rank.refreshing()) {
      if (rank.refresh_done() > now) {
        const Cycle span = rank.refresh_done() - now;
        charge_refresh_blocking(1, span);
        if (cfg_.policy == RefreshPolicy::kPausing) {
          qr.blocked_pause += static_cast<std::uint32_t>(span);
        } else {
          qr.blocked_rank += static_cast<std::uint32_t>(span);
        }
        qr.eligible = rank.refresh_done();
      }
    } else if (bank.state() == dram::BankState::kRefreshing) {
      if (bank.next_activate() > now) {
        const Cycle span = bank.next_activate() - now;
        charge_refresh_blocking(1, span);
        qr.blocked_bank += static_cast<std::uint32_t>(span);
        qr.eligible = bank.next_activate();
      }
    } else if (const auto sub = bank.refreshing_subarray(now)) {
      if (bank.subarray_of(req.coord.row) == *sub) {
        const Cycle span = bank.subarray_busy_until(*sub) - now;
        charge_refresh_blocking(1, span);
        qr.blocked_sub += static_cast<std::uint32_t>(span);
        qr.eligible = bank.subarray_busy_until(*sub);
      }
    }
  } else {
    h_.writes->inc();
    // Writes never complete through the listener, but it must still see the
    // arrival to invalidate any buffered copy of the line.
    if (listener_ != nullptr) {
      const auto done = listener_->on_enqueue(req, now);
      ROP_ASSERT(!done);
    }
    // Coalesce repeated writes to the same line: the queued entry (and its
    // scheduler age) stands for the newest data.
    if (write_index_.count(req.line_addr) != 0) {
      h_.write_coalesced->inc();
      return true;
    }
    queues_[1].push(arena_.alloc(req), req.coord, channel_);
    write_index_.insert(req.line_addr);
  }
  return true;
}

bool Controller::enqueue_prefetch(Request req, Cycle now) {
  ROP_ASSERT(req.type == ReqType::kPrefetch);
  if (queues_[2].size() >= cfg_.sched.read_queue_capacity) {
    h_.prefetch_dropped_queue_full->inc();
    return false;
  }
  req.arrival = now;
  h_.prefetch_enqueued->inc();
  queues_[2].push(arena_.alloc(req), req.coord, channel_);
  return true;
}

void Controller::on_read_leaves_queue(const Request& req) {
  const RankId r = req.coord.rank;
  // Pre-lock reads count toward the drain the refresh is waiting on.
  if (locked_at_[r] != kNeverCycle && req.arrival <= locked_at_[r]) {
    ROP_ASSERT(drain_pending_[r] > 0);
    --drain_pending_[r];
  }
}

void Controller::drop_prefetches(RankId rank) {
  queues_[2].remove_if(arena_, channel_, [this, rank](RequestIndex idx) {
    const Request& req = arena_[idx];
    if (req.coord.rank != rank) return false;
    h_.prefetch_dropped->inc();
    if (trace_ != nullptr && trace_->wants(telemetry::kCatRop)) {
      telemetry::TraceEvent e;
      e.ts = req.arrival;
      e.arg = req.line_addr;
      e.kind = telemetry::EventKind::kPrefetchDrop;
      e.category = telemetry::kCatRop;
      e.channel = static_cast<std::uint16_t>(id_);
      e.rank = static_cast<std::uint16_t>(rank);
      e.bank = static_cast<std::uint16_t>(req.coord.bank);
      trace_->record(e);
    }
    arena_.release(idx);
    return true;
  });
}

void Controller::complete_bursts(Cycle now) {
  // The cached minimum makes the common "nothing lands this cycle" case a
  // single compare (kNeverCycle when nothing is in flight).
  if (inflight_min_completion_ > now) return;
  std::size_t out = 0;
  Cycle min_completion = kNeverCycle;
  for (const RequestIndex idx : in_flight_) {
    if (arena_[idx].completion > now) {
      min_completion = std::min(min_completion, arena_[idx].completion);
      in_flight_[out++] = idx;
      continue;
    }
    if (arena_[idx].type == ReqType::kPrefetch) {
      // Copy out: the fill listener may service queued reads reentrantly.
      const Request req = arena_[idx];
      arena_.release(idx);
      --inflight_prefetches_[req.coord.rank];
      // Drop fills whose line has a newer pending write — the buffer must
      // never hold data staler than the write queue.
      if (write_index_.count(req.line_addr) != 0) {
        h_.prefetch_dropped_stale->inc();
        if (trace_ != nullptr && trace_->wants(telemetry::kCatRop)) {
          telemetry::TraceEvent e;
          e.ts = now;
          e.arg = req.line_addr;
          e.kind = telemetry::EventKind::kStaleDrop;
          e.category = telemetry::kCatRop;
          e.channel = static_cast<std::uint16_t>(id_);
          e.rank = static_cast<std::uint16_t>(req.coord.rank);
          e.bank = static_cast<std::uint16_t>(req.coord.bank);
          trace_->record(e);
        }
      } else {
        h_.prefetch_completed->inc();
        if (listener_ != nullptr) listener_->on_prefetch_filled(req, now);
      }
    } else {
      record_read_latency(arena_[idx]);
      completed_.push_back(idx);
    }
  }
  in_flight_.resize(out);
  inflight_min_completion_ = min_completion;
}

bool Controller::manage_refresh(Cycle now) {
  bool issued = false;
  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    // A REF (or pausing segment) in flight: nothing to decide until it ends.
    if (channel_.rank(r).refreshing()) continue;
    switch (cfg_.policy) {
      case RefreshPolicy::kNoRefresh:
        return false;
      case RefreshPolicy::kAutoRefresh:
      case RefreshPolicy::kElastic:
      case RefreshPolicy::kRopDrain:
        issued = refresh_rank(r, now, !issued) || issued;
        break;
      case RefreshPolicy::kPausing:
        issued = refresh_pausing(r, now, !issued) || issued;
        break;
      case RefreshPolicy::kPerBank:
      case RefreshPolicy::kDarp:
      case RefreshPolicy::kSarp:
      case RefreshPolicy::kHira:
        // Nothing to advance for the other ranks once the bus is taken.
        if (issued) return true;
        issued = refresh_bank_unit(r, now);
        break;
    }
  }
  return issued;
}

Cycle Controller::elastic_idle_threshold(std::uint32_t owed) const {
  const std::uint32_t budget = channel_.timings().max_postponed_refreshes;
  const std::uint32_t slack = owed >= budget ? 0 : budget - owed;
  return cfg_.elastic_base_idle * slack / budget;
}

bool Controller::drain_holds(RankId r, Cycle now, bool urgent) const {
  return !urgent && now < locked_at_[r] + cfg_.drain_bound &&
         drain_pending_[r] > 0;
}

bool Controller::pause_holds(RankId r, Cycle now) const {
  return !rm_.urgent(r, now) && pending_demand(r) > 0;
}

bool Controller::prefetch_holds(RankId r, Cycle now, bool urgent) const {
  return cfg_.policy == RefreshPolicy::kRopDrain && !urgent &&
         now < locked_at_[r] + cfg_.drain_bound && pending_prefetches(r) > 0;
}

Controller::SealStep Controller::seal_step(RankId r, Cycle now) const {
  const dram::Rank& rank = channel_.rank(r);
  SealStep step{dram::Command{dram::CmdType::kRefresh,
                              DramCoord{id_, r, 0, 0, 0}, 0},
                kNeverCycle};
  bool any_active = false;
  for (BankId b = 0; b < rank.num_banks(); ++b) {
    if (rank.bank(b).state() != dram::BankState::kActive) continue;
    const dram::Command pre{dram::CmdType::kPrecharge,
                            DramCoord{id_, r, b, 0, 0}, 0};
    const Cycle ready = std::max(channel_.earliest_issue(pre), now);
    if (ready < step.ready) step = SealStep{pre, ready};
    any_active = true;
    if (ready == now) break;  // the first legal PRE goes out
  }
  // An open row never closes by itself, so REF waits on the PREs above;
  // with every bank closed it waits for the slowest precharge recovery.
  if (!any_active) step.ready = channel_.earliest_issue(step.cmd);
  return step;
}

void Controller::issue_refresh(RankId r, Cycle now) {
  const dram::Rank& rank = channel_.rank(r);
  // Any prefetch that failed to issue before the seal is pointless now.
  drop_prefetches(r);
  // Snapshot before the bookkeeping resets: postponement depth at issue
  // and the due-time lock this REF closes.
  if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
    telemetry::TraceEvent e;
    e.category = telemetry::kCatRefresh;
    e.channel = static_cast<std::uint16_t>(id_);
    e.rank = static_cast<std::uint16_t>(r);
    if (locked_at_[r] != kNeverCycle && now > locked_at_[r]) {
      e.ts = locked_at_[r];
      e.dur = now - locked_at_[r];
      e.kind = telemetry::EventKind::kRankLock;
      trace_->record(e);
    }
    e.ts = now;
    e.dur = channel_.timings().tRFC;
    e.kind = telemetry::EventKind::kRefreshWindow;
    e.arg = rm_.owed(r, now);
    trace_->record(e);
  }
  issue_command(
      dram::Command{dram::CmdType::kRefresh, DramCoord{id_, r, 0, 0, 0}, 0},
      now);
  rm_.on_refresh_issued(r);
  blocking_.on_refresh_start(r, now);
  // Every read still queued to the rank is frozen for the full tRFC.
  block_queued_reads(r, channel_.timings().tRFC, &Request::blocked_rank);
  h_.refreshes->inc();
  phase_[r] = RefreshPhase::kIdle;
  locked_at_[r] = kNeverCycle;
  drain_pending_[r] = 0;
  if (listener_ != nullptr) {
    listener_->on_refresh_issued(r, now, rank.refresh_done());
  }
}

bool Controller::refresh_rank(RankId r, Cycle now, bool bus_free) {
  const std::uint32_t owed = rm_.owed(r, now);
  if (owed == 0) return false;
  const bool urgent = rm_.urgent(r, now);

  if (phase_[r] == RefreshPhase::kIdle) {
    // Elastic waits for a rank-idle window whose required length shrinks
    // as the backlog grows; the JEDEC budget forces it.
    if (cfg_.policy == RefreshPolicy::kElastic && !urgent &&
        now - last_arrival_[r] < elastic_idle_threshold(owed)) {
      return false;
    }
    locked_at_[r] = now;
    phase_[r] = cfg_.policy == RefreshPolicy::kRopDrain
                    ? RefreshPhase::kDraining
                    : RefreshPhase::kSealing;
    // Snapshot the drain target: every queued read to this rank arrived
    // strictly before `now`, so all of them predate the lock (same-cycle
    // arrivals land after this tick and bump the counter in enqueue).
    drain_pending_[r] = queues_[0].rank_size(r);
  }

  if (phase_[r] == RefreshPhase::kDraining) {
    if (drain_holds(r, now, urgent)) return false;  // demand keeps flowing
    // Drain complete: seal the rank. Demand freezes here, which makes
    // this the moment the ROP engine stages its prefetch round — the
    // prediction tables reflect the final pre-refresh stream position.
    phase_[r] = RefreshPhase::kSealing;
    if (listener_ != nullptr) listener_->on_rank_locked(r, now);
  }

  // While sealing, staged prefetches own the bus for this rank; REF goes
  // out once they land (or the budget runs out).
  if (prefetch_holds(r, now, urgent)) return false;
  if (urgent) drop_prefetches(r);

  if (!bus_free) return false;
  const SealStep seal = seal_step(r, now);
  if (!channel_.can_issue(seal.cmd, now)) return false;
  if (seal.cmd.type == dram::CmdType::kRefresh) {
    issue_refresh(r, now);
  } else {
    issue_command(seal.cmd, now);
  }
  return true;
}

bool Controller::refresh_pausing(RankId r, Cycle now, bool bus_free) {
  if (refresh_remaining_[r] == 0) {
    if (rm_.owed(r, now) == 0) return false;
    refresh_remaining_[r] = channel_.timings().tRFC;
    refresh_started_[r] = false;
    refresh_window_opened_[r] = false;
  }

  // Pause: while demand is pending and the budget allows, the rank stays
  // available and the scheduler services requests between segments. Each
  // resume pays the re-lock overhead.
  if (pause_holds(r, now)) {
    if (refresh_started_[r]) {
      h_.refresh_pauses->inc();
      refresh_remaining_[r] += cfg_.pause_overhead;
      refresh_started_[r] = false;  // count one pause per gap
    }
    return false;
  }

  if (!bus_free) return false;
  // All banks must be precharged before a segment may begin.
  const SealStep seal = seal_step(r, now);
  if (!channel_.can_issue(seal.cmd, now)) return false;
  if (seal.cmd.type == dram::CmdType::kPrecharge) {
    issue_command(seal.cmd, now);
    return true;
  }

  const Cycle duration =
      rm_.urgent(r, now)
          ? refresh_remaining_[r]
          : std::min<Cycle>(cfg_.pause_quantum, refresh_remaining_[r]);
  // Open the blocking window exactly once per refresh obligation. The
  // first-segment test must not be inferred from refresh_remaining_:
  // pause overhead grows it, so with pause_overhead >= pause_quantum it
  // can return to (or overshoot) tRFC mid-refresh and the sentinel
  // mis-counts window starts.
  if (!refresh_window_opened_[r]) {
    blocking_.on_refresh_start(r, now);
    refresh_window_opened_[r] = true;
    // Nominal tRFC span; the actual segments (and their pause gaps) are
    // traced individually via begin_refresh_segment.
    if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
      telemetry::TraceEvent e;
      e.ts = now;
      e.dur = channel_.timings().tRFC;
      e.arg = rm_.owed(r, now);
      e.kind = telemetry::EventKind::kRefreshWindow;
      e.category = telemetry::kCatRefresh;
      e.channel = static_cast<std::uint16_t>(id_);
      e.rank = static_cast<std::uint16_t>(r);
      trace_->record(e);
    }
  }
  channel_.begin_refresh_segment(r, now, duration);
  block_queued_reads(r, duration, &Request::blocked_pause);
  refresh_started_[r] = true;
  refresh_remaining_[r] -= duration;
  if (refresh_remaining_[r] == 0) {
    rm_.on_refresh_issued(r);
    h_.refreshes->inc();
    refresh_started_[r] = false;
  }
  return true;
}

bool Controller::darp_bank_idle(RankId r, BankId b) const {
  const std::size_t slot = bank_slot(r, b);
  if (!queues_[0].bank(slot).empty()) return false;
  // During write drain reads are off the critical path anyway: a bank with
  // only writes pending is fair game (DARP's write-refresh
  // parallelization). Outside drain mode the bank must be fully idle.
  return draining_writes_ || queues_[1].bank(slot).empty();
}

BankId Controller::darp_pick_bank(RankId r, bool urgent) const {
  // Out-of-order selection: any bank not yet refreshed this round whose
  // queues make it idle. When every candidate has demand the refresh is
  // postponed — unless the JEDEC budget forces it, in which case the first
  // un-refreshed bank is taken regardless.
  const dram::Rank& rank = channel_.rank(r);
  const std::uint32_t nb = rank.num_banks();
  const std::uint32_t mask = darp_round_mask_[r];
  BankId fallback = static_cast<BankId>(nb);
  for (BankId b = 0; b < nb; ++b) {
    if ((mask >> b) & 1u) continue;
    if (rank.bank(b).state() == dram::BankState::kRefreshing) continue;
    if (darp_bank_idle(r, b)) return b;
    if (fallback == nb) fallback = b;
  }
  return urgent ? fallback : static_cast<BankId>(nb);
}

std::optional<dram::Command> Controller::bank_refresh_command(
    RankId r, Cycle now) const {
  if (rm_.owed(r, now) == 0) return std::nullopt;
  const dram::Rank& rank = channel_.rank(r);
  const bool urgent = rm_.urgent(r, now);
  // kPerBank, kSarp and kHira take the round-robin cursor bank; DARP picks
  // out of order and postpones while every candidate has demand.
  BankId b = next_refresh_bank_[r];
  if (cfg_.policy == RefreshPolicy::kDarp) {
    b = darp_pick_bank(r, urgent);
    if (b >= rank.num_banks()) return std::nullopt;
  }
  const dram::Bank& bank = rank.bank(b);
  const auto command = [this, r, b](dram::CmdType type, RowId row) {
    return dram::Command{type, DramCoord{id_, r, b, row, 0}, 0};
  };
  if (!policy_uses_subarrays(cfg_.policy)) {
    switch (bank.state()) {
      case dram::BankState::kActive:
        // An open bank (for DARP an idle one, or the forced fallback) is
        // precharged so REFpb becomes legal next.
        return command(dram::CmdType::kPrecharge, 0);
      case dram::BankState::kPrecharged:
        return command(dram::CmdType::kRefreshBank, 0);
      case dram::BankState::kRefreshing:
        return std::nullopt;  // cursor bank still locked
    }
    return std::nullopt;
  }
  const std::uint32_t sub = next_refresh_sub_[bank_slot(r, b)];
  if (bank.state() == dram::BankState::kActive) {
    // SARP waits for a precharged bank; HiRA additionally overlaps the
    // refresh with an open row in a *different* subarray.
    const bool conflict =
        cfg_.policy != RefreshPolicy::kHira ||
        (bank.open_row() && bank.subarray_of(*bank.open_row()) == sub);
    if (conflict) {
      // Postponed until the row closes, unless the budget is exhausted and
      // forces it closed so REFpb can go out.
      if (!urgent) return std::nullopt;
      return command(dram::CmdType::kPrecharge, 0);
    }
  } else if (bank.state() != dram::BankState::kPrecharged) {
    return std::nullopt;
  }
  return command(dram::CmdType::kRefreshBank, bank.subarray_row(sub));
}

bool Controller::refresh_bank_unit(RankId r, Cycle now) {
  const auto cmd = bank_refresh_command(r, now);
  if (!cmd || !channel_.can_issue(*cmd, now)) return false;
  issue_command(*cmd, now);
  if (cmd->type != dram::CmdType::kRefreshBank) return true;

  const BankId b = cmd->coord.bank;
  const std::uint32_t nb = channel_.rank(r).num_banks();
  rm_.on_refresh_issued(r);
  h_.bank_refreshes->inc();
  if (policy_uses_subarrays(cfg_.policy)) {
    std::uint32_t& sub = next_refresh_sub_[bank_slot(r, b)];
    record_subarray_refresh(r, b, sub, now);
    // Rotate subarrays within the bank (banks rotate below).
    sub = (sub + 1) %
          std::max<std::uint32_t>(1, channel_.rank(r).bank(b).subarrays());
  } else {
    // The whole bank is locked: every read queued to it waits out tRFCpb.
    const Cycle lock = channel_.timings().tRFCpb;
    const auto reads = queues_[0].bank(bank_slot(r, b));
    charge_refresh_blocking(reads.size(), lock);
    for (const RequestQueue::Entry& e : reads) {
      arena_[e.request].blocked_bank += static_cast<std::uint32_t>(lock);
    }
  }
  if (cfg_.policy == RefreshPolicy::kDarp) {
    darp_round_mask_[r] |= 1u << b;
    if (darp_round_mask_[r] == (1u << nb) - 1u) darp_round_mask_[r] = 0;
  } else {
    next_refresh_bank_[r] = static_cast<BankId>((b + 1) % nb);
  }
  return true;
}

void Controller::record_subarray_refresh(RankId r, BankId b, std::uint32_t sub,
                                         Cycle now) {
  // Only reads into the locked subarray are blocked; the rest of the bank
  // keeps serving (that asymmetry vs. whole-bank REFpb is SARP's win).
  {
    const dram::Bank& bank = channel_.rank(r).bank(b);
    std::uint64_t n = 0;
    for (const RequestQueue::Entry& e : queues_[0].bank(bank_slot(r, b))) {
      if (bank.subarray_of(e.row) != sub) continue;
      arena_[e.request].blocked_sub +=
          static_cast<std::uint32_t>(channel_.timings().tRFCpb);
      ++n;
    }
    charge_refresh_blocking(n, channel_.timings().tRFCpb);
  }
  if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
    telemetry::TraceEvent e;
    e.ts = now;
    e.dur = channel_.timings().tRFCpb;
    e.arg = sub;
    e.kind = telemetry::EventKind::kSubarrayRefresh;
    e.category = telemetry::kCatRefresh;
    e.channel = static_cast<std::uint16_t>(id_);
    e.rank = static_cast<std::uint16_t>(r);
    e.bank = static_cast<std::uint16_t>(b);
    trace_->record(e);
  }
}

void Controller::charge_refresh_blocking(std::uint64_t requests,
                                         Cycle cycles) {
  if (requests == 0 || cycles == 0) return;
  h_.refresh_blocked_cycles->inc(requests * cycles);
}

void Controller::block_queued_reads(RankId r, Cycle cycles,
                                    std::uint32_t Request::*cause) {
  const RequestQueue& reads = queues_[0];
  charge_refresh_blocking(reads.rank_size(r), cycles);
  for (BankId b = 0; b < num_banks_; ++b) {
    for (const RequestQueue::Entry& e : reads.bank(bank_slot(r, b))) {
      arena_[e.request].*cause += static_cast<std::uint32_t>(cycles);
    }
  }
}

Cycle Controller::issue_command(const dram::Command& cmd, Cycle now) {
  const Cycle done = channel_.issue(cmd, now);
  // Only ACT and PRE move a bank's open row (REF and REFpb need the row
  // closed, or, for HiRA's overlap, leave it open).
  if (cmd.type == dram::CmdType::kActivate ||
      cmd.type == dram::CmdType::kPrecharge) {
    const RankId r = cmd.coord.rank;
    const BankId b = cmd.coord.bank;
    const auto open = channel_.rank(r).bank(b).open_row();
    for (RequestQueue& q : queues_) q.set_open_row(r, b, open);
  }
  return done;
}

void Controller::issue_pick(const SchedulerPick& pick, Cycle now) {
  const Cycle done = issue_command(pick.cmd, now);
  const RequestIndex idx = pick.request;
  Request& req = arena_[idx];
  if (!pick.services_request()) {
    // A row activation picked for a specific queued read stamps its `act`
    // time: only the request that triggered the ACT pays activation wait;
    // row-hitting followers see pure queue wait. PRE picks (conflict
    // closes) carry request context too but stamp nothing.
    if (pick.cmd.type == dram::CmdType::kActivate && pick.queue_id == 0 &&
        req.act == kNeverCycle) {
      req.act = now;
    }
    return;
  }

  queues_[static_cast<std::size_t>(pick.queue_id)].erase(idx, req.coord,
                                                         channel_);
  if (pick.queue_id == 0) on_read_leaves_queue(req);
  if (pick.queue_id == 1) write_index_.erase(req.line_addr);

  if (req.type != ReqType::kPrefetch && listener_ != nullptr) {
    listener_->on_demand_serviced(req, now);
  }

  if (req.type == ReqType::kWrite) {
    // Writes are posted: the data burst retires silently.
    h_.writes_issued->inc();
    arena_.release(idx);
    return;
  }
  req.issued = now;
  req.completion = done;
  in_flight_.push_back(idx);
  inflight_min_completion_ = std::min(inflight_min_completion_, done);
  if (req.type == ReqType::kPrefetch) {
    ++inflight_prefetches_[req.coord.rank];
    h_.prefetch_issued->inc();
  }
}

void Controller::tick(Cycle now) {
  step(now);
  // The audit hook runs after every exit path of the per-tick work, when
  // queue/counter/refresh state is stable for this cycle.
  if (auditor_ != nullptr) auditor_->on_tick_end(*this, now);
}

void Controller::step(Cycle now) {
  channel_.tick(now);
  complete_bursts(now);
  if (listener_ != nullptr) listener_->on_tick(now);

  draining_writes_ = write_drain_after(draining_writes_);

  if (manage_refresh(now)) return;

  const SchedulerView view = scheduler_view(draining_writes_, now);
  if (const auto pick = scheduler_.pick(view.queues(), channel_, now, view)) {
    issue_pick(*pick, now);
  }
}

bool Controller::write_drain_after(bool draining) const {
  if (queues_[1].size() >= cfg_.sched.write_drain_high) draining = true;
  if (queues_[1].size() <= cfg_.sched.write_drain_low) draining = false;
  return draining;
}

bool Controller::SchedulerView::operator()(RankId r, int queue_id) const {
  if (ctrl->channel_.rank(r).refreshing()) return true;
  if ((urgent_mask >> r) & 1u) return true;
  // Prefetch reads flow through the whole lock window.
  if (queue_id == 2) return false;
  // Demand is held only while the rank seals for the REF command
  // (baseline enters sealing immediately at due time).
  return ctrl->phase_[r] == RefreshPhase::kSealing;
}

Controller::SchedulerView Controller::scheduler_view(bool draining,
                                                     Cycle now) const {
  SchedulerView view;
  view.ctrl = this;
  // Urgent pausing refreshes must be allowed to close: new demand to the
  // rank keeps re-activating rows, which can hold off the forced-full REF
  // past the next boundary and blow the JEDEC postponement budget.
  if (cfg_.policy == RefreshPolicy::kPausing) {
    for (RankId r = 0; r < channel_.num_ranks(); ++r) {
      if (rm_.urgent(r, now)) view.urgent_mask |= 1u << r;
    }
  }
  // Outside drain mode writes are only serviced when no read work exists at
  // all — opportunistic writes would otherwise pay bus-turnaround penalties
  // against latency-critical reads.
  auto& v = view.views;
  std::size_t& n = view.n_views;
  const auto add = [this, &v, &n](int id) {
    v[n++] = QueueView{&arena_, &request_queue(id), id};
  };
  if (draining) {
    add(1);
    add(0);
  } else {
    add(0);
    if (queues_[0].empty()) add(1);
  }
  add(2);
  return view;
}

std::vector<Request> Controller::drain_completed() {
  std::vector<Request> out;
  if (!completed_.empty()) {
    out.reserve(completed_.size());
    for (const RequestIndex idx : completed_) {
      out.push_back(arena_[idx]);
      arena_.release(idx);
    }
    completed_.clear();
  }
  if (auditor_ != nullptr) {
    for (const Request& req : out) auditor_->on_retired(req);
  }
  return out;
}

void Controller::complete_matching_reads(
    RankId rank,
    const std::function<std::optional<Cycle>(const Request&)>& probe) {
  // One pass over the read queue, oldest first: the probe sees the rank's
  // reads, and the serviced ones complete, in age order.
  const dram::Rank& rk = channel_.rank(rank);
  queues_[0].remove_if(arena_, channel_, [&](RequestIndex idx) {
    Request& req = arena_[idx];
    if (req.coord.rank != rank) return false;
    const auto done = probe(req);
    if (!done) return false;
    on_read_leaves_queue(req);
    req.completion = *done;
    req.serviced_by = ServicedBy::kSramBuffer;
    h_.sram_serviced->inc();
    if (rk.refreshing() && rk.refresh_done() > *done) {
      h_.attr_rop_recovered->inc(rk.refresh_done() - *done);
    }
    record_read_latency(req);
    completed_.push_back(idx);
    return true;
  });
}

void Controller::finalize(Cycle now) {
  if (listener_ != nullptr) listener_->on_finalize(now);
  channel_.settle_accounting(now);
  blocking_.finalize();
}

Cycle Controller::refresh_event_cycle(RankId r, Cycle now) const {
  // Earliest cycle the refresh machinery for (non-refreshing) rank `r` can
  // act or change eligibility. Waiting states return the cycle the wait
  // can end *without any command landing first*; progress that comes from
  // commands (drains, prefetch fills) is covered by the scheduler scan and
  // in-flight completions, and every executed tick recomputes this. The
  // next boundary crossing raises owed() and can flip urgency (and with it
  // a postponement, a pause, a drain or the elastic threshold).
  if (cfg_.policy == RefreshPolicy::kNoRefresh) return kNeverCycle;

  if (policy_uses_bank_units(cfg_.policy)) {
    // Without a command nothing is owed, the unit is postponed or its bank
    // is locked: that changes through commands (the scan), a per-bank lock
    // release (earliest_pb_release in next_event_cycle) or the boundary.
    const Cycle boundary = rm_.next_owed_increase(r, now);
    const auto cmd = bank_refresh_command(r, now);
    return cmd ? std::min(channel_.earliest_issue(*cmd), boundary) : boundary;
  }

  if (cfg_.policy == RefreshPolicy::kPausing) {
    if (refresh_remaining_[r] == 0) {
      if (rm_.owed(r, now) == 0) return rm_.next_owed_increase(r, now);
      return now + 1;  // the obligation opens on the next tick
    }
    if (pause_holds(r, now)) {
      // Paused: demand progress comes from the scan.
      return rm_.next_owed_increase(r, now);
    }
    // Resuming or forced: the next segment begins once the rank seals.
    return seal_step(r, now).ready;
  }

  if (phase_[r] == RefreshPhase::kIdle) {
    const std::uint32_t owed = rm_.owed(r, now);
    if (owed == 0) return rm_.next_owed_increase(r, now);
    if (cfg_.policy == RefreshPolicy::kElastic && !rm_.urgent(r, now)) {
      // Locks once the rank has been idle for the backlog-scaled
      // threshold. Arrivals reset the idle clock (and dirty-force a tick).
      return std::min(
          std::max(last_arrival_[r] + elastic_idle_threshold(owed), now + 1),
          rm_.next_owed_increase(r, now));
    }
    return now + 1;  // the lock engages on the next tick
  }

  // ROP holds the lock while pre-lock reads drain (through the scan or the
  // SRAM buffer's tick events) and, once sealed, while staged prefetches
  // are queued or in the air (scan and in-flight events); failing that,
  // the drain bound or the boundary ends the hold.
  const bool urgent = rm_.urgent(r, now);
  const bool draining = phase_[r] == RefreshPhase::kDraining;
  if (draining ? drain_holds(r, now, urgent)
               : prefetch_holds(r, now, urgent)) {
    return std::min(locked_at_[r] + cfg_.drain_bound,
                    rm_.next_owed_increase(r, now));
  }
  if (draining) return now + 1;  // the seal transition happens next tick
  return seal_step(r, now).ready;
}

Cycle Controller::next_event_cycle(Cycle now) const {
  // Completed requests await drain on the very next tick.
  if (!completed_.empty()) return now + 1;

  const Cycle soonest = now + 1;
  Cycle next = kNeverCycle;
  const auto consider = [&next, soonest](Cycle c) {
    if (c != kNeverCycle) next = std::min(next, std::max(c, soonest));
  };

  // Data bursts in flight (cached min, rebuilt by complete_bursts).
  consider(inflight_min_completion_);
  if (next == soonest) return next;

  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    const dram::Rank& rank = channel_.rank(r);
    if (rank.refreshing()) {
      // The thaw is observable (demand resumes, the ROP window closes,
      // pausing re-evaluates) and must land on its exact cycle.
      consider(rank.refresh_done());
      continue;  // the refresh machinery skips refreshing ranks
    }
    if (rank.pb_refreshing()) consider(rank.earliest_pb_release());
    consider(refresh_event_cycle(r, now));
    if (next == soonest) return next;
  }

  if (std::ranges::all_of(queues_, &RequestQueue::empty)) return next;

  // Scheduler horizon: the earliest cycle any queued request could put a
  // command on the bus. Queue sizes are frozen until the next executed
  // tick (enqueues dirty-force one), so the next tick's write-drain
  // hysteresis and view order are pure functions of current state.
  const SchedulerView view =
      scheduler_view(write_drain_after(draining_writes_), now);
  consider(scheduler_.earliest_issue_cycle(view.queues(), channel_, now, view));

  return next;
}

Cycle Controller::completion_lower_bound(Cycle pos) const {
  if (!completed_.empty()) return pos + 1;

  Cycle bound = kNeverCycle;
  const auto consider = [&bound](Cycle c) { bound = std::min(bound, c); };

  // In-flight data bursts: demand completions land exactly here; prefetch
  // fills can reentrantly service queued reads at the same cycle, so this
  // one cached minimum covers both (conservative-early when the earliest
  // burst is a prefetch with no matching read).
  consider(inflight_min_completion_);

  if (!queues_[0].empty()) {
    // A queued read not yet in flight needs an issue (earliest pos + 1)
    // plus the CAS latency and burst before data lands.
    const auto& t = channel_.timings();
    consider(pos + 1 + t.CL + t.tBL);

    // A refresh issue can probe the SRAM buffer and service queued reads
    // via the ROP listener. With the rank idle and nothing owed, that
    // cannot happen before the next tREFI boundary.
    if (listener_ != nullptr && cfg_.policy != RefreshPolicy::kNoRefresh) {
      for (RankId r = 0; r < channel_.num_ranks(); ++r) {
        if (queues_[0].rank_size(r) == 0) continue;
        if (phase_[r] != RefreshPhase::kIdle || refresh_remaining_[r] > 0 ||
            rm_.owed(r, pos) > 0) {
          consider(pos + 1);
        } else {
          consider(rm_.next_owed_increase(r, pos));
        }
      }
    }
  }

  if (bound == kNeverCycle) return bound;
  return std::max(bound, pos + 1);
}

}  // namespace rop::mem
