#include "check/sim_checker.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "telemetry/trace_sink.h"

namespace rop::check {

SimChecker::SimChecker(CheckerConfig cfg) : cfg_(cfg) {}

SimChecker::~SimChecker() {
  // Defensive detach: a controller must never hold a dangling auditor.
  if (mem_ == nullptr) return;
  for (ChannelId ch = 0; ch < mem_->num_channels(); ++ch) {
    if (mem_->controller(ch).auditor() == this) {
      mem_->controller(ch).set_auditor(nullptr);
    }
  }
}

void SimChecker::attach(mem::MemorySystem& mem) {
  ROP_ASSERT(mem_ == nullptr && "one checker audits one memory system");
  mem_ = &mem;
  for (ChannelId ch = 0; ch < mem.num_channels(); ++ch) {
    mem.controller(ch).set_auditor(this);
  }
}

void SimChecker::attach(mem::MemorySystem& mem, ChannelId ch) {
  ROP_ASSERT(mem_ == nullptr && "one checker audits one memory system");
  ROP_ASSERT(ch < mem.num_channels());
  mem_ = &mem;
  scope_ = ch;
  mem.controller(ch).set_auditor(this);
}

void SimChecker::watch(const engine::RopEngine& eng) {
  engines_.push_back(&eng);
}

void SimChecker::set_trace(const telemetry::TraceSink* trace,
                           std::size_t context_events) {
  trace_ = trace;
  trace_context_ = context_events;
}

void SimChecker::violate(std::string msg) {
  ++violation_count_;
  if (reports_.size() < cfg_.max_reports) reports_.push_back(std::move(msg));
  // Snapshot the trace tail at the *first* violation: that is the timeline
  // that led into the bug; later violations are usually fallout.
  if (violation_count_ == 1 && trace_ != nullptr) {
    trace_tail_ = trace_->format_recent(trace_context_);
  }
}

void SimChecker::on_tick_end(const mem::Controller& ctrl, Cycle now) {
  ++ticks_checked_;
  last_now_ = std::max(last_now_, now);
  check_queue_counters(ctrl, now);
  check_refresh_deadlines(ctrl, now);
  check_subarray_locks(ctrl, now);
  check_buffer_coherence(ctrl, now);
  check_queue_index(ctrl, now);
}

void SimChecker::on_retired(const mem::Request& req) {
  ++retired_;
  if (req.completion < req.arrival) {
    std::ostringstream os;
    os << "[conservation] request " << req.id << " line 0x" << std::hex
       << req.line_addr << std::dec << " retired with completion "
       << req.completion << " < arrival " << req.arrival;
    violate(os.str());
  }
}

void SimChecker::check_queue_counters(const mem::Controller& c, Cycle now) {
  const std::uint32_t ranks = c.channel().num_ranks();
  std::vector<std::uint32_t> reads(ranks, 0);
  std::vector<std::uint32_t> writes(ranks, 0);
  std::vector<std::uint32_t> queued_pf(ranks, 0);
  std::vector<std::uint32_t> inflight_pf(ranks, 0);

  for (const auto& r : c.read_queue()) ++reads.at(r.coord.rank);
  for (const auto& r : c.write_queue()) ++writes.at(r.coord.rank);
  for (const auto& r : c.prefetch_queue()) ++queued_pf.at(r.coord.rank);
  for (const auto& r : c.in_flight()) {
    if (r.type == mem::ReqType::kPrefetch) ++inflight_pf.at(r.coord.rank);
    // Bursts with completion <= now were drained at the top of this tick;
    // anything issued later lands strictly in the future.
    if (r.completion <= now) {
      std::ostringstream os;
      os << "[counters] ch " << c.id() << " in-flight request " << r.id
         << " completion " << r.completion << " <= now " << now;
      violate(os.str());
    }
  }

  const auto mismatch = [&](const char* what, RankId rank,
                            std::uint64_t cached, std::uint64_t actual) {
    std::ostringstream os;
    os << "[counters] ch " << c.id() << " rank " << rank << " cycle " << now
       << ": " << what << " counter " << cached << " != queue count "
       << actual;
    violate(os.str());
  };
  for (RankId r = 0; r < ranks; ++r) {
    if (c.pending_reads(r) != reads[r]) {
      mismatch("pending_reads", r, c.pending_reads(r), reads[r]);
    }
    if (c.pending_writes(r) != writes[r]) {
      mismatch("pending_writes", r, c.pending_writes(r), writes[r]);
    }
    if (c.queued_prefetches(r) != queued_pf[r]) {
      mismatch("queued_prefetches", r, c.queued_prefetches(r), queued_pf[r]);
    }
    if (c.inflight_prefetches(r) != inflight_pf[r]) {
      mismatch("inflight_prefetches", r, c.inflight_prefetches(r),
               inflight_pf[r]);
    }
  }

  // Drain bookkeeping: while a rank is locked for refresh, the cached
  // drain_pending counter must equal the queued reads that arrived at or
  // before the lock (the naive definition the event core replaced with
  // incremental updates).
  for (RankId r = 0; r < ranks; ++r) {
    const Cycle lock = c.locked_at(r);
    if (lock == kNeverCycle) continue;
    std::uint32_t old_reads = 0;
    for (const auto& req : c.read_queue()) {
      if (req.coord.rank == r && req.arrival <= lock) ++old_reads;
    }
    if (c.drain_pending(r) != old_reads) {
      mismatch("drain_pending", r, c.drain_pending(r), old_reads);
    }
  }

  // write_index_ must be *exactly* the queued write lines: every queued
  // write present, and no stale leftover entries (coalescing guarantees
  // one queued write per line, so the sizes must match too).
  if (c.write_index().size() != c.write_queue().size()) {
    std::ostringstream os;
    os << "[counters] ch " << c.id() << " cycle " << now
       << ": write_index size " << c.write_index().size()
       << " != write queue size " << c.write_queue().size();
    violate(os.str());
  }
  for (const auto& w : c.write_queue()) {
    if (c.write_index().count(w.line_addr) == 0) {
      std::ostringstream os;
      os << "[counters] ch " << c.id() << " cycle " << now
         << ": queued write line 0x" << std::hex << w.line_addr << std::dec
         << " missing from write_index";
      violate(os.str());
    }
  }
}

void SimChecker::check_refresh_deadlines(const mem::Controller& c,
                                         Cycle now) {
  if (c.config().policy == mem::RefreshPolicy::kNoRefresh) return;
  const auto& rm = c.refresh_manager();
  const std::uint32_t budget =
      c.channel().timings().max_postponed_refreshes;
  for (RankId r = 0; r < c.channel().num_ranks(); ++r) {
    if (rm.owed(r, now) > budget) {
      std::ostringstream os;
      os << "[refresh] ch " << c.id() << " rank " << r << " cycle " << now
         << ": owed " << rm.owed(r, now) << " refresh units exceeds the "
         << "JEDEC postponement budget " << budget;
      violate(os.str());
    }
  }
}

void SimChecker::check_subarray_locks(const mem::Controller& c, Cycle now) {
  for (RankId r = 0; r < c.channel().num_ranks(); ++r) {
    const auto& rank = c.channel().rank(r);
    for (BankId b = 0; b < rank.num_banks(); ++b) {
      const auto& bank = rank.bank(b);
      if (bank.subarrays() <= 1) continue;
      // At most one subarray refresh in flight per bank.
      std::uint32_t locked = 0;
      for (std::uint32_t s = 0; s < bank.subarrays(); ++s) {
        if (now < bank.subarray_busy_until(s)) ++locked;
      }
      if (locked > 1) {
        std::ostringstream os;
        os << "[subarray] ch " << c.id() << " rank " << r << " bank " << b
           << " cycle " << now << ": " << locked
           << " subarrays locked at once (max 1 REFpb in flight per bank)";
        violate(os.str());
      }
      const auto sub = bank.refreshing_subarray(now);
      if (!sub.has_value()) continue;
      // Subarray refresh is not a whole-bank lock: the bank must stay out
      // of kRefreshing so the other subarrays keep serving.
      if (bank.state() == dram::BankState::kRefreshing) {
        std::ostringstream os;
        os << "[subarray] ch " << c.id() << " rank " << r << " bank " << b
           << " cycle " << now << ": subarray " << *sub
           << " refreshing while bank is whole-bank kRefreshing";
        violate(os.str());
      }
      // An open row must never live in the locked subarray: the HiRA
      // overlap is only legal across *different* subarrays.
      if (bank.state() == dram::BankState::kActive &&
          bank.open_row().has_value() &&
          bank.subarray_of(*bank.open_row()) == *sub) {
        std::ostringstream os;
        os << "[subarray] ch " << c.id() << " rank " << r << " bank " << b
           << " cycle " << now << ": open row " << *bank.open_row()
           << " lives in refreshing subarray " << *sub;
        violate(os.str());
      }
    }
  }
}

void SimChecker::check_buffer_coherence(const mem::Controller& c,
                                        Cycle now) {
  for (const engine::RopEngine* eng : engines_) {
    if (&eng->controller() != &c) continue;
    const auto& buf = eng->buffer();
    if (buf.size() > buf.capacity()) {
      std::ostringstream os;
      os << "[buffer] ch " << c.id() << " cycle " << now << ": buffer holds "
         << buf.size() << " lines, capacity " << buf.capacity();
      violate(os.str());
    }
    if (!buf.owner().has_value()) continue;
    for (const Address line : buf.lines()) {
      if (c.write_index().count(line) != 0) {
        std::ostringstream os;
        os << "[buffer] ch " << c.id() << " cycle " << now
           << ": SRAM buffer holds line 0x" << std::hex << line << std::dec
           << " which has a queued newer write";
        violate(os.str());
      }
    }
  }
}

void SimChecker::check_queue_index(const mem::Controller& c, Cycle now) {
  const dram::Channel& ch = c.channel();
  const auto fail = [&](int q, const std::string& what) {
    std::ostringstream os;
    os << "[queue-index] ch " << c.id() << " queue " << q << " cycle " << now
       << ": " << what;
    violate(os.str());
  };
  const mem::RequestView queues[] = {c.read_queue(), c.write_queue(),
                                     c.prefetch_queue()};
  for (int q = 0; q < 3; ++q) {
    const mem::RequestView& queue = queues[q];
    const mem::QueueIndex& index = c.queue_index(q);
    if (index.size() != queue.size()) {
      fail(q, "index holds " + std::to_string(index.size()) +
                  " requests, queue " + std::to_string(queue.size()));
    }
    // Walking the queue oldest first must meet each bank's entries in
    // order, with ages rising across banks.
    std::vector<std::size_t> seen(
        static_cast<std::size_t>(ch.num_ranks()) * index.banks(), 0);
    std::uint64_t last_age = 0;
    bool ordered = true;
    for (std::size_t i = 0; i < queue.size() && ordered; ++i) {
      const DramCoord& coord = queue[i].coord;
      const std::size_t slot = index.slot(coord.rank, coord.bank);
      const auto entries = index.bank(slot);
      const std::size_t at = seen[slot]++;
      if (at >= entries.size() || entries[at].request != queue.index(i) ||
          entries[at].row != coord.row ||
          (i > 0 && entries[at].age <= last_age)) {
        fail(q, "queue position " + std::to_string(i) + " (rank " +
                    std::to_string(coord.rank) + " bank " +
                    std::to_string(coord.bank) +
                    ") is not the next entry of its bank");
        ordered = false;
      }
      last_age = entries[at].age;
    }
    if (!ordered) continue;
    std::vector<bool> busy(seen.size(), false);
    index.for_each_busy([&busy](std::size_t slot) {
      busy[slot] = true;
      return false;
    });
    for (std::size_t slot = 0; slot < seen.size(); ++slot) {
      const std::string bank_name = "bank slot " + std::to_string(slot);
      if (seen[slot] != index.bank(slot).size()) {
        fail(q, bank_name + " lists requests that are not queued");
      }
      if (busy[slot] != (seen[slot] > 0)) {
        fail(q, bank_name + (busy[slot] ? " is empty but marked busy"
                                        : " has requests but is not busy"));
      }
      const dram::Bank& bank =
          ch.rank(static_cast<RankId>(slot / index.banks()))
              .bank(static_cast<BankId>(slot % index.banks()));
      const auto hits = static_cast<std::uint32_t>(std::ranges::count_if(
          index.bank(slot), [&bank](const mem::QueueIndex::Entry& e) {
            return bank.open_row() == e.row;
          }));
      if (index.open_row_hits(slot) != hits) {
        fail(q, bank_name + " counts " +
                    std::to_string(index.open_row_hits(slot)) +
                    " open-row hits, has " + std::to_string(hits));
      }
    }
  }
}

void SimChecker::check_conservation() {
  const StatRegistry& stats = *mem_->stats();

  std::uint64_t queued_reads = 0;
  std::uint64_t queued_writes = 0;
  std::uint64_t queued_pf = 0;
  std::uint64_t inflight_demand = 0;
  std::uint64_t inflight_pf = 0;
  for (ChannelId ch = 0; ch < mem_->num_channels(); ++ch) {
    const auto& c = mem_->controller(ch);
    queued_reads += c.read_queue().size();
    queued_writes += c.write_queue().size();
    queued_pf += c.prefetch_queue().size();
    for (const auto& r : c.in_flight()) {
      if (r.type == mem::ReqType::kPrefetch) {
        ++inflight_pf;
      } else {
        ++inflight_demand;
      }
    }
  }

  const auto identity = [this](const char* what, std::uint64_t enqueued,
                               std::uint64_t accounted) {
    if (enqueued == accounted) return;
    std::ostringstream os;
    os << "[conservation] " << what << ": enqueued " << enqueued
       << " != completed + queued + in-flight " << accounted;
    violate(os.str());
  };

  // Reads: every accepted read either retired (its latency was recorded at
  // that moment, drained or not), is still queued, or is in flight.
  const auto* lat = stats.find_scalar("mem.read_latency");
  const std::uint64_t retired_reads = lat != nullptr ? lat->count() : 0;
  identity("reads", stats.counter_value("mem.reads"),
           retired_reads + queued_reads + inflight_demand);

  // Writes are posted: issued to DRAM, coalesced into a queued entry, or
  // still queued.
  identity("writes", stats.counter_value("mem.writes"),
           stats.counter_value("mem.writes_issued") +
               stats.counter_value("mem.write_coalesced") + queued_writes);

  // Prefetches: enqueued ones are queued, dropped, or issued; issued ones
  // are in flight, dropped stale at fill time, or completed.
  identity("prefetches (queue)",
           stats.counter_value("rop.prefetch_enqueued"),
           stats.counter_value("rop.prefetch_issued") +
               stats.counter_value("rop.prefetch_dropped") + queued_pf);
  identity("prefetches (in flight)",
           stats.counter_value("rop.prefetch_issued"),
           stats.counter_value("rop.prefetch_completed") +
               stats.counter_value("rop.prefetch_dropped_stale") +
               inflight_pf);
}

void SimChecker::audit_cpi(std::uint32_t core, std::uint64_t cycles,
                           std::uint64_t stack_sum) {
  if (stack_sum == cycles) return;
  std::ostringstream os;
  os << "(e) CPI stack: core " << core << " categories sum to " << stack_sum
     << " but cycles = " << cycles << " (delta "
     << (stack_sum > cycles ? "+" : "-")
     << (stack_sum > cycles ? stack_sum - cycles : cycles - stack_sum)
     << ")";
  violate(os.str());
}

void SimChecker::finalize() {
  ROP_ASSERT(mem_ != nullptr && "finalize requires an attached memory");
  if (finalized_) return;
  finalized_ = true;
  // Conservation is a whole-memory identity against the shared registry;
  // channel-scoped checkers delegate it to the channel-0 instance so the
  // sharded run audits it exactly once (after the final stat fold).
  if (scope_ == kAllChannels || scope_ == 0) check_conservation();
  // Final deadline sweep: a backlog beyond the budget at end of run means
  // some tREFI interval was never covered.
  for (ChannelId ch = 0; ch < mem_->num_channels(); ++ch) {
    if (scope_ != kAllChannels && ch != scope_) continue;
    check_refresh_deadlines(mem_->controller(ch), last_now_);
  }
}

std::string SimChecker::summary() const {
  std::ostringstream os;
  os << "checker: " << (ok() ? "OK" : "FAILED") << " (" << ticks_checked_
     << " ticks audited, " << retired_ << " requests retired, "
     << violation_count_ << " violations)";
  for (const auto& r : reports_) os << "\n  " << r;
  if (violation_count_ > reports_.size()) {
    os << "\n  ... " << violation_count_ - reports_.size() << " more";
  }
  if (!trace_tail_.empty()) {
    os << "\n  trace context (last " << trace_tail_.size()
       << " events before the first violation):";
    for (const auto& line : trace_tail_) os << "\n    " << line;
  }
  return os.str();
}

}  // namespace rop::check
