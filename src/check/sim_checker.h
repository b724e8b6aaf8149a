// SimChecker: machine-checked simulator invariants (opt-in).
//
// PR 1 made the controller hot paths rely on incrementally-maintained
// bookkeeping (per-rank pending counters, the write_index_ line set, SRAM
// buffer coherence, refresh postponement accounting). The checker recomputes
// each of those from the ground-truth structures and cross-checks the stat
// counters for request conservation, so any future fast-path change that
// drifts from the slow-path definition fails loudly in debug/CI runs
// instead of silently skewing results.
//
// Invariant families (docs/CORRECTNESS.md has the full catalogue):
//  (a) counter/index consistency — pending_reads_/pending_writes_/
//      queued_prefetches_/inflight_prefetches_ equal a fresh count of the
//      queues, write_index_ is exactly the set of queued write lines, and
//      each queue's per-bank scheduler index lists exactly the queue's
//      requests, bank by bank in queue order, marks exactly the banks that
//      have some, and counts each bank's open-row hits right;
//  (b) buffer coherence — the SRAM buffer never holds a line with a queued
//      newer write on its channel;
//  (c) refresh deadlines — per-rank owed refreshes never exceed the JEDEC
//      postponement budget, so every tREFI interval is eventually covered
//      (out-of-order per-bank refresh under DARP included);
//  (c') subarray locks (SARP/HiRA) — a bank with an in-flight subarray
//      refresh is never whole-bank kRefreshing, at most one of its
//      subarrays is locked at a time, and an open row never lives in the
//      locked subarray;
//  (d) request conservation — enqueued == completed + still-queued +
//      in-flight per request class, and completion >= arrival for every
//      retired request.
//
// (a)-(c) run on every controller tick via the ControllerAuditor hook; (d)
// runs at end of run in finalize(). A detached checker costs one null-check
// per tick (see bench_micro_hotpaths).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/memory_system.h"
#include "rop/rop_engine.h"

namespace rop::check {

struct CheckerConfig {
  /// Keep the first N violation messages verbatim (all are still counted).
  std::uint32_t max_reports = 16;
};

class SimChecker final : public mem::ControllerAuditor {
 public:
  explicit SimChecker(CheckerConfig cfg = {});
  ~SimChecker() override;

  SimChecker(const SimChecker&) = delete;
  SimChecker& operator=(const SimChecker&) = delete;

  /// Register as the auditor of every controller in `mem`. The checker must
  /// outlive the ticking of `mem` (the destructor detaches defensively).
  void attach(mem::MemorySystem& mem);

  /// Channel-scoped variant for the sharded loop: audit only channel `ch`,
  /// so each shard's ticks call into a checker owned by that shard and no
  /// checker state is shared across workers. The global conservation audit
  /// in finalize() runs only on the channel-0 checker (it reads the folded
  /// shared registry, so it must run after the run's stat fold).
  void attach(mem::MemorySystem& mem, ChannelId ch);

  /// Include a ROP engine's SRAM buffer in the per-tick coherence sweep.
  void watch(const engine::RopEngine& eng);

  /// Attach a trace sink (non-owning): the first violation snapshots the
  /// last `context_events` trace events and summary() appends them, so a
  /// CI failure carries the command/refresh timeline that led up to it.
  void set_trace(const telemetry::TraceSink* trace,
                 std::size_t context_events = 32);

  // mem::ControllerAuditor
  void on_tick_end(const mem::Controller& ctrl, Cycle now) override;
  void on_retired(const mem::Request& req) override;

  /// End-of-run audit: request conservation across all channels and final
  /// refresh-coverage deadlines. Call after the run loop (and after the
  /// final drain); safe to call once per attached memory system.
  void finalize();

  /// Invariant family (e), CPI-stack exactness: the attribution ledger's
  /// disjoint categories must sum bit-exactly to the core's cycles. The
  /// experiment layer calls this once per core with the frozen values
  /// (unresolved critical span already folded into `other`); any gap means
  /// a cycle was double-billed or dropped. Must run before finalize().
  void audit_cpi(std::uint32_t core, std::uint64_t cycles,
                 std::uint64_t stack_sum);

  [[nodiscard]] bool ok() const { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] std::uint64_t ticks_checked() const { return ticks_checked_; }
  [[nodiscard]] std::uint64_t requests_retired() const { return retired_; }
  [[nodiscard]] const std::vector<std::string>& reports() const {
    return reports_;
  }
  /// One-line verdict plus the retained violation reports (for ropsim
  /// --check and CI logs).
  [[nodiscard]] std::string summary() const;

 private:
  void violate(std::string msg);
  void check_queue_counters(const mem::Controller& c, Cycle now);
  void check_refresh_deadlines(const mem::Controller& c, Cycle now);
  void check_subarray_locks(const mem::Controller& c, Cycle now);
  void check_buffer_coherence(const mem::Controller& c, Cycle now);
  void check_queue_index(const mem::Controller& c, Cycle now);
  void check_conservation();

  CheckerConfig cfg_;
  mem::MemorySystem* mem_ = nullptr;
  /// Channel this checker audits; kInvalidChannel = all of them.
  static constexpr ChannelId kAllChannels = ~ChannelId{0};
  ChannelId scope_ = kAllChannels;
  std::vector<const engine::RopEngine*> engines_;
  const telemetry::TraceSink* trace_ = nullptr;
  std::size_t trace_context_ = 32;
  std::vector<std::string> trace_tail_;  // captured at the first violation
  std::vector<std::string> reports_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t ticks_checked_ = 0;
  std::uint64_t retired_ = 0;
  Cycle last_now_ = 0;
  bool finalized_ = false;
};

}  // namespace rop::check
