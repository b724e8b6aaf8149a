// FR-FCFS command scheduling (first-ready, first-come-first-served).
//
// Reads have priority over writes; writes are drained in batches once the
// write queue crosses a high watermark (Table III: "writes are scheduled in
// batches"). Prefetch reads are a third class that the ROP engine enqueues
// shortly before a refresh; they are serviced behind demand requests but
// coalesce with them on open rows (paper §IV-D).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dram/channel.h"
#include "dram/command.h"
#include "mem/request.h"

namespace rop::mem {

struct SchedulerConfig {
  std::size_t read_queue_capacity = 64;   // Table III: 64-entry read queue
  std::size_t write_queue_capacity = 64;  // Table III: 64-entry write queue
  std::size_t write_drain_high = 48;      // enter drain mode at this depth
  std::size_t write_drain_low = 16;       // leave drain mode at this depth
};

/// The scheduler's decision: which command to put on the command bus, and —
/// for column commands — which queued request it services.
struct SchedulerPick {
  dram::Command cmd;
  int queue_id = -1;            // index into the QueueView span
  std::size_t request_index = 0;  // index within that queue
  [[nodiscard]] bool services_request() const { return cmd.is_column(); }
};

/// A queue the scheduler may draw from this cycle, in priority order.
/// Queues store arena indices; the view carries the arena to dereference
/// them.
struct QueueView {
  const RequestArena* arena = nullptr;
  const std::vector<RequestIndex>* indices = nullptr;
  int id = -1;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }

  /// Choose the next command. `blocked(request, queue_id)` masks requests
  /// that must not be scheduled this cycle (rank refreshing, rank locked
  /// for an imminent refresh, post-lock arrivals during a drain, ...).
  ///
  /// Takes the first candidate (see for_each_candidate) ready at `now`
  /// that is a column command (a row hit: "first ready"); failing that,
  /// the first ready candidate of any kind, i.e. an ACT, or a PRE for a row
  /// conflict that no queued request still row-hits.
  template <typename BlockedPred>
  [[nodiscard]] std::optional<SchedulerPick> pick(
      std::span<const QueueView> queues, const dram::Channel& channel,
      Cycle now, const BlockedPred& blocked) const;

  /// Earliest cycle > `now` at which pick() over the same (frozen) queues
  /// could return a command, or kNeverCycle when no unblocked request can
  /// ever issue without other state changing first: the minimum over
  /// pick()'s candidates of their earliest issue cycles, clamped to
  /// `now + 1` (at most one command leaves per cycle, so a second ready
  /// candidate simply waits its turn). Blocked requests are skipped; their
  /// unblock points (refresh completion, seal/REF transitions) are separate
  /// controller events. Returns as soon as a candidate at `now + 1` is
  /// found.
  template <typename BlockedPred>
  [[nodiscard]] Cycle earliest_issue_cycle(std::span<const QueueView> queues,
                                           const dram::Channel& channel,
                                           Cycle now,
                                           const BlockedPred& blocked) const;

 private:
  /// One request's candidate command and the earliest cycle it can issue.
  struct Candidate {
    SchedulerPick pick;
    Cycle when = kNeverCycle;
  };

  /// Where a bank's memo entries live in memo_ for the current channel.
  struct MemoShape {
    std::uint32_t banks = 0;     // banks per rank
    std::uint32_t subs = 0;      // subarrays per bank
    std::size_t act_base = 0;    // first ACT entry
  };

  /// Visit the candidate command of every unblocked request, in queue
  /// priority then age order, until `visit` returns true. A request's
  /// candidate is the column command on an open-row hit; with `rows`, also
  /// an ACT on a precharged or refreshing bank, and a PRE on a row
  /// conflict. `when` is Channel::earliest_issue, with two state rules on
  /// top: a refreshing bank's ACT waits at least for the next tick, whose
  /// Channel::tick releases the lock; and a PRE is never issuable while a
  /// queued request still row-hits the open row (the row stays open for
  /// that taker until an issue or an enqueue changes the queues; counting
  /// the PRE would put the bound in the past and make the event loop tick
  /// every cycle).
  template <typename BlockedPred, typename Visit>
  void for_each_candidate(std::span<const QueueView> queues,
                          const dram::Channel& channel, Cycle now,
                          const BlockedPred& blocked, const MemoShape& shape,
                          bool rows, const Visit& visit) const;

  /// Size the memo for `channel` and invalidate it: one generation per
  /// pick() or earliest_issue_cycle() call, over which the channel is
  /// frozen.
  MemoShape reset_memo(const dram::Channel& channel) const {
    MemoShape shape;
    if (channel.num_ranks() > 0) {
      shape.banks = channel.rank(0).num_banks();
      shape.subs = channel.rank(0).bank(0).subarrays();
    }
    const std::size_t banks = std::size_t{channel.num_ranks()} * shape.banks;
    shape.act_base = banks * kBankMemos;
    if (memo_.size() < shape.act_base + banks * shape.subs) {
      memo_.resize(shape.act_base + banks * shape.subs);
    }
    ++generation_;
    return shape;
  }

  SchedulerConfig cfg_;

  // A command's earliest issue cycle depends on the request only through
  // its row: column candidates all target the bank's open row, PRE ignores
  // the row, and ACT sees it only through its subarray's refresh lock. One
  // memo entry per (bank, command kind), and per (bank, subarray) for ACT,
  // therefore answers every same-bank candidate, collapsing the O(queue)
  // legality probes (and open-row taker scans) that dominate
  // saturated-queue cycles where nothing can issue. Entries are valid only
  // in the generation that filled them, so invalidating the memo costs one
  // increment, not a clear. memo_ holds kBankMemos entries per bank, then
  // the ACT entries from MemoShape::act_base.
  struct Memo {
    std::uint64_t generation = 0;
    Cycle when = 0;
  };
  enum BankMemo : std::size_t { kReadMemo, kWriteMemo, kPreMemo, kBankMemos };
  mutable std::vector<Memo> memo_;
  mutable std::uint64_t generation_ = 0;
};

namespace scheduler_detail {

inline dram::CmdType column_cmd_for(const Request& req) {
  return req.type == ReqType::kWrite ? dram::CmdType::kWrite
                                     : dram::CmdType::kRead;
}

/// True when any request in any queue would row-hit bank `coord`'s
/// currently open row (used to avoid closing rows that still have takers).
inline bool open_row_has_taker(std::span<const QueueView> queues,
                               const DramCoord& coord, RowId open_row) {
  for (const QueueView& qv : queues) {
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = (*qv.arena)[ri];
      if (req.coord.rank == coord.rank && req.coord.bank == coord.bank &&
          req.coord.row == open_row) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace scheduler_detail

template <typename BlockedPred, typename Visit>
void Scheduler::for_each_candidate(std::span<const QueueView> queues,
                                   const dram::Channel& channel, Cycle now,
                                   const BlockedPred& blocked,
                                   const MemoShape& shape, bool rows,
                                   const Visit& visit) const {
  for (const QueueView& qv : queues) {
    std::size_t i = 0;
    for (const RequestIndex ri : *qv.indices) {
      const Request& req = (*qv.arena)[ri];
      const std::size_t at = i++;
      if (blocked(req, qv.id)) continue;
      const dram::Bank& bank =
          channel.rank(req.coord.rank).bank(req.coord.bank);
      const std::size_t slot =
          std::size_t{req.coord.rank} * shape.banks + req.coord.bank;
      dram::Command cmd{dram::CmdType::kActivate, req.coord, req.id};
      std::size_t entry = 0;
      if (bank.state() == dram::BankState::kActive &&
          *bank.open_row() == req.coord.row) {
        cmd.type = scheduler_detail::column_cmd_for(req);
        entry = slot * kBankMemos +
                (cmd.type == dram::CmdType::kWrite ? kWriteMemo : kReadMemo);
      } else if (!rows) {
        continue;
      } else if (bank.state() == dram::BankState::kActive) {
        cmd = dram::Command{dram::CmdType::kPrecharge, req.coord, 0};
        entry = slot * kBankMemos + kPreMemo;
      } else {
        entry = shape.act_base + slot * shape.subs +
                bank.subarray_of(req.coord.row);
      }
      Memo& memo = memo_[entry];
      if (memo.generation != generation_) {
        memo.generation = generation_;
        if (cmd.type == dram::CmdType::kPrecharge &&
            scheduler_detail::open_row_has_taker(queues, req.coord,
                                                 *bank.open_row())) {
          memo.when = kNeverCycle;
        } else {
          memo.when = channel.earliest_issue(cmd);
          if (bank.state() == dram::BankState::kRefreshing) {
            memo.when = std::max(memo.when, now + 1);
          }
        }
      }
      if (visit(Candidate{SchedulerPick{cmd, qv.id, at}, memo.when})) return;
    }
  }
}

template <typename BlockedPred>
std::optional<SchedulerPick> Scheduler::pick(std::span<const QueueView> queues,
                                             const dram::Channel& channel,
                                             Cycle now,
                                             const BlockedPred& blocked) const {
  const MemoShape shape = reset_memo(channel);
  std::optional<SchedulerPick> found;
  const auto first_ready = [&found, now](const Candidate& c) {
    if (c.when > now) return false;
    found = c.pick;
    return true;
  };
  for_each_candidate(queues, channel, now, blocked, shape, false, first_ready);
  if (!found) {
    for_each_candidate(queues, channel, now, blocked, shape, true,
                       first_ready);
  }
  return found;
}

template <typename BlockedPred>
Cycle Scheduler::earliest_issue_cycle(std::span<const QueueView> queues,
                                      const dram::Channel& channel, Cycle now,
                                      const BlockedPred& blocked) const {
  const MemoShape shape = reset_memo(channel);
  const Cycle soonest = now + 1;
  Cycle best = kNeverCycle;
  for_each_candidate(queues, channel, now, blocked, shape, true,
                     [&best, soonest](const Candidate& c) {
                       best = std::min(best, std::max(c.when, soonest));
                       return best <= soonest;
                     });
  return best;
}

}  // namespace rop::mem
