// FR-FCFS command scheduling (first-ready, first-come-first-served).
//
// Reads have priority over writes; writes are drained in batches once the
// write queue crosses a high watermark (Table III: "writes are scheduled in
// batches"). Prefetch reads are a third class that the ROP engine enqueues
// shortly before a refresh; they are serviced behind demand requests but
// coalesce with them on open rows (paper §IV-D).
#pragma once

#include <algorithm>
#include <bit>
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

/// One request queue indexed by DRAM bank: each (rank, bank) slot lists its
/// queued requests in age order, with the count of them that hit the bank's
/// open row. The owner keeps it in step with the queue (push on enqueue,
/// erase on every removal) and with the channel (set_open_row on every ACT
/// and PRE), so the scheduler's cost follows the banks with work, not the
/// requests. It is derived state: rebuilt from the queue, never serialized.
/// Its storage is sized for the channel at construction.
class QueueIndex {
 public:
  struct Entry {
    std::uint64_t age = 0;  // enqueue order within the queue: smaller is older
    RequestIndex request = kNoRequest;
    RowId row = 0;
  };

  QueueIndex(std::uint32_t ranks, std::uint32_t banks)
      : banks_(banks),
        slots_(static_cast<std::size_t>(ranks) * banks),
        busy_((slots_.size() + 63) / 64) {}

  [[nodiscard]] std::uint32_t banks() const { return banks_; }
  [[nodiscard]] std::size_t slot(RankId r, BankId b) const {
    return static_cast<std::size_t>(r) * banks_ + b;
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Append `request`, targeting `coord`, as the youngest of its bank.
  /// `hit`: coord.row is the bank's open row.
  void push(RequestIndex request, const DramCoord& coord, bool hit) {
    const std::size_t s = slot(coord.rank, coord.bank);
    slots_[s].entries.push_back(Entry{next_age_++, request, coord.row});
    slots_[s].hits += hit ? 1 : 0;
    busy_[s / 64] |= std::uint64_t{1} << (s % 64);
    ++size_;
  }

  /// Remove `request` (queued to `coord`; `hit` as for push).
  void erase(RequestIndex request, const DramCoord& coord, bool hit) {
    const std::size_t s = slot(coord.rank, coord.bank);
    std::vector<Entry>& entries = slots_[s].entries;
    const auto it = std::ranges::find(entries, request, &Entry::request);
    ROP_ASSERT(it != entries.end());
    entries.erase(it);
    slots_[s].hits -= hit ? 1 : 0;
    if (entries.empty()) busy_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    --size_;
  }

  /// Bank (r, b) opened `row`, or closed its row (nullopt).
  void set_open_row(RankId r, BankId b, std::optional<RowId> row) {
    Slot& s = slots_[slot(r, b)];
    s.hits = row ? static_cast<std::uint32_t>(
                       std::ranges::count(s.entries, *row, &Entry::row))
                 : 0;
  }

  /// Rebuild from `queue` (oldest first) over the channel's open rows.
  void assign(std::span<const RequestIndex> queue, const RequestArena& arena,
              const dram::Channel& channel) {
    for (Slot& s : slots_) s = Slot{};
    std::ranges::fill(busy_, 0);
    size_ = 0;
    next_age_ = 0;
    for (const RequestIndex idx : queue) {
      const DramCoord& c = arena[idx].coord;
      const auto open = channel.rank(c.rank).bank(c.bank).open_row();
      push(idx, c, open == c.row);
    }
  }

  /// The bank's entries, oldest first.
  [[nodiscard]] std::span<const Entry> bank(std::size_t s) const {
    return slots_[s].entries;
  }
  /// How many of the bank's entries hit its open row.
  [[nodiscard]] std::uint32_t open_row_hits(std::size_t s) const {
    return slots_[s].hits;
  }

  /// Call `visit(slot)` for each slot with entries, in slot order, until it
  /// returns true; true when it did.
  template <typename Visit>
  bool for_each_busy(const Visit& visit) const {
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
        if (visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)))) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  struct Slot {
    std::vector<Entry> entries;
    std::uint32_t hits = 0;
  };

  std::uint32_t banks_ = 0;
  std::uint64_t next_age_ = 0;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> busy_;  // one bit per slot with entries
};

/// The scheduler's decision: which command to put on the command bus, and
/// which queued request it is for (the one a column command services, or
/// the one an ACT or PRE makes way for).
struct SchedulerPick {
  dram::Command cmd;
  int queue_id = -1;                 // QueueView::id of the request's queue
  RequestIndex request = kNoRequest;  // arena index of the request
  [[nodiscard]] bool services_request() const { return cmd.is_column(); }
};

/// A queue the scheduler may draw from this cycle, in priority order. The
/// index lists the queue's requests by bank; the arena holds the requests.
struct QueueView {
  const RequestArena* arena = nullptr;
  const QueueIndex* index = nullptr;
  int id = -1;
};

/// Both entry points make one pass over the banks that have queued work,
/// asking Channel::earliest_issue once per bank and command kind (per
/// subarray for ACT), and `blocked(rank, queue_id)` once per rank and queue.
/// `blocked` masks the rank's requests in that queue for this cycle (rank
/// refreshing, rank locked for an imminent refresh, ...).
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }

  /// Choose the next command, in FR-FCFS order over the unblocked requests
  /// of `queues` (queue priority, then age):
  ///  - first ready: the first request that row-hits and whose column
  ///    command can issue at `now`;
  ///  - failing that, the first request whose row command can issue at
  ///    `now`: an ACT on a precharged bank, judged for the request's
  ///    subarray, or a PRE on a row conflict that no request in `queues`
  ///    (blocked ones included) still hits. A refreshing bank's ACT waits
  ///    at least for the next tick, whose Channel::tick releases the lock.
  template <typename BlockedPred>
  [[nodiscard]] std::optional<SchedulerPick> pick(
      std::span<const QueueView> queues, const dram::Channel& channel,
      Cycle now, const BlockedPred& blocked) const;

  /// Earliest cycle > `now` at which pick() over the same (frozen) queues
  /// could return a command, or kNeverCycle when no unblocked request can
  /// ever issue without other state changing first: the minimum over
  /// pick()'s candidates of their earliest issue cycles, clamped to
  /// `now + 1` (at most one command leaves per cycle, so a second ready
  /// candidate simply waits its turn). A taker-held PRE counts as never: the
  /// row stays open until an issue or an enqueue changes the queues. Blocked
  /// requests are skipped; their unblock points (refresh completion,
  /// seal/REF transitions) are separate controller events. Returns as soon
  /// as a candidate at `now + 1` is found.
  template <typename BlockedPred>
  [[nodiscard]] Cycle earliest_issue_cycle(std::span<const QueueView> queues,
                                           const dram::Channel& channel,
                                           Cycle now,
                                           const BlockedPred& blocked) const;

 private:
  /// Call `visit(slot, rank, bank)` for each bank with requests in `qv`
  /// whose rank `blocked` leaves open to the queue, until it returns true.
  template <typename BlockedPred, typename Visit>
  static bool for_each_bank(const QueueView& qv, const BlockedPred& blocked,
                            const Visit& visit);

  SchedulerConfig cfg_;
};

namespace scheduler_detail {

inline dram::CmdType column_cmd_for(const Request& req) {
  return req.type == ReqType::kWrite ? dram::CmdType::kWrite
                                     : dram::CmdType::kRead;
}

/// A command to (rank, bank, row) for legality queries: channel and column
/// do not enter Channel::earliest_issue.
inline dram::Command bank_command(dram::CmdType type, RankId r, BankId b,
                                  RowId row) {
  return dram::Command{type, DramCoord{0, r, b, row, 0}, 0};
}

/// True when a request in any of `queues` hits the open row of bank `slot`
/// (a PRE would close the row on that taker): one hit-count read per queue.
inline bool view_hits_open_row(std::span<const QueueView> queues,
                               std::size_t slot) {
  return std::ranges::any_of(queues, [slot](const QueueView& qv) {
    return qv.index->open_row_hits(slot) > 0;
  });
}

/// The pick of `cmd_type` for the queued request `entry` of `qv`.
inline SchedulerPick pick_for(const QueueView& qv,
                              const QueueIndex::Entry& entry,
                              dram::CmdType cmd_type) {
  const Request& req = (*qv.arena)[entry.request];
  const RequestId id = cmd_type == dram::CmdType::kPrecharge ? 0 : req.id;
  return SchedulerPick{dram::Command{cmd_type, req.coord, id}, qv.id,
                       entry.request};
}

}  // namespace scheduler_detail

template <typename BlockedPred, typename Visit>
bool Scheduler::for_each_bank(const QueueView& qv, const BlockedPred& blocked,
                              const Visit& visit) {
  const std::uint32_t banks = qv.index->banks();
  // Slots run rank-major, so one verdict per rank serves all its banks.
  RankId gate = ~RankId{0};
  bool gate_blocked = false;
  return qv.index->for_each_busy([&](std::size_t slot) {
    const auto r = static_cast<RankId>(slot / banks);
    if (r != gate) {
      gate = r;
      gate_blocked = blocked(r, qv.id);
    }
    return !gate_blocked &&
           visit(slot, r, static_cast<BankId>(slot % banks));
  });
}

template <typename BlockedPred>
std::optional<SchedulerPick> Scheduler::pick(std::span<const QueueView> queues,
                                             const dram::Channel& channel,
                                             Cycle now,
                                             const BlockedPred& blocked) const {
  using Entry = QueueIndex::Entry;
  using scheduler_detail::bank_command;
  // Column pass. Column legality depends on the request only through its
  // bank and direction, so each bank offers its oldest row hit.
  for (const QueueView& qv : queues) {
    const Entry* best = nullptr;
    dram::CmdType best_type = dram::CmdType::kRead;
    for_each_bank(qv, blocked, [&](std::size_t slot, RankId r, BankId b) {
      const dram::Bank& bank = channel.rank(r).bank(b);
      if (qv.index->open_row_hits(slot) == 0 ||
          bank.state() != dram::BankState::kActive) {
        return false;
      }
      const auto entries = qv.index->bank(slot);
      const RowId open = *bank.open_row();
      const Entry& hit = *std::ranges::find(entries, open, &Entry::row);
      if (best != nullptr && best->age < hit.age) return false;
      const dram::CmdType type =
          scheduler_detail::column_cmd_for((*qv.arena)[hit.request]);
      if (channel.earliest_issue(bank_command(type, r, b, open)) <= now) {
        best = &hit;
        best_type = type;
      }
      return false;
    });
    if (best != nullptr) return scheduler_detail::pick_for(qv, *best, best_type);
  }
  // Row pass: no column command is ready, so every candidate left is a
  // PRE or an ACT.
  for (const QueueView& qv : queues) {
    const Entry* best = nullptr;
    dram::CmdType best_type = dram::CmdType::kActivate;
    for_each_bank(qv, blocked, [&](std::size_t slot, RankId r, BankId b) {
      const dram::Bank& bank = channel.rank(r).bank(b);
      const auto entries = qv.index->bank(slot);
      if (bank.state() == dram::BankState::kActive) {
        // With no taker in the view every entry conflicts: the oldest one
        // asks for the PRE.
        const Entry& head = entries.front();
        if ((best != nullptr && best->age < head.age) ||
            scheduler_detail::view_hits_open_row(queues, slot)) {
          return false;
        }
        const auto pre = bank_command(dram::CmdType::kPrecharge, r, b, 0);
        if (channel.earliest_issue(pre) <= now) {
          best = &head;
          best_type = dram::CmdType::kPrecharge;
        }
      } else if (bank.state() == dram::BankState::kPrecharged) {
        // The oldest entry whose subarray can activate now.
        std::uint64_t tried = 0;
        for (const Entry& e : entries) {
          if (best != nullptr && best->age < e.age) break;
          const std::uint32_t sub = bank.subarray_of(e.row);
          if (sub < 64) {
            if (((tried >> sub) & 1u) != 0) continue;
            tried |= std::uint64_t{1} << sub;
          }
          const auto act = bank_command(dram::CmdType::kActivate, r, b, e.row);
          if (channel.earliest_issue(act) <= now) {
            best = &e;
            best_type = dram::CmdType::kActivate;
            break;
          }
        }
      }
      return false;
    });
    if (best != nullptr) return scheduler_detail::pick_for(qv, *best, best_type);
  }
  return std::nullopt;
}

template <typename BlockedPred>
Cycle Scheduler::earliest_issue_cycle(std::span<const QueueView> queues,
                                      const dram::Channel& channel, Cycle now,
                                      const BlockedPred& blocked) const {
  using scheduler_detail::bank_command;
  const Cycle soonest = now + 1;
  Cycle best = kNeverCycle;
  const auto consider = [&best, soonest](Cycle when) {
    best = std::min(best, std::max(when, soonest));
    return best <= soonest;
  };
  for (const QueueView& qv : queues) {
    const bool done =
        for_each_bank(qv, blocked, [&](std::size_t slot, RankId r, BankId b) {
          const dram::Bank& bank = channel.rank(r).bank(b);
          const auto entries = qv.index->bank(slot);
          if (bank.state() == dram::BankState::kActive) {
            if (qv.index->open_row_hits(slot) > 0) {
              const dram::CmdType type = scheduler_detail::column_cmd_for(
                  (*qv.arena)[entries.front().request]);
              return consider(channel.earliest_issue(
                  bank_command(type, r, b, *bank.open_row())));
            }
            if (scheduler_detail::view_hits_open_row(queues, slot)) {
              return false;
            }
            return consider(channel.earliest_issue(
                bank_command(dram::CmdType::kPrecharge, r, b, 0)));
          }
          // One ACT per subarray present. A refreshing bank's waits for
          // the next tick's release, which the clamp to now + 1 covers.
          std::uint64_t seen = 0;
          for (const QueueIndex::Entry& e : entries) {
            const std::uint32_t sub = bank.subarray_of(e.row);
            if (sub < 64) {
              if (((seen >> sub) & 1u) != 0) continue;
              seen |= std::uint64_t{1} << sub;
            }
            if (consider(channel.earliest_issue(bank_command(
                    dram::CmdType::kActivate, r, b, e.row)))) {
              return true;
            }
          }
          return false;
        });
    if (done) break;
  }
  return best;
}

}  // namespace rop::mem
