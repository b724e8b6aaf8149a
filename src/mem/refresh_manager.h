// Per-rank auto-refresh scheduling.
//
// JEDEC requires one REF per tREFI on average; up to 8 REFs may be postponed
// (and later made up) as long as the running average holds. The baseline
// memory issues refreshes as soon as they come due ("auto-refresh"); the ROP
// controller defers them briefly to drain the target rank and slot in
// prefetches (paper §IV-D), bounded by the postponement budget.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/timing.h"

namespace rop::mem {

class RefreshManager {
 public:
  /// `units_per_trefi` = 1 for full-rank REF (one unit per tREFI) or the
  /// bank count for per-bank REFpb (8 units per tREFI, one per bank).
  /// A registry, when supplied, publishes "mem.refresh_units_issued" via a
  /// handle resolved here once.
  RefreshManager(const dram::DramTimings& timings, std::uint32_t num_ranks,
                 std::uint32_t units_per_trefi = 1,
                 StatRegistry* stats = nullptr);

  /// Number of refreshes currently owed by `rank` at `now` (scheduled
  /// boundaries passed minus refreshes issued).
  [[nodiscard]] std::uint32_t owed(RankId rank, Cycle now) const;

  /// True when the postponement budget is exhausted: the controller must
  /// prioritize this refresh over everything else.
  [[nodiscard]] bool urgent(RankId rank, Cycle now) const {
    return owed(rank, now) >= t_.max_postponed_refreshes;
  }

  /// First cycle strictly after `now` at which owed(rank, ·) increases —
  /// the next tREFI boundary crossing. owed() is a step function of time
  /// between refresh issues, so this is the only instant where idle-rank
  /// refresh machinery (and urgency, and the elastic threshold) can change
  /// without a command landing first.
  [[nodiscard]] Cycle next_owed_increase(RankId rank, Cycle now) const {
    const Cycle offset = phase_offset(rank);
    if (now < offset + interval()) return offset + interval();
    return offset + ((now - offset) / interval() + 1) * interval();
  }

  /// Record an issued REF command.
  void on_refresh_issued(RankId rank);

  [[nodiscard]] std::uint64_t issued(RankId rank) const {
    return issued_.at(rank);
  }
  [[nodiscard]] std::uint64_t total_issued() const;

  /// Ranks refresh staggered: rank r's boundaries sit at
  /// r * interval / num_ranks + k * interval, mirroring real controllers
  /// that avoid refreshing all ranks at once.
  [[nodiscard]] Cycle phase_offset(RankId rank) const;

  /// Scheduling interval between refresh units (tREFI / units_per_trefi).
  [[nodiscard]] Cycle interval() const {
    return t_.tREFI / units_per_trefi_;
  }

  /// Snapshot serialization: issued_ is the only mutable state (owed and
  /// boundaries are pure functions of time). The stats counter rides with
  /// the registry, not here.
  template <class Ar>
  void io(Ar& ar) {
    ar(issued_);
  }

 private:
  const dram::DramTimings& t_;
  std::vector<std::uint64_t> issued_;
  std::uint32_t num_ranks_;
  std::uint32_t units_per_trefi_;
  Counter* units_issued_ = nullptr;  // optional, resolved at construction
};

}  // namespace rop::mem
