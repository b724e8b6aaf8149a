#include "mem/refresh_manager.h"

#include <numeric>

namespace rop::mem {

RefreshManager::RefreshManager(const dram::DramTimings& timings,
                               std::uint32_t num_ranks,
                               std::uint32_t units_per_trefi,
                               StatRegistry* stats)
    : t_(timings),
      issued_(num_ranks, 0),
      num_ranks_(num_ranks),
      units_per_trefi_(units_per_trefi) {
  ROP_ASSERT(num_ranks > 0);
  ROP_ASSERT(units_per_trefi > 0 && units_per_trefi <= t_.tREFI);
  if (stats != nullptr) {
    units_issued_ = stats->counter_handle("mem.refresh_units_issued");
  }
}

Cycle RefreshManager::phase_offset(RankId rank) const {
  return static_cast<Cycle>(rank) * interval() / num_ranks_;
}

std::uint32_t RefreshManager::owed(RankId rank, Cycle now) const {
  const Cycle offset = phase_offset(rank);
  // The first tREFI interval must elapse before any refresh is owed: rank
  // r's k-th boundary sits at offset + k * tREFI (k >= 1), never at the
  // phase offset itself.
  if (now < offset + interval()) return 0;
  const std::uint64_t boundaries = (now - offset) / interval();
  const std::uint64_t done = issued_.at(rank);
  return boundaries > done ? static_cast<std::uint32_t>(boundaries - done) : 0;
}

void RefreshManager::on_refresh_issued(RankId rank) {
  ++issued_.at(rank);
  if (units_issued_ != nullptr) units_issued_->inc();
}

std::uint64_t RefreshManager::total_issued() const {
  return std::accumulate(issued_.begin(), issued_.end(), std::uint64_t{0});
}

}  // namespace rop::mem
