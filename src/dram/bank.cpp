#include "dram/bank.h"

#include <algorithm>

namespace rop::dram {

void Bank::configure_subarrays(std::uint32_t count, std::uint32_t rows_per_bank) {
  ROP_ASSERT(count >= 1);
  ROP_ASSERT(state_ == BankState::kPrecharged && !open_row_);
  sub_count_ = count;
  if (count <= 1) {
    rows_per_sub_ = 0;
    sub_busy_until_.clear();
    sub_last_row_.clear();
    return;
  }
  rows_per_sub_ = std::max<std::uint32_t>(1, (rows_per_bank + count - 1) / count);
  sub_busy_until_.assign(count, 0);
  sub_last_row_.assign(count, std::nullopt);
}

RowId Bank::subarray_row(std::uint32_t sub) const {
  return sub_count_ <= 1 ? 0 : static_cast<RowId>(sub) * rows_per_sub_;
}

Cycle Bank::subarray_busy_until(std::uint32_t sub) const {
  return sub_count_ <= 1 ? 0 : sub_busy_until_[sub];
}

std::optional<std::uint32_t> Bank::refreshing_subarray(Cycle now) const {
  for (std::uint32_t s = 0; s < sub_count_ && sub_count_ > 1; ++s) {
    if (sub_busy_until_[s] > now) return s;
  }
  return std::nullopt;
}

std::optional<RowId> Bank::subarray_last_row(std::uint32_t sub) const {
  return sub_count_ <= 1 ? std::nullopt : sub_last_row_[sub];
}

Cycle Bank::any_subarray_busy_until() const {
  Cycle latest = 0;
  for (const Cycle c : sub_busy_until_) latest = std::max(latest, c);
  return latest;
}

bool Bank::can_issue(CmdType type, RowId row, Cycle now) const {
  // A kRefreshing bank waits for complete_refresh(), which the rank's tick
  // performs; earliest_issue() already reports the release cycle.
  return state_ != BankState::kRefreshing && earliest_issue(type, row) <= now;
}

Cycle Bank::earliest_issue(CmdType type, RowId row) const {
  switch (type) {
    case CmdType::kActivate:
      // kPrecharged waits out tRP/tRC recovery; kRefreshing is released at
      // next_activate_ (see complete_refresh), after which ACT is legal the
      // same cycle; a refresh-locked subarray is released when its busy
      // interval ends. Only an open row blocks ACT until someone precharges.
      if (state_ == BankState::kActive) return kNeverCycle;
      return sub_count_ <= 1
                 ? next_activate_
                 : std::max(next_activate_, sub_busy_until_[subarray_of(row)]);
    case CmdType::kPrecharge:
      // PRE on an already-precharged bank is a harmless no-op electrically,
      // but it is never legal here, to catch controller bugs.
      return state_ == BankState::kActive ? next_precharge_ : kNeverCycle;
    case CmdType::kRead:
    case CmdType::kWrite:
      if (state_ != BankState::kActive || *open_row_ != row) return kNeverCycle;
      return type == CmdType::kRead ? next_read_ : next_write_;
    case CmdType::kRefresh:
    case CmdType::kRefreshBank:
      // Both wait out precharge recovery and any subarray refresh in flight
      // (at most one per bank). An open row blocks them, except the HiRA
      // overlap: a subarray-targeted REFpb while the open row sits in a
      // *different* subarray (next_activate_ then spaces the hidden
      // activation tRC from the last explicit ACT).
      if (state_ == BankState::kActive &&
          (type == CmdType::kRefresh || sub_count_ <= 1 ||
           subarray_of(*open_row_) == subarray_of(row))) {
        return kNeverCycle;
      }
      return std::max(next_activate_, any_subarray_busy_until());
  }
  return kNeverCycle;
}

void Bank::issue(CmdType type, RowId row, Cycle now, const DramTimings& t) {
  ROP_ASSERT(can_issue(type, row, now));
  switch (type) {
    case CmdType::kActivate:
      state_ = BankState::kActive;
      open_row_ = row;
      next_activate_ = now + t.tRC;
      next_read_ = std::max(next_read_, now + t.tRCD);
      next_write_ = std::max(next_write_, now + t.tRCD);
      next_precharge_ = std::max(next_precharge_, now + t.tRAS);
      if (sub_count_ > 1) sub_last_row_[subarray_of(row)] = row;
      break;
    case CmdType::kPrecharge:
      state_ = BankState::kPrecharged;
      open_row_.reset();
      next_activate_ = std::max(next_activate_, now + t.tRP);
      break;
    case CmdType::kRead:
      next_precharge_ = std::max(next_precharge_, now + t.tRTP);
      break;
    case CmdType::kWrite:
      // The written row may be precharged only after write recovery
      // following the end of the data burst.
      next_precharge_ =
          std::max(next_precharge_, t.write_data_done(now) + t.tWR);
      break;
    case CmdType::kRefresh:
      begin_refresh(now, t.tRFC);
      break;
    case CmdType::kRefreshBank:
      if (sub_count_ <= 1) {
        begin_refresh(now, t.tRFCpb);
      } else {
        // Lock only the targeted subarray; the bank state is untouched so
        // other subarrays keep serving (SARP) and an open row elsewhere
        // keeps its buffer (HiRA overlap). The refreshed subarray loses
        // its local row-buffer record.
        const std::uint32_t sub = subarray_of(row);
        sub_busy_until_[sub] = now + t.tRFCpb;
        sub_last_row_[sub].reset();
      }
      break;
  }
}

void Bank::begin_refresh(Cycle now, Cycle duration) {
  ROP_ASSERT(can_issue(CmdType::kRefresh, 0, now));
  state_ = BankState::kRefreshing;
  next_activate_ = std::max(next_activate_, now + duration);
}

void Bank::complete_refresh(Cycle refresh_done) {
  ROP_ASSERT(state_ == BankState::kRefreshing);
  state_ = BankState::kPrecharged;
  next_activate_ = std::max(next_activate_, refresh_done);
}

}  // namespace rop::dram
