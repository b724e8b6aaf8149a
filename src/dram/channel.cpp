#include "dram/channel.h"

#include <algorithm>

#include "telemetry/trace_sink.h"

namespace rop::dram {

namespace {

telemetry::EventKind cmd_event_kind(CmdType type) {
  switch (type) {
    case CmdType::kActivate: return telemetry::EventKind::kCmdActivate;
    case CmdType::kPrecharge: return telemetry::EventKind::kCmdPrecharge;
    case CmdType::kRead: return telemetry::EventKind::kCmdRead;
    case CmdType::kWrite: return telemetry::EventKind::kCmdWrite;
    case CmdType::kRefresh: return telemetry::EventKind::kCmdRefresh;
    case CmdType::kRefreshBank: return telemetry::EventKind::kCmdRefreshBank;
  }
  return telemetry::EventKind::kCmdActivate;
}

}  // namespace

Channel::Channel(const DramTimings& timings, const DramOrganization& org)
    : t_(timings) {
  ROP_ASSERT(validate(timings));
  ranks_.reserve(org.ranks);
  for (std::uint32_t r = 0; r < org.ranks; ++r) {
    ranks_.emplace_back(t_, org.banks, org.subarrays, org.rows);
  }
}

Cycle Channel::data_bus_free(CmdType type, RankId rank) const {
  if (!bus_used_) return 0;
  Cycle free = bus_busy_until_;
  // Switching drivers (rank change) or direction (read<->write) needs a
  // switch gap on top of plain occupancy.
  if (rank != last_bus_rank_ || type != last_bus_op_) free += t_.tRTRS;
  return free;
}

bool Channel::can_issue(const Command& cmd, Cycle now) const {
  return !ranks_.at(cmd.coord.rank).refresh_locked(cmd) &&
         earliest_issue(cmd) <= now;
}

Cycle Channel::earliest_issue(const Command& cmd) const {
  Cycle when = ranks_.at(cmd.coord.rank).earliest_issue(cmd);
  if (when == kNeverCycle) return kNeverCycle;
  if (cmd.is_column()) {
    // The data burst starts CL/CWL after the command; the command must wait
    // until the bus (plus any switch gap) is free at that point.
    const Cycle lat = cmd.type == CmdType::kRead ? t_.CL : t_.CWL;
    const Cycle bus_free = data_bus_free(cmd.type, cmd.coord.rank);
    if (bus_free > lat) when = std::max(when, bus_free - lat);
  }
  return when;
}

Cycle Channel::issue(const Command& cmd, Cycle now) {
  ROP_ASSERT(can_issue(cmd, now));
  Rank& rank = ranks_.at(cmd.coord.rank);
  rank.issue(cmd, now);
  Cycle done = now;
  switch (cmd.type) {
    case CmdType::kActivate:
      ++events_.activates;
      break;
    case CmdType::kPrecharge:
      ++events_.precharges;
      break;
    case CmdType::kRead:
      ++events_.reads;
      done = t_.read_data_done(now);
      bus_busy_until_ = done;
      last_bus_op_ = CmdType::kRead;
      last_bus_rank_ = cmd.coord.rank;
      bus_used_ = true;
      break;
    case CmdType::kWrite:
      ++events_.writes;
      done = t_.write_data_done(now);
      bus_busy_until_ = done;
      last_bus_op_ = CmdType::kWrite;
      last_bus_rank_ = cmd.coord.rank;
      bus_used_ = true;
      break;
    case CmdType::kRefresh:
      ++events_.refreshes;
      done = now + t_.tRFC;
      break;
    case CmdType::kRefreshBank:
      ++events_.bank_refreshes;
      done = now + t_.tRFCpb;
      break;
  }
  if (trace_ != nullptr && trace_->wants(telemetry::kCatCmds)) {
    telemetry::TraceEvent e;
    e.ts = now;
    e.dur = done - now;
    e.kind = cmd_event_kind(cmd.type);
    e.category = telemetry::kCatCmds;
    e.channel = static_cast<std::uint16_t>(trace_channel_);
    e.rank = static_cast<std::uint16_t>(cmd.coord.rank);
    e.bank = static_cast<std::uint16_t>(cmd.coord.bank);
    trace_->record(e);
  }
  return done;
}

void Channel::begin_refresh_segment(RankId rank, Cycle now, Cycle duration) {
  ++events_.refresh_segments;
  ranks_.at(rank).begin_refresh_segment(now, duration);
  if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
    telemetry::TraceEvent e;
    e.ts = now;
    e.dur = duration;
    e.kind = telemetry::EventKind::kPauseSegment;
    e.category = telemetry::kCatRefresh;
    e.channel = static_cast<std::uint16_t>(trace_channel_);
    e.rank = static_cast<std::uint16_t>(rank);
    trace_->record(e);
  }
}

void Channel::tick(Cycle now) {
  for (Rank& r : ranks_) r.tick(now);
}

void Channel::settle_accounting(Cycle now) {
  for (Rank& r : ranks_) r.settle_accounting(now);
}

}  // namespace rop::dram
