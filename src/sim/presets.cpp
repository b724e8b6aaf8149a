#include "sim/presets.h"

namespace rop::sim {

const char* memory_mode_name(MemoryMode mode) {
  switch (mode) {
    case MemoryMode::kBaseline: return "baseline";
    case MemoryMode::kNoRefresh: return "no-refresh";
    case MemoryMode::kRop: return "rop";
    case MemoryMode::kElastic: return "elastic";
    case MemoryMode::kPausing: return "pausing";
    case MemoryMode::kPerBank: return "per-bank";
    case MemoryMode::kDarp: return "darp";
    case MemoryMode::kSarp: return "sarp";
    case MemoryMode::kHira: return "hira";
  }
  return "?";
}

std::optional<MemoryMode> parse_memory_mode(std::string_view name) {
  for (const MemoryMode mode : kAllMemoryModes) {
    if (name == memory_mode_name(mode)) return mode;
  }
  // Compact aliases used by existing campaign specs and stats keys.
  if (name == "norefresh") return MemoryMode::kNoRefresh;
  if (name == "perbank") return MemoryMode::kPerBank;
  return std::nullopt;
}

const char* refresh_mode_name(dram::RefreshMode mode) {
  switch (mode) {
    case dram::RefreshMode::k1x: return "1x";
    case dram::RefreshMode::k2x: return "2x";
    case dram::RefreshMode::k4x: return "4x";
  }
  return "?";
}

std::optional<dram::RefreshMode> parse_refresh_mode(std::string_view name) {
  if (name == "1x") return dram::RefreshMode::k1x;
  if (name == "2x") return dram::RefreshMode::k2x;
  if (name == "4x") return dram::RefreshMode::k4x;
  return std::nullopt;
}

mem::MemoryConfig make_memory_config(std::uint32_t ranks, MemoryMode mode,
                                     dram::RefreshMode refresh_mode,
                                     std::uint32_t channels) {
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings(refresh_mode);
  cfg.org.channels = channels;
  cfg.org.ranks = ranks;
  cfg.org.banks = 8;
    // Page-interleaved: a stream resides in one bank for a whole row (128
  // lines), so concurrent streams separate into different banks and each
  // per-bank prediction-table entry sees a clean single-stream delta trail
  // (the "bank locality" the paper's table organization relies on, §IV-C).
  cfg.scheme = mem::MapScheme::kRowRankBankColumn;
  switch (mode) {
    case MemoryMode::kBaseline:
      cfg.ctrl.policy = mem::RefreshPolicy::kAutoRefresh;
      break;
    case MemoryMode::kRop:
      cfg.ctrl.policy = mem::RefreshPolicy::kRopDrain;
      break;
    case MemoryMode::kElastic:
      cfg.ctrl.policy = mem::RefreshPolicy::kElastic;
      break;
    case MemoryMode::kPausing:
      cfg.ctrl.policy = mem::RefreshPolicy::kPausing;
      break;
    case MemoryMode::kPerBank:
      cfg.ctrl.policy = mem::RefreshPolicy::kPerBank;
      break;
    case MemoryMode::kDarp:
      cfg.ctrl.policy = mem::RefreshPolicy::kDarp;
      break;
    case MemoryMode::kSarp:
      cfg.ctrl.policy = mem::RefreshPolicy::kSarp;
      // 8 subarrays per bank — the mat grouping Chang et al. evaluate; a
      // REFpb locks 1/8th of the bank's rows instead of the whole bank.
      cfg.org.subarrays = 8;
      break;
    case MemoryMode::kHira:
      cfg.ctrl.policy = mem::RefreshPolicy::kHira;
      cfg.org.subarrays = 8;
      break;
    case MemoryMode::kNoRefresh:
      cfg.ctrl.policy = mem::RefreshPolicy::kNoRefresh;
      break;
  }
  return cfg;
}

cpu::SystemConfig make_system_config(std::uint64_t llc_bytes,
                                     bool rank_partition) {
  cpu::SystemConfig cfg;
  cfg.cpu_ratio = 4;  // 3.2 GHz cores / 800 MHz controller
  cfg.core.issue_width = 4;
  cfg.core.max_outstanding = 16;
  cfg.llc.size_bytes = llc_bytes;
  cfg.llc.associativity = 16;
  cfg.shared_llc = true;
  cfg.rank_partition = rank_partition;
  return cfg;
}

}  // namespace rop::sim
