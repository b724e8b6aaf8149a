#include "sim/sim_instance.h"

#include "sim/presets.h"
#include "workload/spec_profiles.h"

namespace rop::sim {

SimInstance build_sim_instance(const ExperimentSpec& spec,
                               StatRegistry* external_stats,
                               const SimInstanceHooks& hooks) {
  ROP_ASSERT(!spec.benchmarks.empty());
  const bool sharded = spec.shard_channels > 0;

  // Parse a replayed trace before anything else: a malformed file must
  // throw before a hook has attached to a memory system that unwinding
  // would destroy under it.
  std::vector<workload::TraceRecord> replay_records;
  if (!spec.trace_file.empty()) {
    replay_records = workload::read_trace_file(spec.trace_file);
  }

  SimInstance inst;
  if (external_stats != nullptr) {
    inst.registry = external_stats;
  } else {
    inst.owned_stats = std::make_unique<StatRegistry>();
    inst.registry = inst.owned_stats.get();
  }

  mem::MemoryConfig mem_cfg = make_memory_config(
      spec.ranks, spec.mode, spec.refresh_mode, spec.channels);
  mem_cfg.per_channel_stats = sharded;
  inst.memory = std::make_unique<mem::MemorySystem>(mem_cfg, inst.registry);

  if (hooks.post_memory) hooks.post_memory(*inst.memory);

  // ROP engines attach one per channel and live for the whole run. Each
  // records into its channel's registry (the shared one when not sharded).
  if (spec.mode == MemoryMode::kRop) {
    for (ChannelId ch = 0; ch < inst.memory->num_channels(); ++ch) {
      engine::RopConfig rop_cfg = spec.rop;
      rop_cfg.seed ^= spec.seed_salt * 0x9e3779b97f4a7c15ULL + ch;
      inst.engines.push_back(std::make_unique<engine::RopEngine>(
          rop_cfg, inst.memory->controller(ch), inst.memory->address_map(),
          &inst.memory->channel_stats(ch)));
    }
  }

  if (hooks.post_engines) hooks.post_engines(inst.engines);

  // All channel-side registrations are done; publish the names into the
  // shared registry so samplers resolve handles for them.
  if (sharded) inst.memory->mirror_channel_stats();

  std::vector<workload::TraceSource*> trace_ptrs;
  if (!spec.trace_file.empty()) {
    for (std::size_t c = 0; c < spec.benchmarks.size(); ++c) {
      inst.replays.push_back(
          std::make_unique<workload::MemoryTrace>(replay_records));
      trace_ptrs.push_back(inst.replays.back().get());
    }
  } else {
    for (std::size_t c = 0; c < spec.benchmarks.size(); ++c) {
      inst.traces.push_back(std::make_unique<workload::SyntheticTrace>(
          workload::spec_profile(spec.benchmarks[c], spec.seed_salt + c)));
      trace_ptrs.push_back(inst.traces.back().get());
    }
  }

  cpu::SystemConfig sys_cfg =
      make_system_config(spec.llc_bytes, spec.rank_partition);
  sys_cfg.loop = spec.loop;
  sys_cfg.shard_channels = spec.shard_channels;
  inst.cpu_ratio = sys_cfg.cpu_ratio;
  inst.system =
      std::make_unique<cpu::System>(sys_cfg, *inst.memory, trace_ptrs);
  return inst;
}

}  // namespace rop::sim
