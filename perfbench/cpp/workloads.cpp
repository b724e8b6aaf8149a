#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "workload/spec_profiles.h"

namespace perfbench {

namespace {

using rop::sim::ExperimentSpec;
using rop::sim::MemoryMode;

/// The sampled workload's functional stride (instructions per core).
constexpr std::uint64_t kStride = 10'000'000;

std::uint64_t scaled(std::uint64_t n, double scale, std::uint64_t floor) {
  return std::max<std::uint64_t>(
      floor, static_cast<std::uint64_t>(std::llround(
                 static_cast<double>(n) * scale)));
}

/// Same cycle cap the ropsim CLI derives from the instruction target.
void set_instructions(ExperimentSpec& spec, std::uint64_t n) {
  spec.instructions_per_core = n;
  spec.max_cpu_cycles = n * 256;
}

/// One lbm core in ROP mode on 1 channel x 1 rank, 1x refresh, 2 MiB LLC —
/// `ropsim --benchmark lbm --mode rop`.
ExperimentSpec lbm_rop(std::uint64_t seed) {
  ExperimentSpec spec = rop::sim::single_core_spec("lbm", MemoryMode::kRop);
  spec.seed_salt = seed;
  return spec;
}

}  // namespace

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, double scale) {
  Workload w;
  w.name = std::string(name);
  w.stride = scaled(kStride, scale, 100'000);
  if (name == "lbm-rop-exact") {
    w.spec = lbm_rop(seed);
    set_instructions(w.spec, scaled(50'000'000, scale, 200'000));
    w.capture = w.spec;
  } else if (name == "lbm-rop-sampled") {
    // --loop sampled --instructions 3000000000 --sample-functional 10000000
    // --sample-jobs 3: the planner plus three window workers.
    w.spec = lbm_rop(seed);
    set_instructions(w.spec, scaled(3'000'000'000, scale, 2'000'000));
    w.spec.sampling.enabled = true;
    w.spec.sampling.functional_instructions = w.stride;
    w.spec.sampling.jobs = 3;
    w.capture = lbm_rop(seed);
    set_instructions(w.capture, scaled(20'000'000, scale, 200'000));
  } else if (name == "wl1-darp4x-sharded") {
    // --benchmark wl1 --mode darp --refresh 4x --channels 4 --ranks 4
    // --shard-channels 4 (the CLI's default 2 MiB LLC).
    ExperimentSpec& spec = w.spec;
    spec.benchmarks = rop::workload::workload_mix(1);
    spec.mode = MemoryMode::kDarp;
    spec.refresh_mode = rop::dram::RefreshMode::k4x;
    spec.ranks = 4;
    spec.channels = 4;
    spec.shard_channels = 4;
    spec.seed_salt = seed;
    set_instructions(spec, scaled(25'000'000, scale, 200'000));
    w.capture = w.spec;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t simulated_instructions(const ExperimentSpec& spec) {
  return spec.instructions_per_core * spec.benchmarks.size();
}

}  // namespace perfbench
