// The benchmark's three workloads. Each stresses a different layer of the
// simulator (see perfbench/reference.json for why each was chosen and which
// layer metrics it should move).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// The spec whose run_experiment calls the timed runs measure.
  rop::sim::ExperimentSpec spec;
  /// Exact spec the traced run executes in situ and captures layer inputs
  /// from: the timed spec itself for the exact workloads, an exact prefix
  /// of the same core and memory for the sampled one.
  rop::sim::ExperimentSpec capture;
  /// Instructions per core per functional window (the sampling stride; the
  /// exact workloads use the sampled workload's stride).
  std::uint64_t stride = 0;
};

inline constexpr std::array<std::string_view, 3> kWorkloadNames = {
    "lbm-rop-exact", "lbm-rop-sampled", "wl1-darp4x-sharded"};

/// Workload `name` with the benchmark seed mapped to
/// ExperimentSpec::seed_salt, which salts every trace generator and ROP
/// engine. `scale` multiplies the run lengths (the smoke self-test runs at
/// a small fraction). nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                    std::uint64_t seed,
                                                    double scale);

/// Simulated instructions one run of `spec` stands for, summed over cores:
/// the instruction target times the core count (the full horizon for a
/// sampled run).
[[nodiscard]] std::uint64_t simulated_instructions(
    const rop::sim::ExperimentSpec& spec);

}  // namespace perfbench
