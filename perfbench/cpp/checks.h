// Output checks every benchmark run must pass, and the simulated-output
// digest a speed-only change must leave unchanged.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "cpu/system.h"
#include "sim/experiment.h"

namespace perfbench {

/// Empty when `r` is a valid finished run of `spec`; otherwise the first
/// failed check:
///  - every core's CPI stack sums exactly to its cycles;
///  - the cycle limit was not hit and every core reached its target;
///  - a sampled run carries an enabled sampling block with a finite CI.
[[nodiscard]] std::string check_result(const rop::sim::ExperimentResult& r,
                                       const rop::sim::ExperimentSpec& spec);

/// FNV-1a of ExperimentResult::to_json() with the host-only fields
/// (wall-clock seconds, the throughput derived from it, sampling workers)
/// zeroed — equal digests mean bit-identical simulated outputs.
[[nodiscard]] std::uint64_t sim_digest(const rop::sim::ExperimentResult& r);

/// Empty when the two runs' simulated stats are identical (per-core
/// results, run totals, and every counter, scalar and histogram);
/// otherwise the first difference.
[[nodiscard]] std::string compare_stats(const rop::cpu::RunResult& a,
                                        const rop::StatRegistry& sa,
                                        const rop::cpu::RunResult& b,
                                        const rop::StatRegistry& sb);

[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace perfbench
