// Experiment runner: assemble a full system (workloads -> cores -> LLC ->
// controller [-> ROP engine] -> DRAM -> power model), run it, and return
// the metric bundle every bench and example consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "cpu/system.h"
#include "energy/dram_power.h"
#include "rop/rop_engine.h"
#include "sim/presets.h"
#include "sim/sampling.h"
#include "telemetry/telemetry.h"
#include "workload/spec_profiles.h"

namespace rop::sim {

/// Checkpoint/restore controls (see sim/snapshot.h). Paths are not part of
/// the config fingerprint: both sides of a save/restore must otherwise run
/// the identical spec.
struct SnapshotSpec {
  /// Restore from this file before executing anything (the file's
  /// fingerprint must match the spec).
  std::string in;
  /// Checkpoint destination for `every` / `stop_at`.
  std::string out;
  /// > 0: write `out` every N CPU cycles (atomically; the previous
  /// checkpoint survives a kill mid-write).
  std::uint64_t every = 0;
  /// > 0: stop the run at this CPU cycle, write `out`, and return a
  /// partial result flagged `interrupted` — the split half of the
  /// bit-identity tests, and the campaign's kill hook.
  std::uint64_t stop_at = 0;

  [[nodiscard]] bool any() const { return !in.empty() || !out.empty(); }
};

struct ExperimentSpec {
  /// One benchmark name per core (see workload::kBenchmarkNames).
  std::vector<std::string> benchmarks;
  MemoryMode mode = MemoryMode::kBaseline;
  bool rank_partition = false;
  std::uint32_t ranks = 1;
  /// Memory channels (the paper's Table III point is 1; the sharded loop
  /// and campaign sweeps extend it).
  std::uint32_t channels = 1;
  /// > 0: run the channel-sharded loop with this many shards (clamped to
  /// the channel count); bit-identical to the serial event loop. Requires
  /// loop == kEventDriven and no tracing.
  std::uint32_t shard_channels = 0;
  std::uint64_t llc_bytes = 2ull << 20;
  engine::RopConfig rop{};  // consulted when mode == kRop
  dram::RefreshMode refresh_mode = dram::RefreshMode::k1x;
  std::uint64_t instructions_per_core = 5'000'000;
  std::uint64_t max_cpu_cycles = 2'000'000'000;
  std::uint64_t seed_salt = 0;
  /// Simulation-loop strategy (bit-identical either way; see
  /// cpu::LoopMode). kNaive is the cross-checking oracle.
  cpu::LoopMode loop = cpu::LoopMode::kEventDriven;
  /// Audit the run with check::SimChecker (per-tick invariants + end-of-run
  /// request conservation); a violation aborts the experiment with a
  /// report. Also enabled by ROP_CHECK=1 in the environment or the
  /// ROP_ENABLE_CHECKER CMake option (ROP_CHECK=0 overrides the latter).
  bool check = false;
  /// Observability: epoch sampling and/or event tracing. Both default off
  /// (zero hot-path cost beyond a null-pointer compare).
  telemetry::TelemetryConfig telemetry{};
  /// Checkpoint/restore (mutually exclusive with `sampling.enabled`; the
  /// checker is disabled while either is active — its conservation audit
  /// counts from attach and cannot span a restore or a functional jump).
  SnapshotSpec snapshot{};
  /// SMARTS-style sampled execution (serial loop, no telemetry sinks; see
  /// sim/sampling.h and sim/parallel_sampling.h).
  SamplingSpec sampling{};
  /// When non-empty, every core replays this text trace file
  /// (workload/trace_io.h) instead of its `benchmarks` profile, whose
  /// entries then only set the core count. Exact serial runs only: not
  /// combinable with snapshots, sampling, or shards. Not part of the
  /// config fingerprint, which only those three consume.
  std::string trace_file;
  /// Live-ops heartbeat: when non-empty, append one JSONL progress line to
  /// this file every `progress_every` CPU cycles and once at the end (see
  /// telemetry::ProgressWriter). Exact runs only (ignored while sampling).
  /// Like snapshot paths, not part of the config fingerprint — the
  /// heartbeat is an operational side channel, not simulated behavior.
  std::string progress_file;
  std::uint64_t progress_every = 10'000'000;
};

struct ExperimentResult {
  cpu::RunResult run;
  energy::EnergyBreakdown energy;
  StatRegistry stats;

  /// CPU cycles per memory-controller cycle for this run (the attribution
  /// block exports it so consumers can convert stack entries to ns).
  std::uint32_t cpu_ratio = 0;

  // Invariant-checker outcome (zeros when the checker was disabled).
  std::uint64_t checker_ticks = 0;
  std::uint64_t checker_violations = 0;

  /// Wall-clock seconds spent inside System::run (simulation only — no
  /// construction, finalization, or energy accounting).
  double wall_seconds = 0.0;

  /// Simulation throughput: simulated memory-controller cycles per
  /// wall-clock second. The headline number for the event-driven clock.
  [[nodiscard]] double sim_cycles_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(run.mem_cycles) / wall_seconds
               : 0.0;
  }

  // ROP-specific metrics (zero/defaults for baseline and no-refresh).
  double sram_hit_rate = 0.0;
  double lambda = 1.0;
  double beta = 1.0;
  std::uint64_t refreshes = 0;

  // Refresh blocking statistics (1x / 2x / 4x examined windows, Figs 2-3).
  std::vector<double> nonblocking_fraction;
  std::vector<double> mean_blocked_per_blocking_refresh;
  std::vector<std::uint64_t> max_blocked;

  /// Sampled-execution estimates (enabled == false for exact runs).
  SamplingSummary sampling{};
  /// True when snapshot.stop_at ended the run early: the result is a
  /// partial checkpoint, not a finished experiment.
  bool interrupted = false;

  /// Epoch time-series / event trace captured during the run (null when the
  /// spec did not enable them). shared_ptr keeps the result copyable and the
  /// sinks alive independent of the (destroyed) memory system.
  std::shared_ptr<telemetry::EpochSampler> epochs;
  std::shared_ptr<telemetry::TraceSink> trace;

  [[nodiscard]] double ipc(std::size_t core = 0) const {
    return run.cores.at(core).ipc;
  }
  [[nodiscard]] double total_energy_mj() const { return energy.total_mj(); }

  /// Full machine-readable dump: run metrics, energy breakdown, every
  /// registered counter/scalar/histogram, and the epoch series (schema in
  /// telemetry/stats_json.h and docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;

  /// Weighted-speedup helper (Eq. 4): sum over cores of
  /// IPC_shared / IPC_alone, with IPC_alone supplied by the caller.
  [[nodiscard]] double weighted_speedup(
      const std::vector<double>& ipc_alone) const;
};

/// Run one experiment end to end. Deterministic for a fixed spec.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Worker threads one run of `spec` occupies: the shard count for a
/// sharded run, the window-worker count for a sampled run, else 1.
/// The runner and the campaign engine divide the machine budget by the
/// widest pending spec so jobs * width never oversubscribes (see
/// sim/worker_budget.h).
[[nodiscard]] unsigned experiment_worker_width(const ExperimentSpec& spec);

/// True when runs should be audited: spec-independent part of the
/// ExperimentSpec::check resolution (ROP_CHECK env var, CMake default).
[[nodiscard]] bool checker_enabled_by_environment();

/// Convenience for single-benchmark single-core specs.
[[nodiscard]] ExperimentSpec single_core_spec(std::string benchmark,
                                              MemoryMode mode,
                                              std::uint64_t llc_bytes = 2ull
                                                                        << 20);

/// Spec for a 4-core workload mix WL1..WL6 on a 4-rank memory.
[[nodiscard]] ExperimentSpec multi_core_spec(std::uint32_t wl, MemoryMode mode,
                                             bool rank_partition,
                                             std::uint64_t llc_bytes = 4ull
                                                                       << 20);

}  // namespace rop::sim
