// The one sampled-execution path: plan measurement-window placement on a
// cheap functional-only backbone, then fan the detailed windows out to a
// worker pool as independent jobs restored from in-memory snapshots.
//
// The planner never runs a detailed cycle itself: it advances a
// functional-only backbone in fine chunks (functional_instructions /
// kOversample), drops a full in-memory snapshot (sim/snapshot.h,
// save_snapshot_buffer) at each planned window start, and enqueues the
// buffer as a job. Each worker owns a complete replica simulator built
// through build_sim_instance — byte-compatible registry layout by
// construction — restores the snapshot, runs warmup_cycles of excluded
// detailed execution plus detail_cycles of measured execution, and delivers
// one WindowObservation into a slot keyed by the window's placement
// ordinal.
//
// Determinism contract: at a fixed placement, the observation set is
// bit-identical for every worker count (jobs >= 1), because each window is
// a pure function of its snapshot and the snapshot stream is produced by
// the single-threaded backbone. Results merge in placement order; the
// estimator consumes the ordinal-ordered vector, so the stats JSON
// `sampling` block is byte-identical regardless of jobs (the `workers` key
// is operational metadata, like wall_seconds). The `--sample-target-ci`
// auto-stop keeps the contract by deciding on a fixed-lag prefix: before
// placing ordinal n >= kLookahead, the planner waits for observations
// 0..n-kLookahead-1 and applies the convergence rule (ci95_half / mean <=
// target once min_windows observations exist) to exactly that prefix — the
// decision depends only on observation content, never on worker timing.
//
// Stratified placement (spec.sampling.strata > 0): the instruction horizon
// splits into equal strata; during the functional pass each chunk is
// weighted by 1 + its LLC-miss delta (memory traffic observed for free),
// and window credit accrues in proportion to a chunk's weight relative to
// the running mean — busy strata earn windows faster. Each stratum is
// force-seeded with one window at its first chunk so coverage never drops
// to zero. The estimator combines per-stratum means with Neyman-style
// weights (each stratum's functional cycle estimate as its share of the
// run), which corrects the uniform placement's bias toward
// instruction-dense fast phases — the documented ~1.5% lbm warming bias.
#pragma once

#include "cpu/system.h"
#include "sim/experiment.h"
#include "sim/sampling.h"
#include "sim/sim_instance.h"

namespace rop::sim {

/// Fine planning chunks per functional_instructions: placement can land a
/// window every 1/kOversample of the uniform spacing.
inline constexpr std::uint64_t kPlannerOversample = 4;

/// Fixed auto-stop lag: ordinal n's placement decision sees observations
/// 0..n-kLookahead-1 (all complete). Large enough to keep the pool busy,
/// small enough that convergence stops the run promptly.
inline constexpr std::uint64_t kAutoStopLookahead = 8;

/// Run `spec`'s sampled experiment (spec.sampling.jobs >= 1 window
/// workers). `backbone` is the instance run_experiment
/// built; it executes the functional-only pass and is finish_run()'d for
/// the returned RunResult. Workers build their own replicas from `spec`.
/// Serial loop only; tracing/epoch sampling must be off. Fills `out`.
[[nodiscard]] cpu::RunResult run_parallel_sampled(const ExperimentSpec& spec,
                                                  SimInstance& backbone,
                                                  SamplingSummary* out);

}  // namespace rop::sim
