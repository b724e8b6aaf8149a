// SMARTS-style statistical sampling (Wunderlich et al., ISCA'03 adapted to
// this simulator): alternate short *detailed* measurement windows with long
// *functional-warming* fast-forward windows, and report each metric as a
// mean with a standard error and a 95% confidence interval instead of an
// exact total.
//
// A sampling unit is one detailed window: after `warmup_cycles` of detailed
// execution (excluded — it re-fills queues, row buffers, and the MLP window
// after the functional jump), `detail_cycles` of exact event-driven
// execution are measured. Between units, Core::functional_advance +
// System::functional_window fast-forward the run: trace streams advance,
// LLCs stay warm, the criticality RNG keeps its draw order, refreshes fire
// at their natural times — but no demand request is simulated
// cycle-accurately, which is where the speedup comes from. Window
// placement and execution live in sim/parallel_sampling.h (a
// functional-only planner pass feeding `jobs` window workers); this header
// holds the knobs, the estimator, and the summary it fills.
//
// Per-window observations:
//   * IPC: aggregate retired instructions / CPU cycles,
//   * energy rate: settled DRAM energy per million memory cycles
//     (Rank accounting is piecewise — settle_accounting at window edges),
//   * refresh-blocked rate: mem.refresh_blocked_cycles per memory cycle.
// The estimator treats windows as i.i.d. draws: mean, stderr = s/sqrt(n),
// and a 95% CI using Student-t quantiles for n < 30 (1.96 beyond). An
// optional target on the relative CI half-width stops the run early once
// the estimate is tight enough (`min_windows` guards the t-tail).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rop::sim {

struct SamplingSpec {
  bool enabled = false;
  /// Detailed-but-unmeasured cycles after each functional jump. Tuned so
  /// the post-jump transient (empty queues, closed rows) is fully absorbed
  /// before measurement on every SPEC-like profile.
  std::uint64_t warmup_cycles = 40'000;
  /// Measured detailed cycles per window.
  std::uint64_t detail_cycles = 40'000;
  /// Uniform window spacing in per-core instructions. Larger strides
  /// raise the speedup but thin the window count; at long horizons the
  /// real win comes from `target_ci_frac` stopping the run outright.
  std::uint64_t functional_instructions = 100'000;
  /// CPU-cycle charge per critical demand-read miss during warming
  /// (a loaded-latency stand-in for the memory the fast-forward skips).
  Cycle critical_penalty = 160;
  /// CI machinery: never auto-stop before `min_windows` observations;
  /// `max_windows` > 0 hard-caps the window count; `target_ci_frac` > 0
  /// stops once ci95_half / mean <= target for IPC.
  std::uint32_t min_windows = 8;
  std::uint32_t max_windows = 0;
  double target_ci_frac = 0.0;
  /// Window workers (sim/parallel_sampling.h): the planner places windows
  /// on a functional-only backbone and dispatches each to a pool of `jobs`
  /// workers. Must be >= 1; the observation set is identical for every
  /// worker count at a fixed placement.
  std::uint32_t jobs = 1;
  /// Stratified placement: > 0 splits the instruction horizon into
  /// `strata` equal slices, allocates windows to each slice in proportion
  /// to its observed memory traffic (LLC misses during the functional
  /// pass), and combines per-stratum means with Neyman-style cycle-share
  /// weights. 0 keeps uniform placement.
  std::uint32_t strata = 0;
};

/// One metric's sampled estimate.
struct SamplingEstimate {
  double mean = 0.0;
  double stderr_ = 0.0;    // s / sqrt(n)
  double ci95_half = 0.0;  // t_{0.975, n-1} * stderr
};

/// How measurement windows were placed along the run.
enum class SamplingPlacement : std::uint8_t {
  kUniform,     // evenly spaced windows
  kStratified,  // traffic-proportional per-stratum allocation
};

[[nodiscard]] const char* sampling_placement_name(SamplingPlacement p);

/// One measured window's raw observation. The full vector is kept on the
/// summary (not emitted to JSON) so determinism tests can compare the
/// exact per-window values across worker counts.
struct WindowObservation {
  std::uint64_t index = 0;    // placement ordinal (merge order)
  std::uint32_t stratum = 0;  // 0 when placement is not stratified
  std::uint64_t cpu_cycles = 0;
  double ipc = 0.0;
  double energy_mj_per_mcycle = 0.0;
  double refresh_blocked_per_mem_cycle = 0.0;
};

struct SamplingSummary {
  bool enabled = false;
  std::uint64_t windows = 0;  // measured windows (observations)
  std::uint64_t measured_cpu_cycles = 0;
  std::uint64_t functional_cpu_cycles = 0;
  bool ci_converged = false;  // target_ci_frac was set and reached
  SamplingPlacement placement = SamplingPlacement::kUniform;
  /// Worker threads that executed the windows (operational, like
  /// wall_seconds: every statistical field above/below is identical for any
  /// worker count at a fixed placement — that is the determinism contract).
  std::uint32_t workers = 0;
  std::uint32_t strata = 0;
  SamplingEstimate ipc;
  SamplingEstimate energy_mj_per_mcycle;          // mJ per 1e6 mem cycles
  SamplingEstimate refresh_blocked_per_mem_cycle;
  /// Per-window raw observations in placement order.
  std::vector<WindowObservation> observations;
};

/// Two-sided 95% Student-t quantile for `df` degrees of freedom (exact
/// table below 30, 1.96 beyond).
[[nodiscard]] double t_quantile_975(std::uint64_t df);

/// Mean / stderr / CI of a set of observations (empty -> zeros).
[[nodiscard]] SamplingEstimate estimate_from(
    const std::vector<double>& observations);

/// Stratified estimator: observation i belongs to stratum `stratum_of[i]`,
/// stratum h carries weight `stratum_weight[h]` (its estimated share of the
/// run — cycle estimates from the functional pass). Mean is the
/// weight-combined per-stratum mean; the variance follows the standard
/// stratified form Var = sum_h (W_h/W)^2 s_h^2 / n_h over strata with at
/// least two observations, with df = sum_h (n_h - 1). Strata with zero
/// observations drop out (weights renormalized over the covered strata).
/// Falls back to estimate_from when every observation lands in one stratum.
[[nodiscard]] SamplingEstimate stratified_estimate(
    const std::vector<double>& observations,
    const std::vector<std::uint32_t>& stratum_of,
    const std::vector<double>& stratum_weight);

}  // namespace rop::sim
