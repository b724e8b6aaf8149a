// SMARTS-style sampled execution at its defaults (the planner with one
// window worker): statistical machinery (t quantiles, the mean/stderr/CI
// estimator), determinism of a sampled run, and the headline accuracy
// contract — on every SPEC-like profile, the sampled IPC and energy
// estimates must contain the exact event-driven run's value inside their
// emitted 95% confidence interval.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/sampling.h"
#include "workload/spec_profiles.h"

namespace rop::sim {
namespace {

TEST(SamplingMath, TQuantiles) {
  EXPECT_DOUBLE_EQ(t_quantile_975(1), 12.706);
  EXPECT_DOUBLE_EQ(t_quantile_975(4), 2.776);
  EXPECT_DOUBLE_EQ(t_quantile_975(29), 2.045);
  EXPECT_DOUBLE_EQ(t_quantile_975(30), 1.96);
  EXPECT_DOUBLE_EQ(t_quantile_975(1000), 1.96);
  EXPECT_DOUBLE_EQ(t_quantile_975(0), 0.0);
}

TEST(SamplingMath, EstimatorMeanStderrCI) {
  const SamplingEstimate empty = estimate_from({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stderr_, 0.0);

  const SamplingEstimate one = estimate_from({3.5});
  EXPECT_DOUBLE_EQ(one.mean, 3.5);
  EXPECT_DOUBLE_EQ(one.stderr_, 0.0);  // undefined variance -> no CI

  const SamplingEstimate e = estimate_from({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.mean, 2.5);
  EXPECT_NEAR(e.stderr_, std::sqrt((5.0 / 3.0) / 4.0), 1e-12);
  EXPECT_NEAR(e.ci95_half, 3.182 * e.stderr_, 1e-12);

  const SamplingEstimate c = estimate_from({7.0, 7.0, 7.0});
  EXPECT_DOUBLE_EQ(c.mean, 7.0);
  EXPECT_DOUBLE_EQ(c.ci95_half, 0.0);  // zero variance -> degenerate CI
}

ExperimentSpec sampled_spec(const std::string& bench) {
  ExperimentSpec spec = single_core_spec(bench, MemoryMode::kBaseline);
  spec.instructions_per_core = 2'000'000;
  spec.sampling.enabled = true;
  return spec;
}

TEST(Sampling, SampledRunIsDeterministic) {
  ExperimentSpec spec = sampled_spec("libquantum");
  ExperimentResult a = run_experiment(spec);
  ExperimentResult b = run_experiment(spec);
  a.wall_seconds = b.wall_seconds = 0.0;
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_GT(a.sampling.windows, 0u);
  EXPECT_GT(a.sampling.functional_cpu_cycles, 0u);
  // The sampled run simulated only part of the horizon in detail.
  EXPECT_LT(a.sampling.measured_cpu_cycles, a.run.cpu_cycles);
}

TEST(Sampling, JsonCarriesSamplingBlock) {
  const ExperimentResult r = run_experiment(sampled_spec("omnetpp"));
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"sampling\":{"), std::string::npos);
  EXPECT_NE(json.find("\"ci95_half\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_mj_per_mcycle\""), std::string::npos);

  // Exact runs carry a null sampling block.
  ExperimentSpec exact = sampled_spec("omnetpp");
  exact.sampling.enabled = false;
  const std::string exact_json = run_experiment(exact).to_json();
  EXPECT_NE(exact_json.find("\"sampling\":null"), std::string::npos);
}

TEST(Sampling, TargetCIAutoStops) {
  ExperimentSpec spec = sampled_spec("libquantum");
  spec.instructions_per_core = 20'000'000;  // far more than convergence needs
  spec.sampling.min_windows = 4;
  spec.sampling.target_ci_frac = 0.10;
  const ExperimentResult r = run_experiment(spec);
  EXPECT_TRUE(r.sampling.ci_converged);
  EXPECT_GE(r.sampling.windows, 4u);
  // Auto-stop fired: nowhere near the full instruction budget was simulated
  // in detail.
  EXPECT_LT(r.run.cores[0].instructions, spec.instructions_per_core);
}

TEST(Sampling, MaxWindowsCapsTheRun) {
  ExperimentSpec spec = sampled_spec("lbm");
  spec.instructions_per_core = 20'000'000;
  spec.sampling.max_windows = 3;
  const ExperimentResult r = run_experiment(spec);
  EXPECT_EQ(r.sampling.windows, 3u);
}

// ---------------------------------------------------------------------------
// Accuracy: every SPEC-like profile, sampled vs exact event loop.

struct ExactMetrics {
  double ipc = 0.0;
  double energy_mj_per_mcycle = 0.0;
};

ExactMetrics exact_run(const std::string& bench) {
  ExperimentSpec spec = single_core_spec(bench, MemoryMode::kBaseline);
  spec.instructions_per_core = 2'000'000;
  const ExperimentResult r = run_experiment(spec);
  ExactMetrics m;
  m.ipc = static_cast<double>(r.run.cores[0].instructions) /
          static_cast<double>(r.run.cores[0].cpu_cycles);
  // DRAM-only energy rate (the sampled estimator excludes the ROP SRAM,
  // which kBaseline does not have anyway).
  m.energy_mj_per_mcycle = (r.total_energy_mj() - r.energy.sram_mj) * 1e6 /
                           static_cast<double>(r.run.mem_cycles);
  return m;
}

class SamplingAccuracy : public ::testing::TestWithParam<std::string_view> {};

TEST_P(SamplingAccuracy, WithinCIOfExactRun) {
  const std::string bench(GetParam());
  const ExactMetrics exact = exact_run(bench);

  const ExperimentResult s = run_experiment(sampled_spec(bench));
  ASSERT_GE(s.sampling.windows, 2u) << "not enough sampling windows";

  const SamplingEstimate& ipc = s.sampling.ipc;
  EXPECT_LE(std::abs(ipc.mean - exact.ipc), ipc.ci95_half)
      << "sampled IPC " << ipc.mean << " +/- " << ipc.ci95_half
      << " vs exact " << exact.ipc;

  const SamplingEstimate& energy = s.sampling.energy_mj_per_mcycle;
  EXPECT_LE(std::abs(energy.mean - exact.energy_mj_per_mcycle),
            energy.ci95_half)
      << "sampled energy " << energy.mean << " +/- " << energy.ci95_half
      << " vs exact " << exact.energy_mj_per_mcycle;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, SamplingAccuracy,
                         ::testing::ValuesIn(workload::kBenchmarkNames),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace rop::sim
