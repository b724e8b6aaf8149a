// Experiment-layer tests: canned runners produce coherent metric bundles.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "sim/experiment.h"
#include "telemetry/trace_sink.h"

namespace rop::sim {
namespace {

ExperimentSpec quick(std::string bench, MemoryMode mode) {
  ExperimentSpec spec = single_core_spec(std::move(bench), mode);
  spec.instructions_per_core = 400'000;
  return spec;
}

TEST(Experiment, BaselineRunProducesMetrics) {
  const ExperimentResult res = run_experiment(quick("libquantum",
                                                    MemoryMode::kBaseline));
  EXPECT_GT(res.ipc(), 0.0);
  EXPECT_GT(res.total_energy_mj(), 0.0);
  EXPECT_GT(res.refreshes, 0u);
  EXPECT_EQ(res.nonblocking_fraction.size(), 3u);
  for (const double f : res.nonblocking_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(Experiment, NoRefreshHasZeroRefreshes) {
  const ExperimentResult res = run_experiment(quick("bzip2",
                                                    MemoryMode::kNoRefresh));
  EXPECT_EQ(res.refreshes, 0u);
  EXPECT_DOUBLE_EQ(res.energy.refresh_mj, 0.0);
}

TEST(Experiment, RopRunPopulatesRopMetrics) {
  ExperimentSpec spec = quick("libquantum", MemoryMode::kRop);
  spec.instructions_per_core = 2'000'000;
  spec.rop.training_refreshes = 5;
  const ExperimentResult res = run_experiment(spec);
  EXPECT_GE(res.sram_hit_rate, 0.0);
  EXPECT_LE(res.sram_hit_rate, 1.0);
  EXPECT_GT(res.stats.counter_value("rop.decisions_prefetch") +
                res.stats.counter_value("rop.decisions_skip") +
                res.stats.counter_value("rop.skipped_saturated"),
            0u);
  EXPECT_GT(res.energy.sram_mj, 0.0);
}

TEST(Experiment, DeterministicForEqualSpecs) {
  const ExperimentSpec spec = quick("gcc", MemoryMode::kBaseline);
  const ExperimentResult a = run_experiment(spec);
  const ExperimentResult b = run_experiment(spec);
  EXPECT_DOUBLE_EQ(a.ipc(), b.ipc());
  EXPECT_DOUBLE_EQ(a.total_energy_mj(), b.total_energy_mj());
  EXPECT_EQ(a.refreshes, b.refreshes);
}

TEST(Experiment, SeedSaltChangesOutcome) {
  ExperimentSpec a = quick("gcc", MemoryMode::kBaseline);
  ExperimentSpec b = a;
  b.seed_salt = 42;
  EXPECT_NE(run_experiment(a).run.cpu_cycles,
            run_experiment(b).run.cpu_cycles);
}

TEST(Experiment, MultiCoreSpecBuildsFourCores) {
  ExperimentSpec spec = multi_core_spec(3, MemoryMode::kBaseline, true);
  spec.instructions_per_core = 150'000;
  const ExperimentResult res = run_experiment(spec);
  EXPECT_EQ(res.run.cores.size(), 4u);
  for (const auto& core : res.run.cores) {
    EXPECT_GT(core.ipc, 0.0);
  }
}

TEST(Experiment, WeightedSpeedupIdentityAgainstSelf) {
  ExperimentSpec spec = multi_core_spec(6, MemoryMode::kBaseline, false);
  spec.instructions_per_core = 150'000;
  const ExperimentResult res = run_experiment(spec);
  std::vector<double> alone;
  for (const auto& c : res.run.cores) alone.push_back(c.ipc);
  EXPECT_NEAR(res.weighted_speedup(alone), 4.0, 1e-9);
}

TEST(Experiment, NoRefreshBeatsBaselineOnIntensiveWorkload) {
  ExperimentSpec base = quick("lbm", MemoryMode::kBaseline);
  ExperimentSpec ideal = quick("lbm", MemoryMode::kNoRefresh);
  base.instructions_per_core = 2'000'000;
  ideal.instructions_per_core = 2'000'000;
  EXPECT_GT(run_experiment(ideal).ipc(), run_experiment(base).ipc());
}

TEST(Experiment, FgrModesChangeRefreshCount) {
  ExperimentSpec x1 = quick("libquantum", MemoryMode::kBaseline);
  ExperimentSpec x4 = x1;
  x4.refresh_mode = dram::RefreshMode::k4x;
  const auto r1 = run_experiment(x1);
  const auto r4 = run_experiment(x4);
  // 4x mode refreshes ~4x as often (per elapsed cycle).
  const double rate1 = static_cast<double>(r1.refreshes) /
                       static_cast<double>(r1.run.mem_cycles);
  const double rate4 = static_cast<double>(r4.refreshes) /
                       static_cast<double>(r4.run.mem_cycles);
  EXPECT_NEAR(rate4 / rate1, 4.0, 0.5);
}

// One invalid spec per rule spec_error states, each breaking only that
// rule, plus the valid shapes the front ends and perfbench build.
TEST(ExperimentSpecTest, SpecErrorRules) {
  const auto lbm = [](const std::function<void(ExperimentSpec&)>& edit) {
    ExperimentSpec spec = single_core_spec("lbm", MemoryMode::kRop);
    edit(spec);
    return spec;
  };
  const auto sharded = [](ExperimentSpec& s) {
    s.channels = 2;
    s.shard_channels = 2;
  };
  const auto sampled = [](ExperimentSpec& s) { s.sampling.enabled = true; };
  const auto replay = [](ExperimentSpec& s) {
    s.benchmarks = {"app.trace"};  // replay names only set the core count
    s.trace_file = "app.trace";
  };
  ExperimentSpec wl1_sharded = multi_core_spec(1, MemoryMode::kDarp, false);
  wl1_sharded.refresh_mode = dram::RefreshMode::k4x;
  wl1_sharded.channels = 4;
  wl1_sharded.shard_channels = 4;
  wl1_sharded.instructions_per_core = 25'000'000;
  wl1_sharded.max_cpu_cycles = 25'000'000ull * 256;

  struct Case {
    const char* name;
    ExperimentSpec spec;
    const char* error;  // expected substring; nullptr: the spec is valid
  };
  const Case cases[] = {
      {"single_core_spec", single_core_spec("gobmk", MemoryMode::kBaseline),
       nullptr},
      {"multi_core_spec", multi_core_spec(3, MemoryMode::kSarp, true),
       nullptr},
      {"sampled", lbm([&](ExperimentSpec& s) {
         sampled(s);
         s.sampling.jobs = 3;
         s.sampling.strata = 4;
       }),
       nullptr},
      {"snapshot", lbm([](ExperimentSpec& s) {
         s.snapshot.in = "a.snap";
         s.snapshot.out = "b.snap";
         s.snapshot.every = 10'000;
         s.snapshot.stop_at = 50'000;
       }),
       nullptr},
      {"perfbench lbm-rop-exact", lbm([](ExperimentSpec& s) {
         s.instructions_per_core = 50'000'000;
         s.max_cpu_cycles = 50'000'000ull * 256;
         s.seed_salt = 1;
       }),
       nullptr},
      {"perfbench wl1-darp4x-sharded", wl1_sharded, nullptr},
      {"trace replay", lbm(replay), nullptr},
      {"no benchmarks", lbm([](ExperimentSpec& s) { s.benchmarks.clear(); }),
       "no benchmarks"},
      {"unknown benchmark",
       lbm([](ExperimentSpec& s) { s.benchmarks.push_back("mcf"); }), "mcf"},
      {"zero ranks", lbm([](ExperimentSpec& s) { s.ranks = 0; }), "ranks"},
      {"zero channels", lbm([](ExperimentSpec& s) { s.channels = 0; }),
       "channels"},
      {"3 MiB LLC", lbm([](ExperimentSpec& s) { s.llc_bytes = 3ull << 20; }),
       "LLC"},
      {"shards on the naive loop", lbm([&](ExperimentSpec& s) {
         sharded(s);
         s.loop = cpu::LoopMode::kNaive;
       }),
       "shard_channels"},
      {"shards with an event trace", lbm([&](ExperimentSpec& s) {
         sharded(s);
         s.telemetry.trace.categories = telemetry::kCatAll;
       }),
       "shard_channels"},
      {"sampling with a snapshot", lbm([&](ExperimentSpec& s) {
         sampled(s);
         s.snapshot.out = "b.snap";
         s.snapshot.every = 10'000;
       }),
       "snapshot_every"},
      {"sampling with shards", lbm([&](ExperimentSpec& s) {
         sampled(s);
         sharded(s);
       }),
       "serial"},
      {"sampling with epochs", lbm([&](ExperimentSpec& s) {
         sampled(s);
         s.telemetry.sampler.epoch_cycles = 6240;
       }),
       "telemetry"},
      {"sampling with no jobs", lbm([&](ExperimentSpec& s) {
         sampled(s);
         s.sampling.jobs = 0;
       }),
       "sampling.jobs"},
      {"trace replay with a snapshot", lbm([&](ExperimentSpec& s) {
         replay(s);
         s.snapshot.in = "a.snap";
       }),
       "trace-file"},
      {"trace replay sampled", lbm([&](ExperimentSpec& s) {
         replay(s);
         sampled(s);
       }),
       "trace-file"},
      {"trace replay sharded", lbm([&](ExperimentSpec& s) {
         replay(s);
         sharded(s);
       }),
       "trace-file"},
      {"stop_at without out",
       lbm([](ExperimentSpec& s) { s.snapshot.stop_at = 5'000; }),
       "snapshot.out"},
      {"every without out",
       lbm([](ExperimentSpec& s) { s.snapshot.every = 5'000; }),
       "snapshot.out"},
      {"ROP without buffer lines",
       lbm([](ExperimentSpec& s) { s.rop.buffer_lines = 0; }),
       "rop.buffer_lines"},
      {"ROP without a window",
       lbm([](ExperimentSpec& s) { s.rop.window_multiple = 0; }),
       "rop.window_multiple"},
      {"ROP without training",
       lbm([](ExperimentSpec& s) { s.rop.training_refreshes = 0; }),
       "rop.training_refreshes"},
      {"zero ROP fields outside ROP mode", lbm([](ExperimentSpec& s) {
         s.mode = MemoryMode::kBaseline;
         s.rop.buffer_lines = 0;
         s.rop.window_multiple = 0;
         s.rop.training_refreshes = 0;
       }),
       nullptr},
  };
  for (const Case& c : cases) {
    const std::string err = spec_error(c.spec);
    if (c.error == nullptr) {
      EXPECT_EQ(err, "") << c.name;
    } else {
      EXPECT_NE(err.find(c.error), std::string::npos)
          << c.name << ": \"" << err << "\"";
      EXPECT_EQ(err.find('\n'), std::string::npos) << c.name;
    }
  }
}

TEST(ExperimentSpecTest, RunExperimentThrowsOnAnInvalidSpec) {
  ExperimentSpec spec = quick("lbm", MemoryMode::kBaseline);
  spec.llc_bytes = 3ull << 20;
  try {
    static_cast<void>(run_experiment(spec));
    FAIL() << "run_experiment accepted a 3 MiB LLC";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(spec_error(spec), e.what());
  }
}

}  // namespace
}  // namespace rop::sim
