// perfbench_bin: runs one benchmark workload in-process against the
// simulator library and prints one JSON line with its metrics.
//
//   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1
//                [--scale F]
//
// --trace 0 times build_sim_instance calls and whole simulated runs (the
// end-to-end metrics, see run_timed); --trace 1 runs the traced passes
// instead (the per-layer metrics, see traced.h). --scale shrinks every run
// length for the smoke self-test. perfbench/run.py builds this binary and wraps its
// output in the benchmark's result format.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "sim/experiment.h"
#include "sim/sim_instance.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  double scale = 1.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_bin: %s\n"
               "usage: perfbench_bin --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale F]\n"
               "workloads:",
               why);
  for (const auto name : kWorkloadNames) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0' && v[0] != '-';
      if (!have_seed) usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] - '0';
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.scale > 0.0) || a.scale > 1.0) {
        usage("--scale takes a number in (0, 1]");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

constexpr int kSetupsPerRun = 8;
constexpr std::size_t kMinRuns = 3;
constexpr std::uint64_t kSegments = 48;

/// kSetupsPerRun timed build_sim_instance calls, appended to `setup`. They
/// precede every timed run, so set-up is sampled across the whole
/// measurement and setup_s, the fastest of them, meets the host's fast
/// phases (see run_timed).
void time_setups(const rop::sim::ExperimentSpec& spec,
                 std::vector<double>& setup) {
  for (int i = 0; i < kSetupsPerRun; ++i) {
    const auto t0 = Clock::now();
    const rop::sim::SimInstance inst = rop::sim::build_sim_instance(spec);
    setup.push_back(seconds_since(t0));
  }
}

/// Host and CPU seconds of each segment of one exact run: begin_run, then
/// advance_until every `segment` CPU cycles, finish_run inside the last.
struct SegmentedRun {
  std::vector<double> wall;
  std::vector<double> cpu;
  rop::cpu::RunResult result;
  std::unique_ptr<rop::StatRegistry> stats;
};

SegmentedRun run_segmented(const rop::sim::ExperimentSpec& spec,
                           std::uint64_t segment) {
  rop::sim::SimInstance inst = rop::sim::build_sim_instance(spec);
  rop::cpu::System& system = *inst.system;
  SegmentedRun run;
  auto t = Clock::now();
  double c = process_cpu_seconds();
  system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  for (std::uint64_t stop = segment;; stop += segment) {
    const bool ended = system.advance_until(stop);
    if (ended) run.result = system.finish_run();
    const auto t_now = Clock::now();
    const double c_now = process_cpu_seconds();
    run.wall.push_back(std::chrono::duration<double>(t_now - t).count());
    run.cpu.push_back(c_now - c);
    t = t_now;
    c = c_now;
    if (ended) break;
  }
  run.stats = std::move(inst.owned_stats);
  return run;
}

/// Sum over segments of each segment's fastest time across runs.
double fastest_total(const std::vector<std::vector<double>>& runs) {
  double sum = 0.0;
  for (std::size_t k = 0; k < runs.front().size(); ++k) {
    double best = runs.front()[k];
    for (const auto& r : runs) best = std::min(best, r[k]);
    sum += best;
  }
  return sum;
}

/// End-to-end pass: one untimed warm-up run_experiment call, then timed
/// runs until `seconds` are used (at least kMinRuns), each preceded by
/// time_setups. Every run is checked against the warm-up run.
///
/// The shared host alternates, in phases of tens of milliseconds to tens of
/// seconds, between full speed and modes up to 1.8x slower, so the median
/// of whole one-second runs drifts with the share of slow phases a run
/// happened to see. The exact workloads therefore run segmented: the same
/// simulation split into kSegments fixed CPU-cycle segments (bit-identical
/// to the unbroken run), each timed, and wall_s / cpu_s sum, over segments,
/// that segment's fastest time across the runs: the simulation's cost at the
/// host's full speed, which needs each segment to meet a fast phase once.
/// The sampled workload's planner and worker pool run only inside
/// run_experiment, so its wall_s / cpu_s are medians of whole run_experiment
/// calls. setup_s is the fastest build: a build is 0.1 to 0.5 ms, so each
/// one falls in a single phase, and the median of a run's builds moved by
/// 40% between two sets of ten runs of the same code half an hour apart.
/// The detail line keeps every build, every run's total and their medians.
Report run_timed(const Workload& w, double seconds) {
  const rop::sim::ExperimentSpec& spec = w.spec;
  Report rep;

  const rop::sim::ExperimentResult warm = rop::sim::run_experiment(spec);
  const std::uint64_t digest = sim_digest(warm);
  ++rep.attempted;
  if (const std::string bad = check_result(warm, spec); !bad.empty()) {
    rep.fail("warm-up run: " + bad);
  }
  const bool segmented = !spec.sampling.enabled;
  const std::uint64_t segment = std::max<std::uint64_t>(
      1, (warm.run.cpu_cycles + kSegments - 1) / kSegments);

  std::vector<double> setup;
  std::vector<double> total;
  std::vector<double> cpu;
  std::vector<std::vector<double>> seg_wall;
  std::vector<std::vector<double>> seg_cpu;
  const auto start = Clock::now();
  while (total.size() < kMinRuns ||
         seconds_since(start) + total.back() <= seconds) {
    time_setups(spec, setup);
    ++rep.attempted;
    std::string bad;
    if (segmented) {
      SegmentedRun r = run_segmented(spec, segment);
      total.push_back(std::accumulate(r.wall.begin(), r.wall.end(), 0.0));
      cpu.push_back(std::accumulate(r.cpu.begin(), r.cpu.end(), 0.0));
      bad = compare_stats(warm.run, warm.stats, r.result, *r.stats);
      if (!seg_wall.empty() && r.wall.size() != seg_wall.front().size()) {
        bad = "segment count differs between runs";
      }
      if (bad.empty()) {
        seg_wall.push_back(std::move(r.wall));
        seg_cpu.push_back(std::move(r.cpu));
      }
    } else {
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      const rop::sim::ExperimentResult r = rop::sim::run_experiment(spec);
      total.push_back(seconds_since(t0));
      cpu.push_back(process_cpu_seconds() - cpu0);
      bad = check_result(r, spec);
      if (bad.empty() && sim_digest(r) != digest) {
        bad = "simulated outputs differ from the warm-up run";
      }
    }
    if (!bad.empty()) {
      rep.fail("run " + std::to_string(total.size()) + ": " + bad);
    }
  }

  const double setup_s = *std::min_element(setup.begin(), setup.end());
  double wall_s = 0.0;
  double cpu_s = 0.0;
  if (!segmented) {
    wall_s = median(total) - setup_s;
    cpu_s = median(cpu);
  } else if (!seg_wall.empty()) {
    wall_s = fastest_total(seg_wall);
    cpu_s = fastest_total(seg_cpu);
  }
  rep.metrics = {
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s, "s"},
      {"cpu_s", cpu_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };

  std::vector<double> ipc;
  for (std::size_t c = 0; c < warm.run.cores.size(); ++c) ipc.push_back(warm.ipc(c));
  rep.detail
      .num("sim_mips",
           static_cast<double>(simulated_instructions(spec)) / wall_s / 1e6)
      .integer("timed_runs", total.size())
      .integer("segments", seg_wall.empty() ? 0 : seg_wall.front().size())
      .num("run_s_median", median(total))
      .num("build_s_median", median(setup))
      .nums("build_sim_instance_s", setup)
      .nums(segmented ? "segmented_run_s" : "run_experiment_s", total)
      .num("fail_frac", static_cast<double>(rep.failed) /
                            static_cast<double>(rep.attempted))
      .integer("worker_width", rop::sim::experiment_worker_width(spec))
      .str("sim_digest", hex64(digest))
      .nums("ipc", ipc)
      .num("energy_mj", warm.total_energy_mj())
      .integer("refresh_blocked_cycles",
               warm.stats.counter_value("mem.refresh_blocked_cycles"));
  if (spec.sampling.enabled) {
    rep.detail.num("ipc_ci95_pct",
                   100.0 * warm.sampling.ipc.ci95_half / warm.sampling.ipc.mean)
        .num("sampled_ipc", warm.sampling.ipc.mean)
        .integer("sampled_windows", warm.sampling.windows);
  }
  return rep;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  // Pin glibc's allocator policy. By default its mmap threshold adapts to
  // the sizes freed so far, so a build_sim_instance call either reuses heap
  // memory or maps and first-touches fresh pages depending on what earlier
  // runs freed, and set-up time flips between ~0.15 ms and ~0.8 ms from run
  // to run. With a fixed threshold and no trimming, every timed call after
  // the warm-up run reuses warm heap memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const auto w = make_workload(args.workload, args.seed, args.scale);
  if (!w) usage(("unknown workload " + args.workload).c_str());

  Report rep = args.trace == 1 ? run_traced(*w, args.seconds)
                               : run_timed(*w, args.seconds);

  JsonObject host;
  host.str("compiler", PERFBENCH_COMPILER).str("build_type", PERFBENCH_BUILD_TYPE);
  rep.detail.strs("failures", rep.failures).obj("build", host);

  JsonObject out;
  out.str("workload", w->name)
      .integer("seed", args.seed)
      .boolean("correct", rep.failed == 0)
      .integer("attempted", rep.attempted)
      .integer("failed", rep.failed)
      .obj("metrics", metrics_json(rep.metrics))
      .obj("detail", rep.detail);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
