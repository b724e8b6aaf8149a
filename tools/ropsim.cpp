// ropsim — command-line driver for the ROP memory-system simulator.
//
// Runs any benchmark (or trace file) on any of the memory systems with the
// knobs exposed as flags, and prints a full report: performance, energy
// breakdown, refresh statistics, and (for ROP) engine internals.
//
//   ropsim --benchmark libquantum --mode rop --instructions 20000000
//   ropsim --benchmark wl1 --mode rop --cores 4 --ranks 4 --llc-mb 4
//   ropsim --benchmark lbm --compare --jobs 4
//   ropsim --benchmark wl1 --channels 4 --shard-channels 4
//   ropsim --trace /path/app.trace --mode baseline
//   ropsim campaign sweep.json --out results/
//   ropsim --help
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/runner.h"
#include "telemetry/stats_json.h"
#include "telemetry/trace_sink.h"
#include "workload/spec_profiles.h"

namespace {

using namespace rop;

struct Options {
  std::string benchmark = "libquantum";
  std::string trace_path;
  std::string mode = "baseline";
  std::uint32_t cores = 1;
  std::uint32_t ranks = 1;
  std::uint32_t channels = 1;
  std::uint32_t shard_channels = 0;
  std::uint32_t llc_mb = 2;
  std::uint64_t instructions = 10'000'000;
  std::uint32_t buffer_lines = 64;
  std::uint32_t window_multiple = 1;
  std::uint32_t training = 50;
  bool rank_partition = false;
  std::string refresh_mode = "1x";
  bool dump_stats = false;
  bool compare = false;
  unsigned jobs = 0;
  std::string loop = "event";  // --loop event|naive|sampled
  bool check = false;
  std::string snapshot_in;            // --snapshot-in PATH
  std::string snapshot_out;           // --snapshot-out PATH
  std::uint64_t snapshot_every = 0;   // --snapshot-every N (CPU cycles)
  std::uint64_t snapshot_stop = 0;    // --snapshot-stop-at N (CPU cycles)
  std::uint64_t sample_warmup = 0;    // --sample-warmup N; 0 = default
  std::uint64_t sample_detail = 0;    // --sample-detail N
  std::uint64_t sample_functional = 0;  // --sample-functional N
  std::uint32_t sample_min_windows = 0;   // --sample-min-windows N
  std::uint32_t sample_max_windows = 0;   // --sample-max-windows N
  double sample_target_ci = 0.0;      // --sample-target-ci FRAC
  std::optional<std::uint32_t> sample_jobs;  // --sample-jobs N
  std::uint32_t sample_strata = 0;    // --sample-strata N (stratified)
  std::string stats_json;             // --stats-json PATH
  std::string trace_out;              // --trace-out PATH
  std::string trace_cats = "all";     // --trace-cats CATS
  std::string trace_format = "json";  // --trace-format json|binary
  std::uint64_t epoch = 0;            // --epoch N; 0 = auto (tREFI)
  std::string progress;               // --progress FILE (JSONL heartbeat)
  std::uint64_t progress_every = 0;   // --progress-every N; 0 = default
};

[[noreturn]] void usage(int code) {
  std::puts(
      "ropsim — ROP memory-system simulator\n"
      "\n"
      "  --benchmark NAME     one of the 12 SPEC-like profiles, or wl1..wl6\n"
      "                       for a 4-core mix (default libquantum)\n"
      "  --trace PATH         replay a text trace file instead\n"
      "  --mode MODE          baseline | no-refresh | rop | elastic |\n"
      "                       pausing | per-bank | darp | sarp | hira\n"
      "                       (default baseline)\n"
      "  --cores N            number of cores (default 1; wl mixes force 4)\n"
      "  --ranks N            DRAM ranks (default 1)\n"
      "  --channels N         memory channels (default 1)\n"
      "  --shard-channels N   run the channel-sharded simulation loop with N\n"
      "                       shard workers (bit-identical to the serial\n"
      "                       loop; requires --loop event, no --trace-out)\n"
      "  --llc-mb N           shared LLC size in MiB (default 2)\n"
      "  --instructions N     per-core instruction target (default 10M)\n"
      "  --buffer-lines N     ROP SRAM capacity (default 64)\n"
      "  --window N           ROP observational window multiple (default 1)\n"
      "  --training N         ROP training refreshes (default 50)\n"
      "  --rank-partition     enable rank-aware mapping\n"
      "  --refresh 1x|2x|4x   JEDEC fine-grained refresh mode (default 1x)\n"
      "  --stats              dump the raw statistics registry\n"
      "  --compare            run the workload under every memory mode and\n"
      "                       print a comparison table (ignores --mode)\n"
      "  --jobs N             worker threads for --compare (default: one\n"
      "                       per hardware thread)\n"
      "  --loop MODE          simulation loop: event | naive | sampled\n"
      "                       (default event; event and naive are\n"
      "                       bit-identical; sampled is SMARTS-style\n"
      "                       statistical sampling — see docs/PERFORMANCE.md)\n"
      "  --no-fast-forward    alias for --loop naive (cross-checking)\n"
      "                       (results are bit-identical either way)\n"
      "  --check              audit the run with the SimChecker invariant\n"
      "                       checker (see docs/CORRECTNESS.md); nonzero\n"
      "                       exit on any violation\n"
      "  --stats-json PATH    write every counter/scalar/histogram plus the\n"
      "                       epoch time-series as JSON (schema in\n"
      "                       docs/OBSERVABILITY.md); with --compare, one\n"
      "                       document keyed by mode\n"
      "  --epoch N            epoch-sampling period in controller cycles\n"
      "                       (default: tREFI when --stats-json is given)\n"
      "  --trace-out PATH     write a Chrome trace-event timeline of the run\n"
      "                       (open in chrome://tracing or ui.perfetto.dev)\n"
      "  --trace-cats CATS    trace categories, comma-separated from\n"
      "                       cmds,refresh,rop,reqs, or all (default all)\n"
      "  --trace-format FMT   json | binary (default json)\n"
      "  --progress FILE      append a JSONL heartbeat (cycles, Mcyc/s, ETA)\n"
      "                       to FILE during the run; tail -f it for live\n"
      "                       state (see docs/OBSERVABILITY.md)\n"
      "  --progress-every N   heartbeat period in CPU cycles (default 10M)\n"
      "\n"
      "checkpoint/restore (see docs/PERFORMANCE.md §8):\n"
      "  --snapshot-out PATH      write a checkpoint (at --snapshot-stop-at,\n"
      "                           or periodically with --snapshot-every)\n"
      "  --snapshot-in PATH       resume a run from a checkpoint (the spec\n"
      "                           flags must match the saving run exactly)\n"
      "  --snapshot-every N       checkpoint every N CPU cycles\n"
      "  --snapshot-stop-at N     stop and checkpoint at CPU cycle N\n"
      "\n"
      "sampled-loop knobs (only with --loop sampled; defaults in\n"
      "src/sim/sampling.h):\n"
      "  --sample-warmup N        detailed-but-unmeasured CPU cycles per unit\n"
      "  --sample-detail N        measured CPU cycles per unit\n"
      "  --sample-functional N    per-core instructions between windows\n"
      "  --sample-min-windows N   observations before auto-stop may fire\n"
      "  --sample-max-windows N   hard cap on window count\n"
      "  --sample-target-ci F     stop when IPC ci95/mean <= F (e.g. 0.05)\n"
      "  --sample-jobs N          window workers (default 1): windows are\n"
      "                           planned on a functional-only pass and run\n"
      "                           on N snapshot-restoring workers (estimates\n"
      "                           are identical for every N >= 1; see\n"
      "                           docs/PERFORMANCE.md §9)\n"
      "  --sample-strata N        stratified window placement over N horizon\n"
      "                           slices, traffic-proportional allocation\n"
      "  --help\n"
      "\n"
      "campaign mode — expand a JSON sweep spec into a grid of runs with\n"
      "resumable checkpointing and one merged stats document:\n"
      "\n"
      "  ropsim campaign SPEC.json --out DIR [--jobs N] [--no-resume]\n"
      "                  [--stop-after N] [--quiet] [--progress FILE]\n"
      "\n"
      "  --progress FILE appends one JSONL heartbeat per cell transition\n"
      "  (done/failed/running counts, wall-clock, ETA, last cell label).\n"
      "\n"
      "  Writes DIR/cell_NNNNNN.json per run, DIR/manifest.json after every\n"
      "  completed cell, and DIR/merged.json once all cells are done.\n"
      "  Re-running the same spec resumes from the manifest. See\n"
      "  docs/PERFORMANCE.md for the spec format.\n");
  std::exit(code);
}

/// Value of a numeric flag. The whole text must parse as a T: for the
/// unsigned types digits only (no sign, space or trailing characters) and
/// in range. Anything else is a one-line error and exit status 2.
template <class T>
T number(const std::string& flag, const char* text) {
  const char* const end = text + std::strlen(text);
  T value{};
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options opt;
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(2);
    }
    return argv[++i];
  };
  using U32 = std::uint32_t;
  using U64 = std::uint64_t;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark") {
      opt.benchmark = need(i);
    } else if (arg == "--trace") {
      opt.trace_path = need(i);
    } else if (arg == "--mode") {
      opt.mode = need(i);
    } else if (arg == "--cores") {
      opt.cores = number<U32>(arg, need(i));
    } else if (arg == "--ranks") {
      opt.ranks = number<U32>(arg, need(i));
    } else if (arg == "--channels") {
      opt.channels = number<U32>(arg, need(i));
    } else if (arg == "--shard-channels") {
      opt.shard_channels = number<U32>(arg, need(i));
    } else if (arg == "--llc-mb") {
      opt.llc_mb = number<U32>(arg, need(i));
    } else if (arg == "--instructions") {
      opt.instructions = number<U64>(arg, need(i));
    } else if (arg == "--buffer-lines") {
      opt.buffer_lines = number<U32>(arg, need(i));
    } else if (arg == "--window") {
      opt.window_multiple = number<U32>(arg, need(i));
    } else if (arg == "--training") {
      opt.training = number<U32>(arg, need(i));
    } else if (arg == "--rank-partition") {
      opt.rank_partition = true;
    } else if (arg == "--refresh") {
      opt.refresh_mode = need(i);
    } else if (arg == "--stats") {
      opt.dump_stats = true;
    } else if (arg == "--compare") {
      opt.compare = true;
    } else if (arg == "--jobs") {
      opt.jobs = number<unsigned>(arg, need(i));
    } else if (arg == "--loop") {
      opt.loop = need(i);
    } else if (arg == "--no-fast-forward") {
      opt.loop = "naive";
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--snapshot-in") {
      opt.snapshot_in = need(i);
    } else if (arg == "--snapshot-out") {
      opt.snapshot_out = need(i);
    } else if (arg == "--snapshot-every") {
      opt.snapshot_every = number<U64>(arg, need(i));
    } else if (arg == "--snapshot-stop-at") {
      opt.snapshot_stop = number<U64>(arg, need(i));
    } else if (arg == "--sample-warmup") {
      opt.sample_warmup = number<U64>(arg, need(i));
    } else if (arg == "--sample-detail") {
      opt.sample_detail = number<U64>(arg, need(i));
    } else if (arg == "--sample-functional") {
      opt.sample_functional = number<U64>(arg, need(i));
    } else if (arg == "--sample-min-windows") {
      opt.sample_min_windows = number<U32>(arg, need(i));
    } else if (arg == "--sample-max-windows") {
      opt.sample_max_windows = number<U32>(arg, need(i));
    } else if (arg == "--sample-target-ci") {
      opt.sample_target_ci = number<double>(arg, need(i));
    } else if (arg == "--sample-jobs") {
      opt.sample_jobs = number<U32>(arg, need(i));
    } else if (arg == "--sample-strata") {
      opt.sample_strata = number<U32>(arg, need(i));
    } else if (arg == "--stats-json") {
      opt.stats_json = need(i);
    } else if (arg == "--epoch") {
      opt.epoch = number<U64>(arg, need(i));
    } else if (arg == "--trace-out") {
      opt.trace_out = need(i);
    } else if (arg == "--trace-cats") {
      opt.trace_cats = need(i);
    } else if (arg == "--trace-format") {
      opt.trace_format = need(i);
    } else if (arg == "--progress") {
      opt.progress = need(i);
    } else if (arg == "--progress-every") {
      opt.progress_every = number<U64>(arg, need(i));
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(2);
    }
  }
  return opt;
}

sim::MemoryMode parse_mode(const std::string& s) {
  // Shared preset-layer parser: the same names work in campaign specs.
  const auto mode = sim::parse_memory_mode(s);
  if (!mode) {
    std::fprintf(stderr, "unknown mode: %s\n", s.c_str());
    usage(2);
  }
  return *mode;
}

dram::RefreshMode parse_refresh(const std::string& s) {
  const auto mode = sim::parse_refresh_mode(s);
  if (!mode) {
    std::fprintf(stderr, "unknown refresh mode: %s\n", s.c_str());
    usage(2);
  }
  return *mode;
}

cpu::LoopMode parse_loop(const std::string& s) {
  if (s == "event") return cpu::LoopMode::kEventDriven;
  if (s == "naive") return cpu::LoopMode::kNaive;
  if (s == "sampled") return cpu::LoopMode::kEventDriven;  // window workers
  std::fprintf(stderr, "unknown loop mode: %s\n", s.c_str());
  usage(2);
}

std::uint32_t parse_categories(const std::string& csv) {
  const auto cats = telemetry::parse_trace_categories(csv);
  if (!cats) {
    std::fprintf(stderr,
                 "unknown trace category in: %s (valid: all, cmds, refresh, "
                 "rop, reqs)\n",
                 csv.c_str());
    usage(2);
  }
  return *cats;
}

/// Write `text` to `path`; stderr + false on failure.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  os << text;
  return static_cast<bool>(os);
}

/// The spec every run of this invocation shares (--compare varies only
/// its mode). Names and combinations are checked by sim::spec_error.
sim::ExperimentSpec spec_from_options(const Options& opt,
                                      sim::MemoryMode mode) {
  sim::ExperimentSpec spec;
  const std::optional<std::uint32_t> mix =
      workload::parse_workload_mix(opt.benchmark);
  if (!opt.trace_path.empty()) {
    spec.benchmarks.assign(opt.cores, opt.trace_path);
    spec.trace_file = opt.trace_path;
    spec.ranks = opt.ranks;
  } else if (mix) {
    spec.benchmarks = workload::workload_mix(*mix);
    spec.ranks = std::max(opt.ranks, 4u);
  } else {
    spec.benchmarks.assign(opt.cores, opt.benchmark);
    spec.ranks = opt.ranks;
  }
  spec.mode = mode;
  spec.rank_partition = opt.rank_partition;
  spec.channels = opt.channels;
  spec.shard_channels = std::min(opt.shard_channels, opt.channels);
  spec.llc_bytes = std::uint64_t{opt.llc_mb} << 20;
  spec.rop.buffer_lines = opt.buffer_lines;
  spec.rop.window_multiple = opt.window_multiple;
  spec.rop.training_refreshes = opt.training;
  spec.refresh_mode = parse_refresh(opt.refresh_mode);
  spec.instructions_per_core = opt.instructions;
  spec.max_cpu_cycles = opt.instructions * 256;
  spec.loop = parse_loop(opt.loop);
  spec.check = opt.check;
  spec.snapshot.in = opt.snapshot_in;
  spec.snapshot.out = opt.snapshot_out;
  spec.snapshot.every = opt.snapshot_every;
  spec.snapshot.stop_at = opt.snapshot_stop;
  spec.progress_file = opt.progress;
  if (opt.progress_every > 0) spec.progress_every = opt.progress_every;
  const bool sampled = opt.loop == "sampled";
  if (sampled) {
    spec.sampling.enabled = true;
    if (opt.sample_warmup > 0) spec.sampling.warmup_cycles = opt.sample_warmup;
    if (opt.sample_detail > 0) spec.sampling.detail_cycles = opt.sample_detail;
    if (opt.sample_functional > 0) {
      spec.sampling.functional_instructions = opt.sample_functional;
    }
    if (opt.sample_min_windows > 0) {
      spec.sampling.min_windows = opt.sample_min_windows;
    }
    spec.sampling.max_windows = opt.sample_max_windows;
    spec.sampling.target_ci_frac = opt.sample_target_ci;
    if (opt.sample_jobs) spec.sampling.jobs = *opt.sample_jobs;
    spec.sampling.strata = opt.sample_strata;
  }
  // Epoch series: --epoch in every loop (spec_error rejects it with
  // sampling); by default whenever an exact run writes a stats document.
  if (opt.epoch != 0) {
    spec.telemetry.sampler.epoch_cycles = opt.epoch;
  } else if (!opt.stats_json.empty() && !sampled) {
    spec.telemetry.sampler.epoch_cycles =
        dram::make_ddr4_1600_timings(spec.refresh_mode).tREFI;
  }
  if (!opt.trace_out.empty()) {
    spec.telemetry.trace.categories = parse_categories(opt.trace_cats);
  }
  return spec;
}

/// --compare: `base_spec` under every memory mode, fanned out over the
/// parallel experiment runner, summarized against the baseline.
int run_compare(const Options& opt, const sim::ExperimentSpec& base_spec) {
  if (!opt.progress.empty()) {
    std::fprintf(stderr, "ropsim: --progress is ignored with --compare (nine "
                         "concurrent runs would race on one heartbeat "
                         "file)\n");
  }
  std::vector<sim::ExperimentSpec> specs;
  for (const sim::MemoryMode mode : sim::kAllMemoryModes) {
    specs.push_back(base_spec);
    specs.back().mode = mode;
    specs.back().progress_file.clear();
  }
  std::printf("ropsim: comparing %zu modes on %s (%llu instructions/core, "
              "jobs=%u)\n",
              specs.size(), opt.benchmark.c_str(),
              static_cast<unsigned long long>(opt.instructions), opt.jobs);
  const std::vector<sim::ExperimentResult> results =
      sim::run_experiments(specs, opt.jobs);

  const auto total_ipc = [](const sim::ExperimentResult& r) {
    double sum = 0.0;
    for (const auto& core : r.run.cores) sum += core.ipc;
    return sum;
  };
  const auto result_of = [&](sim::MemoryMode mode) -> const auto& {
    const auto at = std::find(sim::kAllMemoryModes.begin(),
                              sim::kAllMemoryModes.end(), mode);
    return results[static_cast<std::size_t>(at - sim::kAllMemoryModes.begin())];
  };
  const sim::ExperimentResult& base = result_of(sim::MemoryMode::kBaseline);

  TextTable table("mode comparison");
  table.set_header({"mode", "IPC", "speedup", "energy (mJ)", "energy ratio",
                    "refreshes", "lat p50", "lat p95", "lat p99", "wall (s)",
                    "Mcyc/s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::ExperimentResult& r = results[i];
    const Histogram* lat = r.stats.find_histogram("mem.read_latency_hist");
    const auto pct = [&](double p) {
      return lat != nullptr ? TextTable::fmt(lat->percentile(p), 1)
                            : std::string("-");
    };
    table.add_row({sim::memory_mode_name(specs[i].mode),
                   TextTable::fmt(total_ipc(r), 4),
                   TextTable::fmt(total_ipc(r) / total_ipc(base), 4),
                   TextTable::fmt(r.total_energy_mj(), 2),
                   TextTable::fmt(r.total_energy_mj() / base.total_energy_mj(),
                                  4),
                   std::to_string(r.refreshes), pct(50.0), pct(95.0),
                   pct(99.0), TextTable::fmt(r.wall_seconds, 2),
                   TextTable::fmt(r.sim_cycles_per_second() / 1e6, 1)});
  }
  table.print();
  std::printf("\nread-latency percentiles in controller cycles "
              "(bucket-interpolated; see docs/OBSERVABILITY.md)\n");
  std::printf("\nhost speed: simulated controller megacycles per wall-clock "
              "second per mode\n(timed inside System::run; --jobs overlap "
              "makes per-mode wall time conservative)\n");

  const sim::ExperimentResult& rop = result_of(sim::MemoryMode::kRop);
  if (rop.sram_hit_rate > 0.0) {
    std::printf("\nROP: sram-hit-rate=%.3f lambda=%.2f beta=%.2f\n",
                rop.sram_hit_rate, rop.lambda, rop.beta);
  }

  if (!opt.stats_json.empty()) {
    // One document, full per-mode dumps keyed by mode name. Each embedded
    // document is itself the single-run schema.
    std::string doc = "{\n\"benchmark\": \"" +
                      telemetry::JsonWriter::escape(opt.benchmark) +
                      "\",\n\"modes\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::string sub = results[i].to_json();
      while (!sub.empty() && (sub.back() == '\n' || sub.back() == ' ')) {
        sub.pop_back();
      }
      doc += '"';
      doc += sim::memory_mode_name(specs[i].mode);
      doc += "\": ";
      doc += sub;
      doc += (i + 1 < results.size()) ? ",\n" : "\n";
    }
    doc += "}\n}\n";
    if (!write_file(opt.stats_json, doc)) return 1;
    std::printf("\nwrote per-mode stats JSON to %s\n", opt.stats_json.c_str());
  }
  return 0;
}

/// One run of `spec` through run_experiment, then the report.
int run_single(const Options& opt, const sim::ExperimentSpec& spec) {
  std::printf("ropsim: mode=%s ranks=%u channels=%u shards=%u llc=%lluMiB "
              "refresh=%s cores=%zu\n",
              opt.mode.c_str(), spec.ranks, spec.channels,
              spec.shard_channels,
              static_cast<unsigned long long>(opt.llc_mb),
              opt.refresh_mode.c_str(), spec.benchmarks.size());
  sim::ExperimentResult result;
  try {
    result = sim::run_experiment(spec);
  } catch (const std::runtime_error& e) {  // bad --trace or snapshot file
    std::fprintf(stderr, "ropsim: %s\n", e.what());
    return 2;
  }
  // A sampled run stopping at its CI target (or window cap) and a run cut
  // at --snapshot-stop-at are early finishes by design, not truncation.
  if (result.run.hit_cycle_limit && !result.sampling.enabled &&
      !result.interrupted) {
    std::fprintf(stderr, "warning: cycle limit reached before the target\n");
  }
  if (result.interrupted) {
    std::printf("checkpointed at CPU cycle %llu -> %s (resume with "
                "--snapshot-in)\n",
                static_cast<unsigned long long>(result.run.cpu_cycles),
                spec.snapshot.out.c_str());
  }
  if (result.sampling.enabled) {
    const auto& s = result.sampling;
    std::printf("\nsampled run: %llu windows (%llu measured + %llu "
                "functional CPU cycles)%s\n",
                static_cast<unsigned long long>(s.windows),
                static_cast<unsigned long long>(s.measured_cpu_cycles),
                static_cast<unsigned long long>(s.functional_cpu_cycles),
                s.ci_converged ? " — CI target reached" : "");
    std::printf("  placement %s, %u worker%s%s\n",
                sim::sampling_placement_name(s.placement), s.workers,
                s.workers == 1 ? "" : "s",
                s.strata > 0
                    ? (", " + std::to_string(s.strata) + " strata").c_str()
                    : "");
    std::printf("  IPC                 %.4f +/- %.4f (95%% CI)\n",
                s.ipc.mean, s.ipc.ci95_half);
    std::printf("  energy mJ/Mcycle    %.4f +/- %.4f\n",
                s.energy_mj_per_mcycle.mean, s.energy_mj_per_mcycle.ci95_half);
    std::printf("  refresh-blocked/cyc %.5f +/- %.5f\n",
                s.refresh_blocked_per_mem_cycle.mean,
                s.refresh_blocked_per_mem_cycle.ci95_half);
  }

  TextTable cores_table("per-core results");
  cores_table.set_header({"core", "workload", "instructions", "cycles",
                          "IPC", "mem reads", "writebacks"});
  for (std::size_t c = 0; c < result.run.cores.size(); ++c) {
    const auto& r = result.run.cores[c];
    cores_table.add_row({std::to_string(c), spec.benchmarks[c],
                         std::to_string(r.instructions),
                         std::to_string(r.cpu_cycles),
                         TextTable::fmt(r.ipc, 4),
                         std::to_string(r.mem_reads),
                         std::to_string(r.mem_writebacks)});
  }
  cores_table.print();

  const energy::EnergyBreakdown& e = result.energy;
  TextTable energy_table("memory energy (mJ)");
  energy_table.set_header({"background", "act/pre", "read", "write",
                           "refresh", "io", "sram", "total"});
  energy_table.add_row(
      {TextTable::fmt(e.background_mj, 3), TextTable::fmt(e.act_pre_mj, 3),
       TextTable::fmt(e.read_mj, 3), TextTable::fmt(e.write_mj, 3),
       TextTable::fmt(e.refresh_mj, 3), TextTable::fmt(e.io_mj, 3),
       TextTable::fmt(e.sram_mj, 4), TextTable::fmt(e.total_mj(), 3)});
  energy_table.print();

  const StatRegistry& stats = result.stats;
  std::printf("\nrefreshes issued: %llu (postponement-average preserved); "
              "bank refreshes: %llu\n",
              static_cast<unsigned long long>(
                  stats.counter_value("mem.refreshes")),
              static_cast<unsigned long long>(
                  stats.counter_value("mem.bank_refreshes")));
  if (const auto* hist = stats.find_histogram("mem.read_latency_hist")) {
    std::printf("read latency: mean %.1f, p50 %.1f, p95 %.1f, p99 %.1f "
                "cycles\n",
                stats.find_scalar("mem.read_latency")->mean(),
                hist->percentile(50.0), hist->percentile(95.0),
                hist->percentile(99.0));
  }
  std::printf("non-blocking refreshes (1x tRFC window): %.1f%%; mean blocked "
              "per blocking refresh: %.2f\n",
              100.0 * result.nonblocking_fraction[0],
              result.mean_blocked_per_blocking_refresh[0]);
  if (spec.mode == sim::MemoryMode::kRop) {
    std::printf("\nROP: lambda=%.2f beta=%.2f buffer-hit-rate=%.3f "
                "fills=%llu\n",
                result.lambda, result.beta, result.sram_hit_rate,
                static_cast<unsigned long long>(
                    stats.counter_value("rop.buffer_fills")));
  }
  std::printf("wall: %.2f s (%.1f simulated controller Mcyc/s)\n",
              result.wall_seconds, result.sim_cycles_per_second() / 1e6);

  if (opt.dump_stats) {
    std::printf("\n--- raw statistics ---\n%s", stats.report().c_str());
  }
  // run_experiment aborts with the full report on any violation, so a
  // returned checked run is a clean one.
  if (result.checker_ticks > 0) {
    std::printf("\nchecker: OK (%llu ticks audited, 0 violations)\n",
                static_cast<unsigned long long>(result.checker_ticks));
  }
  if (result.trace) {
    std::ofstream os(opt.trace_out, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opt.trace_out.c_str());
      return 1;
    }
    if (opt.trace_format == "binary") {
      result.trace->write_binary(os);
    } else {
      result.trace->write_json(os);
    }
    std::printf("\nwrote %s trace to %s (%zu events, %llu dropped)\n",
                opt.trace_format.c_str(), opt.trace_out.c_str(),
                result.trace->size(),
                static_cast<unsigned long long>(result.trace->dropped()));
  }
  if (!opt.stats_json.empty()) {
    if (!write_file(opt.stats_json, result.to_json())) return 1;
    std::printf("wrote stats JSON to %s\n", opt.stats_json.c_str());
  }
  return 0;
}

/// `ropsim campaign SPEC.json --out DIR [...]`.
int run_campaign_cli(int argc, char** argv) {
  sim::CampaignOptions opts;
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      opts.out_dir = need(i);
    } else if (arg == "--jobs") {
      opts.jobs = number<unsigned>(arg, need(i));
    } else if (arg == "--no-resume") {
      opts.resume = false;
    } else if (arg == "--stop-after") {
      opts.stop_after = number<std::size_t>(arg, need(i));
    } else if (arg == "--quiet") {
      opts.progress = false;
    } else if (arg == "--progress") {
      opts.progress_file = need(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (!arg.empty() && arg[0] != '-' && opts.spec_path.empty()) {
      opts.spec_path = arg;
    } else {
      std::fprintf(stderr, "unknown campaign flag: %s\n", arg.c_str());
      usage(2);
    }
  }
  if (opts.spec_path.empty()) {
    std::fprintf(stderr, "campaign: missing SPEC.json argument\n");
    usage(2);
  }
  if (opts.out_dir.empty()) {
    std::fprintf(stderr, "campaign: missing --out DIR\n");
    usage(2);
  }

  std::string err;
  const auto summary = sim::run_campaign(opts, &err);
  if (!summary) {
    std::fprintf(stderr, "campaign failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("campaign: %zu/%zu cells complete (%zu ran, %zu resumed)\n",
              summary->completed_cells, summary->total_cells,
              summary->ran_cells, summary->skipped_cells);
  if (summary->complete) {
    std::printf("merged stats: %s\n", summary->merged_path.c_str());
    return 0;
  }
  std::printf("incomplete — re-run the same command to resume\n");
  // stop_after is a deliberate pause, not a failure.
  return opts.stop_after > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "campaign") == 0) {
    return run_campaign_cli(argc, argv);
  }
  const Options opt = parse(argc, argv);
  if (opt.trace_format != "json" && opt.trace_format != "binary") {
    std::fprintf(stderr, "unknown --trace-format: %s\n",
                 opt.trace_format.c_str());
    usage(2);
  }
  if (opt.sample_jobs && opt.loop != "sampled") {
    std::fprintf(stderr, "--sample-jobs requires --loop sampled\n");
    return 2;
  }
  if (opt.compare && (!opt.trace_path.empty() || !opt.trace_out.empty() ||
                      !opt.snapshot_in.empty() || !opt.snapshot_out.empty() ||
                      opt.snapshot_every > 0 || opt.snapshot_stop > 0)) {
    std::fprintf(stderr, "--compare does not support --trace, --trace-out "
                         "or --snapshot-* (nine modes, one file); run modes "
                         "singly\n");
    return 2;
  }
  // --compare ignores --mode and runs every mode of this one spec.
  const sim::ExperimentSpec spec = spec_from_options(
      opt, opt.compare ? sim::MemoryMode::kBaseline : parse_mode(opt.mode));
  // --compare runs every mode, so every mode's rules apply.
  std::string err = sim::spec_error(spec);
  sim::ExperimentSpec each = spec;
  for (const sim::MemoryMode mode : sim::kAllMemoryModes) {
    if (!err.empty() || !opt.compare) break;
    each.mode = mode;
    err = sim::spec_error(each);
  }
  if (!err.empty()) {
    std::fprintf(stderr, "ropsim: %s\n", err.c_str());
    return 2;
  }
  return opt.compare ? run_compare(opt, spec) : run_single(opt, spec);
}
