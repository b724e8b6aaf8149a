#include "sim/experiment.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cache/llc.h"
#include "check/sim_checker.h"
#include "mem/refresh_stats.h"
#include "sim/parallel_sampling.h"
#include "sim/sim_instance.h"
#include "sim/snapshot.h"
#include "telemetry/attribution.h"
#include "telemetry/stats_json.h"
#include "workload/synthetic.h"

namespace rop::sim {

bool checker_enabled_by_environment() {
  if (const char* env = std::getenv("ROP_CHECK")) {
    return std::strcmp(env, "0") != 0 && env[0] != '\0';
  }
#ifdef ROP_CHECKER_DEFAULT_ON
  return true;
#else
  return false;
#endif
}

double ExperimentResult::weighted_speedup(
    const std::vector<double>& ipc_alone) const {
  ROP_ASSERT(ipc_alone.size() == run.cores.size());
  double ws = 0.0;
  for (std::size_t c = 0; c < run.cores.size(); ++c) {
    ROP_ASSERT(ipc_alone[c] > 0.0);
    ws += run.cores[c].ipc / ipc_alone[c];
  }
  return ws;
}

std::string ExperimentResult::to_json() const {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::uint64_t{4});

  w.key("run");
  w.begin_object();
  w.key("cpu_cycles");
  w.value(run.cpu_cycles);
  w.key("mem_cycles");
  w.value(run.mem_cycles);
  w.key("hit_cycle_limit");
  w.value(run.hit_cycle_limit);
  w.key("wall_seconds");
  w.value(wall_seconds);
  w.key("sim_cycles_per_second");
  w.value(sim_cycles_per_second());
  w.key("cores");
  w.begin_array();
  for (const cpu::CoreResult& c : run.cores) {
    w.begin_object();
    w.key("instructions");
    w.value(c.instructions);
    w.key("cpu_cycles");
    w.value(c.cpu_cycles);
    w.key("ipc");
    w.value(c.ipc);
    w.key("mem_reads");
    w.value(c.mem_reads);
    w.key("mem_writebacks");
    w.value(c.mem_writebacks);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("energy_mj");
  w.begin_object();
  w.key("background");
  w.value(energy.background_mj);
  w.key("act_pre");
  w.value(energy.act_pre_mj);
  w.key("read");
  w.value(energy.read_mj);
  w.key("write");
  w.value(energy.write_mj);
  w.key("refresh");
  w.value(energy.refresh_mj);
  w.key("io");
  w.value(energy.io_mj);
  w.key("sram");
  w.value(energy.sram_mj);
  w.key("total");
  w.value(energy.total_mj());
  w.end_object();

  w.key("rop");
  w.begin_object();
  w.key("sram_hit_rate");
  w.value(sram_hit_rate);
  w.key("lambda");
  w.value(lambda);
  w.key("beta");
  w.value(beta);
  w.key("refreshes");
  w.value(refreshes);
  w.end_object();

  w.key("refresh_blocking");
  w.begin_array();
  for (std::size_t k = 0; k < nonblocking_fraction.size(); ++k) {
    w.begin_object();
    w.key("window_multiple");
    w.value(static_cast<std::uint64_t>(
        mem::RefreshBlockingStats::kExaminedMultiples[k]));
    w.key("nonblocking_fraction");
    w.value(nonblocking_fraction[k]);
    w.key("mean_blocked_per_blocking_refresh");
    w.value(mean_blocked_per_blocking_refresh[k]);
    w.key("max_blocked");
    w.value(max_blocked[k]);
    w.end_object();
  }
  w.end_array();

  // Attribution (schema v3): per-core CPI stacks — a disjoint decomposition
  // of cpu_cycles, categories in telemetry::cpi_category_keys order — plus
  // the controller-side per-request blocked-cycle totals and the ROP
  // revived-cycles credit. cpi_stack values always sum to `cycles`.
  w.key("attribution");
  w.begin_object();
  w.key("cpu_ratio");
  w.value(static_cast<std::uint64_t>(cpu_ratio));
  w.key("cores");
  w.begin_array();
  for (std::size_t i = 0; i < run.cores.size(); ++i) {
    const cpu::CoreResult& c = run.cores[i];
    const std::array<std::uint64_t, telemetry::kCpiCategoryCount> vals = {
        c.retire_cycles,
        c.stall_mlp_cycles,
        c.stall_port_cycles,
        c.stall_mem_queue_cycles,
        c.stall_mem_bank_cycles,
        c.stall_mem_cas_cycles,
        c.stall_mem_bus_cycles,
        c.stall_refresh_rank_cycles,
        c.stall_refresh_bank_cycles,
        c.stall_refresh_subarray_cycles,
        c.stall_refresh_pause_cycles,
        c.stall_rop_sram_cycles,
        c.other_cycles,
    };
    w.begin_object();
    w.key("core");
    w.value(static_cast<std::uint64_t>(i));
    w.key("cycles");
    w.value(c.cpu_cycles);
    w.key("cpi_stack");
    w.begin_object();
    for (std::size_t k = 0; k < vals.size(); ++k) {
      w.key(telemetry::cpi_category_keys()[k]);
      w.value(vals[k]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("rop_recovered_cycles");
  w.value(stats.counter_value("attr.rop_recovered_cycles"));
  w.key("requests");
  w.begin_object();
  w.key("blocked_rank_cycles");
  w.value(stats.counter_value("attr.blocked_rank_cycles"));
  w.key("blocked_bank_cycles");
  w.value(stats.counter_value("attr.blocked_bank_cycles"));
  w.key("blocked_subarray_cycles");
  w.value(stats.counter_value("attr.blocked_subarray_cycles"));
  w.key("blocked_pause_cycles");
  w.value(stats.counter_value("attr.blocked_pause_cycles"));
  w.end_object();
  w.end_object();

  w.key("checker");
  w.begin_object();
  w.key("ticks");
  w.value(checker_ticks);
  w.key("violations");
  w.value(checker_violations);
  w.end_object();

  w.key("interrupted");
  w.value(interrupted);

  w.key("sampling");
  if (sampling.enabled) {
    w.begin_object();
    w.key("windows");
    w.value(sampling.windows);
    w.key("measured_cpu_cycles");
    w.value(sampling.measured_cpu_cycles);
    w.key("functional_cpu_cycles");
    w.value(sampling.functional_cpu_cycles);
    w.key("ci_converged");
    w.value(sampling.ci_converged);
    // Determinism contract (schema v4): every statistical key in this block
    // is byte-identical for any worker count at a fixed placement;
    // "workers" alone is operational metadata (like wall_seconds above).
    w.key("placement");
    w.value(sampling_placement_name(sampling.placement));
    w.key("workers");
    w.value(static_cast<std::uint64_t>(sampling.workers));
    w.key("strata");
    w.value(static_cast<std::uint64_t>(sampling.strata));
    const auto est = [&w](const char* name, const SamplingEstimate& e) {
      w.key(name);
      w.begin_object();
      w.key("mean");
      w.value(e.mean);
      w.key("stderr");
      w.value(e.stderr_);
      w.key("ci95_half");
      w.value(e.ci95_half);
      w.end_object();
    };
    est("ipc", sampling.ipc);
    est("energy_mj_per_mcycle", sampling.energy_mj_per_mcycle);
    est("refresh_blocked_per_mem_cycle",
        sampling.refresh_blocked_per_mem_cycle);
    w.end_object();
  } else {
    w.null();
  }

  telemetry::write_registry_sections(w, stats);
  telemetry::write_epoch_section(w, epochs.get());

  w.key("trace");
  if (trace) {
    w.begin_object();
    w.key("events");
    w.value(static_cast<std::uint64_t>(trace->size()));
    w.key("dropped");
    w.value(trace->dropped());
    w.end_object();
  } else {
    w.null();
  }

  w.end_object();
  os << '\n';
  return os.str();
}

std::string spec_error(const ExperimentSpec& spec) {
  if (spec.benchmarks.empty()) {
    return "no benchmarks: a run needs at least one core";
  }
  if (spec.trace_file.empty()) {
    for (const std::string& name : spec.benchmarks) {
      if (std::ranges::count(workload::kBenchmarkNames, name) == 0) {
        return "unknown benchmark '" + name + "'";
      }
    }
  }
  if (spec.ranks == 0 || spec.channels == 0) {
    return "ranks and channels must be >= 1";
  }
  if (spec.mode == MemoryMode::kRop) {
    // The engine's SRAM buffer, observation window and training phase each
    // need at least one unit.
    const std::pair<std::uint32_t, const char*> rop_fields[] = {
        {spec.rop.buffer_lines, "rop.buffer_lines"},
        {spec.rop.window_multiple, "rop.window_multiple"},
        {spec.rop.training_refreshes, "rop.training_refreshes"}};
    for (const auto& [value, name] : rop_fields) {
      if (value == 0) return std::string(name) + " must be >= 1";
    }
  }
  if (!cache::valid_geometry(
          make_system_config(spec.llc_bytes, spec.rank_partition).llc)) {
    return "LLC size of " + std::to_string(spec.llc_bytes) +
           " bytes does not give a power-of-two set count";
  }
  const bool sharded = spec.shard_channels > 0;
  // The trace sink interleaves channels, so tracing needs the serial loop.
  if (sharded && (spec.loop != cpu::LoopMode::kEventDriven ||
                  spec.telemetry.tracing())) {
    return "shard_channels requires the event-driven loop and no event trace";
  }
  if ((spec.snapshot.stop_at > 0 || spec.snapshot.every > 0) &&
      spec.snapshot.out.empty()) {
    return "snapshot.stop_at and snapshot.every require snapshot.out";
  }
  if (spec.sampling.enabled) {
    // Checkpointing a statistically sampled run is not meaningful; the
    // functional backbone never runs a detailed cycle for a sink to see.
    if (spec.snapshot.any()) {
      return "sampling cannot be combined with snapshots (snapshot_every, "
             "--snapshot-*)";
    }
    if (sharded) return "sampling runs on the serial loop: no shard_channels";
    if (spec.telemetry.any()) {
      return "sampling runs without telemetry sinks: no epoch series or "
             "event trace";
    }
    if (spec.sampling.jobs == 0) return "sampling.jobs must be >= 1";
  }
  if (!spec.trace_file.empty() &&
      (spec.snapshot.any() || spec.sampling.enabled || sharded)) {
    return "trace-file replay is exact, serial and uncheckpointed: no "
           "snapshots, sampling or shard_channels";
  }
  return {};
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  if (std::string err = spec_error(spec); !err.empty()) {
    throw std::runtime_error(err);
  }
  const bool sharded = spec.shard_channels > 0;
  const bool snap_active = spec.snapshot.any();
  ExperimentResult result;

  // Full system assembly lives in build_sim_instance (the parallel-sampling
  // workers build byte-compatible replicas through the same path); the
  // run_experiment extras — trace sink, invariant checkers — compose through
  // its hooks so the registry layout cannot drift between the two.
  // `inst` is declared before `checkers`: ~SimChecker detaches from the
  // memory system, so the checkers must be destroyed while it still lives.
  SimInstance inst;
  std::vector<std::unique_ptr<check::SimChecker>> checkers;
  SimInstanceHooks hooks;
  // Event trace: attach before anything can issue a command so the timeline
  // is complete from cycle 0. The cycle->microsecond scale always follows
  // the resolved memory config, not the spec's placeholder.
  //
  // Checkers: opt-in invariant auditor — per-tick structural checks plus an
  // end-of-run conservation audit; any violation aborts the experiment with
  // a report. Sharded runs get one checker per channel so each shard's
  // ticks audit into shard-owned state. Disabled while a snapshot or
  // sampling is active: the conservation audit counts from attach and
  // cannot span a restore or a functional jump.
  hooks.post_memory = [&](mem::MemorySystem& memory) {
    if (spec.telemetry.tracing()) {
      telemetry::TraceConfig trace_cfg = spec.telemetry.trace;
      trace_cfg.tck_ps = memory.config().timings.tCK_ps;
      result.trace = std::make_shared<telemetry::TraceSink>(trace_cfg);
      memory.set_trace(result.trace.get());
    }
    if ((spec.check || checker_enabled_by_environment()) && !snap_active &&
        !spec.sampling.enabled) {
      if (sharded) {
        for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
          checkers.push_back(std::make_unique<check::SimChecker>());
          checkers.back()->attach(memory, ch);
        }
      } else {
        checkers.push_back(std::make_unique<check::SimChecker>());
        checkers.back()->attach(memory);
        if (result.trace) checkers.back()->set_trace(result.trace.get());
      }
    }
  };
  hooks.post_engines =
      [&](std::vector<std::unique_ptr<engine::RopEngine>>& engines) {
        if (checkers.empty()) return;
        if (sharded) {
          // Channel-scoped checkers watch only their channel's engine.
          for (ChannelId ch = 0;
               ch < static_cast<ChannelId>(engines.size()); ++ch) {
            checkers[ch]->watch(*engines[ch]);
          }
        } else {
          for (const auto& eng : engines) checkers.front()->watch(*eng);
        }
      };

  inst = build_sim_instance(spec, &result.stats, hooks);
  mem::MemorySystem& memory = *inst.memory;
  std::vector<std::unique_ptr<engine::RopEngine>>& engines = inst.engines;
  cpu::System& system = *inst.system;
  result.cpu_ratio = inst.cpu_ratio;

  // Epoch sampler: constructed after the full system so an empty counter
  // list captures everything the subsystems registered.
  if (spec.telemetry.sampling()) {
    result.epochs = std::make_shared<telemetry::EpochSampler>(
        spec.telemetry.sampler, &result.stats);
    memory.set_sampler(result.epochs.get());
  }

  const bool progress_active =
      !spec.progress_file.empty() && !spec.sampling.enabled;
  const auto wall_start = std::chrono::steady_clock::now();
  if (spec.sampling.enabled) {
    // The instance above becomes the functional-only backbone; window
    // workers replicate it from the spec. Telemetry sinks hold
    // single-threaded ring state and the backbone never runs a detailed
    // cycle, hence spec_error's no-sinks rule.
    result.run = run_parallel_sampled(spec, inst, &result.sampling);
  } else {
    // One exact run, cut into segments only by checkpoint traffic and the
    // progress heartbeat; with neither it is a single segment. The restore
    // side re-runs the whole construction above (everything config-derived
    // is rebuilt from the spec), then overwrites the mutable surface from
    // the file. A segment stop is exact (see System::advance_until), so
    // extra boundaries never perturb the simulated behavior.
    SnapshotContext ctx = inst.snapshot_context();
    ctx.sampler = result.epochs.get();
    ctx.trace = result.trace.get();
    const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
    const auto checkpoint = [&] {
      if (!write_snapshot_file(spec.snapshot.out, ctx, fp)) {
        throw std::runtime_error("cannot write snapshot " +
                                 spec.snapshot.out);
      }
    };

    system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    if (!spec.snapshot.in.empty()) {
      std::string err;
      if (!read_snapshot_file(spec.snapshot.in, ctx, fp, &err)) {
        throw std::runtime_error("snapshot restore failed (" +
                                 spec.snapshot.in + "): " + err);
      }
    }
    const std::uint64_t stop_at = spec.snapshot.stop_at > 0
                                      ? spec.snapshot.stop_at
                                      : spec.max_cpu_cycles;
    std::uint64_t next_snap = 0;
    if (spec.snapshot.every > 0) {
      next_snap =
          (system.cpu_cycle() / spec.snapshot.every + 1) * spec.snapshot.every;
    }
    std::unique_ptr<telemetry::ProgressWriter> progress;
    std::uint64_t beat_every = 0;
    std::uint64_t next_beat = 0;
    const std::uint64_t target_total =
        spec.instructions_per_core * spec.benchmarks.size();
    if (progress_active) {
      progress =
          std::make_unique<telemetry::ProgressWriter>(spec.progress_file);
      beat_every = spec.progress_every > 0 ? spec.progress_every
                                           : std::uint64_t{10'000'000};
      next_beat = system.cpu_cycle() + beat_every;
    }
    const auto emit_beat = [&](bool done) {
      telemetry::ProgressWriter::RunHeartbeat h;
      h.cpu_cycles = system.cpu_cycle();
      h.max_cpu_cycles = spec.max_cpu_cycles;
      for (std::uint32_t c = 0; c < system.num_cores(); ++c) {
        h.instructions += system.core(c).stats().instructions;
      }
      h.target_instructions = target_total;
      h.cores_remaining = system.cores_remaining();
      h.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
      h.mcyc_per_s = h.wall_s > 0.0 ? static_cast<double>(h.cpu_cycles) /
                                          1e6 / h.wall_s
                                    : 0.0;
      if (h.instructions >= target_total) {
        h.eta_s = 0.0;
      } else if (h.instructions > 0) {
        h.eta_s = h.wall_s *
                  static_cast<double>(target_total - h.instructions) /
                  static_cast<double>(h.instructions);
      }
      h.done = done;
      progress->write_run(h);
    };
    for (;;) {
      std::uint64_t stop = stop_at;
      if (next_snap > 0) stop = std::min(stop, next_snap);
      if (next_beat > 0) stop = std::min(stop, next_beat);
      const bool ended = system.advance_until(stop);
      if (next_beat > 0 && (ended || system.cpu_cycle() >= next_beat)) {
        emit_beat(ended);
        while (next_beat <= system.cpu_cycle()) next_beat += beat_every;
      }
      if (ended) break;  // natural end: no checkpoint, the run is complete
      if (spec.snapshot.stop_at > 0 &&
          system.cpu_cycle() >= spec.snapshot.stop_at) {
        checkpoint();
        result.interrupted = true;
        break;
      }
      if (next_snap > 0 && system.cpu_cycle() >= next_snap) {
        checkpoint();
        while (next_snap <= system.cpu_cycle()) {
          next_snap += spec.snapshot.every;
        }
      }
    }
    result.run = system.finish_run();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // CPI-stack exactness (invariant family (e)): the frozen per-core stacks
  // must sum bit-exactly to the frozen cycles.
  if (!checkers.empty()) {
    for (std::size_t c = 0; c < result.run.cores.size(); ++c) {
      const cpu::CoreResult& r = result.run.cores[c];
      checkers.front()->audit_cpi(static_cast<std::uint32_t>(c),
                                  r.cpu_cycles, r.cpi_stack_sum());
    }
  }

  for (const auto& checker : checkers) {
    checker->finalize();
    result.checker_ticks += checker->ticks_checked();
    result.checker_violations += checker->violation_count();
    if (!checker->ok()) {
      std::fprintf(stderr, "%s\n", checker->summary().c_str());
      ROP_ASSERT(false && "SimChecker found invariant violations");
    }
  }

  // Energy: DRAM per channel + the SRAM buffer when ROP is active.
  const energy::DramPowerModel power(energy::DramEnergyParams{},
                                     memory.config().timings);
  for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const energy::EnergyBreakdown e =
        power.compute(memory.controller(ch).channel());
    result.energy.background_mj += e.background_mj;
    result.energy.act_pre_mj += e.act_pre_mj;
    result.energy.read_mj += e.read_mj;
    result.energy.write_mj += e.write_mj;
    result.energy.refresh_mj += e.refresh_mj;
    result.energy.io_mj += e.io_mj;
  }
  if (!engines.empty()) {
    const auto sram =
        energy::SramEnergyParams::for_capacity(spec.rop.buffer_lines);
    const double tck =
        static_cast<double>(memory.config().timings.tCK_ps) * 1e-12;
    for (const auto& eng : engines) {
      const auto& bs = eng->buffer().stats();
      const double on_s =
          static_cast<double>(eng->sram_on_cycles()) * tck;
      result.energy.sram_mj +=
          sram.energy_mj(bs.lookups + bs.fills, on_s);
    }
    // Paper §V-B3 hit-rate metric: the engines track hits/opportunities
    // directly (a queued read may first miss and later be served once its
    // fill lands, so raw hit/miss counters would double-count it).
    double rate_sum = 0.0;
    for (const auto& eng : engines) rate_sum += eng->overall_hit_rate();
    result.sram_hit_rate = rate_sum / static_cast<double>(engines.size());
    result.lambda = engines.front()->lambda();
    result.beta = engines.front()->beta();
  }

  // Refresh blocking statistics, merged over channels.
  result.refreshes = 0;
  const std::size_t num_windows =
      mem::RefreshBlockingStats::kExaminedMultiples.size();
  result.nonblocking_fraction.assign(num_windows, 0.0);
  result.mean_blocked_per_blocking_refresh.assign(num_windows, 0.0);
  result.max_blocked.assign(num_windows, 0);
  for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const auto& bs = memory.controller(ch).blocking_stats();
    result.refreshes += bs.total_refreshes();
    for (std::size_t k = 0; k < num_windows; ++k) {
      // Single channel in all presets; for multi-channel this is a simple
      // average rather than a weighted merge.
      result.nonblocking_fraction[k] += bs.non_blocking_fraction(k);
      result.mean_blocked_per_blocking_refresh[k] +=
          bs.mean_blocked_per_blocking_refresh(k);
      result.max_blocked[k] =
          std::max(result.max_blocked[k], bs.max_blocked(k));
    }
  }
  if (memory.num_channels() > 1) {
    for (std::size_t k = 0; k < num_windows; ++k) {
      result.nonblocking_fraction[k] /= memory.num_channels();
      result.mean_blocked_per_blocking_refresh[k] /= memory.num_channels();
    }
  }

  return result;
}

unsigned experiment_worker_width(const ExperimentSpec& spec) {
  unsigned width = 1;
  if (spec.shard_channels > 0) {
    width = std::max(width, std::min(spec.shard_channels, spec.channels));
  }
  if (spec.sampling.enabled) width = std::max(width, spec.sampling.jobs);
  return width;
}

ExperimentSpec single_core_spec(std::string benchmark, MemoryMode mode,
                                std::uint64_t llc_bytes) {
  ExperimentSpec spec;
  spec.benchmarks = {std::move(benchmark)};
  spec.mode = mode;
  spec.ranks = 1;
  spec.llc_bytes = llc_bytes;
  return spec;
}

ExperimentSpec multi_core_spec(std::uint32_t wl, MemoryMode mode,
                               bool rank_partition,
                               std::uint64_t llc_bytes) {
  ExperimentSpec spec;
  spec.benchmarks = workload::workload_mix(wl);
  spec.mode = mode;
  spec.ranks = 4;
  spec.rank_partition = rank_partition;
  spec.llc_bytes = llc_bytes;
  return spec;
}

}  // namespace rop::sim
