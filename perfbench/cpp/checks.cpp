#include "checks.h"

#include <array>
#include <cmath>
#include <cstdio>

#include "sim/snapshot.h"

namespace perfbench {

using rop::cpu::CoreResult;
using rop::cpu::RunResult;
using rop::sim::ExperimentResult;
using rop::sim::ExperimentSpec;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string check_result(const ExperimentResult& r,
                         const ExperimentSpec& spec) {
  if (r.run.hit_cycle_limit) return "hit the cycle limit";
  if (r.run.cores.size() != spec.benchmarks.size()) return "core count";
  for (std::size_t c = 0; c < r.run.cores.size(); ++c) {
    const CoreResult& core = r.run.cores[c];
    if (core.cpi_stack_sum() != core.cpu_cycles) {
      return "core " + std::to_string(c) + " CPI stack does not sum to cycles";
    }
    if (core.instructions < spec.instructions_per_core) {
      return "core " + std::to_string(c) + " short of its instruction target";
    }
  }
  if (spec.sampling.enabled) {
    if (!r.sampling.enabled) return "sampling block missing";
    if (r.sampling.windows < 2) return "fewer than two sampled windows";
    const double ci = r.sampling.ipc.ci95_half;
    if (!std::isfinite(ci) || !std::isfinite(r.sampling.ipc.mean) ||
        r.sampling.ipc.mean <= 0.0) {
      return "sampled IPC estimate or its CI is not finite";
    }
  }
  return {};
}

std::uint64_t sim_digest(const ExperimentResult& r) {
  ExperimentResult masked = r;
  masked.wall_seconds = 0.0;  // also zeroes sim_cycles_per_second
  masked.sampling.workers = 0;
  return rop::sim::config_fingerprint(masked.to_json());
}

namespace {

std::string core_diff(const CoreResult& a, const CoreResult& b) {
  const auto fields = [](const CoreResult& c) {
    return std::array<std::uint64_t, 17>{
        c.instructions,
        c.cpu_cycles,
        c.mem_reads,
        c.mem_writebacks,
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
        c.other_cycles};
  };
  if (fields(a) != fields(b) || a.ipc != b.ipc) return "per-core results differ";
  return {};
}

}  // namespace

std::string compare_stats(const RunResult& a, const rop::StatRegistry& sa,
                          const RunResult& b, const rop::StatRegistry& sb) {
  if (a.cpu_cycles != b.cpu_cycles || a.mem_cycles != b.mem_cycles ||
      a.hit_cycle_limit != b.hit_cycle_limit ||
      a.cores.size() != b.cores.size()) {
    return "run totals differ";
  }
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    const std::string d = core_diff(a.cores[c], b.cores[c]);
    if (!d.empty()) return d + " (core " + std::to_string(c) + ")";
  }
  if (sa.counters().size() != sb.counters().size()) return "counter sets differ";
  for (const auto& [name, ctr] : sa.counters()) {
    if (ctr.value() != sb.counter_value(name)) return "counter " + name;
  }
  if (sa.scalars().size() != sb.scalars().size()) return "scalar sets differ";
  for (const auto& [name, s] : sa.scalars()) {
    const rop::Scalar* o = sb.find_scalar(name);
    if (o == nullptr || o->count() != s.count() || o->sum() != s.sum() ||
        o->min() != s.min() || o->max() != s.max()) {
      return "scalar " + name;
    }
  }
  if (sa.histograms().size() != sb.histograms().size()) {
    return "histogram sets differ";
  }
  for (const auto& [name, h] : sa.histograms()) {
    const rop::Histogram* o = sb.find_histogram(name);
    if (o == nullptr || o->count() != h.count() || o->sum() != h.sum() ||
        o->num_buckets() != h.num_buckets()) {
      return "histogram " + name;
    }
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      if (o->bucket(i) != h.bucket(i)) return "histogram " + name;
    }
  }
  return {};
}

}  // namespace perfbench
