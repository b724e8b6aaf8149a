#include "traced.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>

#include "cache/llc.h"
#include "checks.h"
#include "cpu/core.h"
#include "mem/memory_system.h"
#include "mem/shard_pool.h"
#include "rop/rop_engine.h"
#include "sim/presets.h"
#include "sim/sampling.h"
#include "sim/sim_instance.h"
#include "sim/snapshot.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

namespace mem = rop::mem;
namespace sim = rop::sim;
using rop::Address;
using rop::ChannelId;
using rop::CoreId;
using rop::Cycle;
using rop::kNeverCycle;
using rop::RankId;
using rop::RequestId;
using rop::workload::TraceRecord;

/// Host time one steady_clock read adds to a span around a call; every
/// per-call timing below subtracts it. Measured once per traced run.
std::int64_t g_clock_ns = 0;

std::int64_t measure_clock_ns() {
  constexpr int kSpans = 200'000;
  std::int64_t total = 0;
  for (int i = 0; i < kSpans; ++i) {
    const std::int64_t t0 = now_ns();
    total += now_ns() - t0;
  }
  return total / kSpans;
}

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// Prefetched lines vs the ones a demand read later consumed from the SRAM
/// buffer (each fill counts as consumed at most once, the way the engine
/// defines its own phase accuracy).
struct FillUse {
  std::unordered_set<Address> unconsumed;
  std::uint64_t fills = 0;
  std::uint64_t consumed = 0;
};

/// Forwarding listener that times every callback into a ROP engine.
/// Nested callbacks (an engine re-entering the controller) are timed once,
/// as part of the outermost one.
class TimedListener final : public mem::ControllerListener {
 public:
  TimedListener(mem::ControllerListener& inner, FillUse& use)
      : inner_(inner), use_(use) {}

  std::optional<Cycle> on_enqueue(const mem::Request& req,
                                  Cycle now) override {
    const Span s(*this, true);
    return inner_.on_enqueue(req, now);
  }
  void on_demand_serviced(const mem::Request& req, Cycle now) override {
    const Span s(*this, false);
    inner_.on_demand_serviced(req, now);
  }
  void on_rank_locked(RankId rank, Cycle now) override {
    const Span s(*this, false);
    inner_.on_rank_locked(rank, now);
  }
  void on_refresh_issued(RankId rank, Cycle start, Cycle done) override {
    const Span s(*this, false);
    inner_.on_refresh_issued(rank, start, done);
  }
  void on_prefetch_filled(const mem::Request& req, Cycle now) override {
    ++use_.fills;
    use_.unconsumed.insert(req.line_addr);
    const Span s(*this, false);
    inner_.on_prefetch_filled(req, now);
  }
  void on_tick(Cycle now) override {
    const Span s(*this, false);
    inner_.on_tick(now);
  }
  void on_finalize(Cycle now) override {
    const Span s(*this, false);
    inner_.on_finalize(now);
  }

  /// Callbacks made from Controller::enqueue, and from tick/finalize.
  std::uint64_t enqueue_calls = 0;
  std::int64_t enqueue_ns = 0;
  std::uint64_t tick_calls = 0;
  std::int64_t tick_ns = 0;

 private:
  class Span {
   public:
    Span(TimedListener& l, bool from_enqueue)
        : l_(l), from_enqueue_(from_enqueue), outer_(l.depth_++ == 0),
          t0_(outer_ ? now_ns() : 0) {}
    ~Span() {
      --l_.depth_;
      if (!outer_) return;
      const std::int64_t ns = now_ns() - t0_ - g_clock_ns;
      if (from_enqueue_) {
        ++l_.enqueue_calls;
        l_.enqueue_ns += ns;
      } else {
        ++l_.tick_calls;
        l_.tick_ns += ns;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TimedListener& l_;
    bool from_enqueue_;
    bool outer_;
    std::int64_t t0_;
  };

  mem::ControllerListener& inner_;
  FillUse& use_;
  int depth_ = 0;
};

/// One demand request as the controller saw it arrive.
struct Arrival {
  Cycle cycle = 0;
  RequestId id = 0;
  Address line = 0;
  CoreId core = 0;
  bool write = false;
};

/// Per-channel auditor: counts executed ticks and captures the demand
/// stream — reads as they retire, writes as they first show up in the
/// write queue at a tick end (a write issued in the tick that first sees
/// it is missed; the capture coverage is reported).
class CaptureAuditor final : public mem::ControllerAuditor {
 public:
  explicit CaptureAuditor(FillUse& use) : use_(use) {}

  void on_tick_end(const mem::Controller& ctrl, Cycle /*now*/) override {
    ++ticks;
    const mem::RequestView wq = ctrl.write_queue();
    // Writes are appended in id order and only erased, so the unseen ones
    // form a suffix of the queue.
    for (std::size_t i = wq.size(); i-- > 0;) {
      const mem::Request& r = wq[i];
      if (r.id <= newest_write_) break;
      arrivals.push_back({r.arrival, r.id, r.line_addr, r.core, true});
    }
    if (!wq.empty()) newest_write_ = std::max(newest_write_, wq[wq.size() - 1].id);
  }

  void on_retired(const mem::Request& req) override {
    arrivals.push_back({req.arrival, req.id, req.line_addr, req.core, false});
    if (req.serviced_by == mem::ServicedBy::kSramBuffer &&
        use_.unconsumed.erase(req.line_addr) > 0) {
      ++use_.consumed;
    }
  }

  std::uint64_t ticks = 0;
  std::vector<Arrival> arrivals;

 private:
  FillUse& use_;
  RequestId newest_write_ = 0;
};

/// The in-situ pass: the workload's exact spec built through
/// build_sim_instance with the timing listeners and capture auditors.
/// Declaration order keeps the hooks alive until the instance is gone.
struct InSitu {
  std::vector<std::unique_ptr<FillUse>> uses;
  std::vector<std::unique_ptr<CaptureAuditor>> auditors;
  std::vector<std::unique_ptr<TimedListener>> listeners;
  sim::SimInstance inst;
  rop::cpu::RunResult run;
  double seconds = 0.0;  // build + run

  void execute(const sim::ExperimentSpec& spec) {
    mem::MemorySystem* memory = nullptr;
    sim::SimInstanceHooks hooks;
    hooks.post_memory = [&](mem::MemorySystem& m) {
      memory = &m;
      for (ChannelId ch = 0; ch < m.num_channels(); ++ch) {
        uses.push_back(std::make_unique<FillUse>());
        auditors.push_back(std::make_unique<CaptureAuditor>(*uses.back()));
        m.controller(ch).set_auditor(auditors.back().get());
      }
    };
    hooks.post_engines =
        [&](std::vector<std::unique_ptr<rop::engine::RopEngine>>& engines) {
          for (std::size_t ch = 0; ch < engines.size(); ++ch) {
            listeners.push_back(
                std::make_unique<TimedListener>(*engines[ch], *uses[ch]));
            memory->controller(static_cast<ChannelId>(ch))
                .set_listener(listeners.back().get());
          }
        };
    const auto t0 = Clock::now();
    inst = sim::build_sim_instance(spec, nullptr, hooks);
    run = inst.system->run(spec.instructions_per_core, spec.max_cpu_cycles);
    seconds = seconds_since(t0);
  }

  [[nodiscard]] std::vector<Arrival> stream() const {
    std::vector<Arrival> all;
    for (const auto& a : auditors) {
      all.insert(all.end(), a->arrivals.begin(), a->arrivals.end());
    }
    std::sort(all.begin(), all.end(), [](const Arrival& x, const Arrival& y) {
      return x.cycle != y.cycle ? x.cycle < y.cycle : x.id < y.id;
    });
    return all;
  }
};

std::uint64_t llc_accesses(const rop::cpu::System& system) {
  if (system.num_cores() > 1) return system.shared_llc().stats().accesses;
  return system.core(0).llc().stats().accesses;
}

// ---------------------------------------------------------------------------
// workload + cache: regenerate each core's record stream and time
// TraceSource::next, then feed the relocated addresses to a standalone LLC.

constexpr std::size_t kBatch = 256;

struct GeneratorReplay {
  std::vector<TraceRecord> stream;  // cores interleaved
  std::int64_t ns = 0;
};

GeneratorReplay replay_generators(const sim::ExperimentSpec& spec,
                                  std::uint64_t records) {
  const std::size_t cores = spec.benchmarks.size();
  const std::uint64_t per_core = std::max<std::uint64_t>(1, records / cores);
  GeneratorReplay out;
  std::vector<std::vector<TraceRecord>> per(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    rop::workload::SyntheticTrace gen(
        rop::workload::spec_profile(spec.benchmarks[c], spec.seed_salt + c));
    per[c].resize(per_core);
    for (std::uint64_t done = 0; done < per_core; done += kBatch) {
      const std::uint64_t end = std::min<std::uint64_t>(per_core, done + kBatch);
      const std::int64_t t0 = now_ns();
      for (std::uint64_t i = done; i < end; ++i) per[c][i] = gen.next();
      out.ns += now_ns() - t0 - g_clock_ns;
    }
  }
  // Cores interleaved record by record, each with its core-local addresses
  // (the cores probe the LLC before cpu::System relocates a miss).
  out.stream.reserve(per_core * cores);
  for (std::uint64_t i = 0; i < per_core; ++i) {
    for (std::size_t c = 0; c < cores; ++c) out.stream.push_back(per[c][i]);
  }
  return out;
}

struct CacheReplay {
  std::int64_t ns = 0;
  rop::cache::LlcStats stats;
};

CacheReplay replay_cache(const rop::cache::LlcConfig& cfg,
                         const std::vector<TraceRecord>& stream) {
  rop::cache::Llc llc(cfg);
  CacheReplay out;
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    const std::size_t end = std::min(stream.size(), i + kBatch);
    const std::int64_t t0 = now_ns();
    for (std::size_t j = i; j < end; ++j) {
      llc.access(stream[j].addr, stream[j].is_write);
    }
    out.ns += now_ns() - t0 - g_clock_ns;
  }
  out.stats = llc.stats();
  return out;
}

// ---------------------------------------------------------------------------
// cpu: drive one Core per benchmark through next_event_cycle / run_until /
// cycle against a memory that answers every read after a fixed latency.

class StubPort final : public rop::cpu::MemoryPort {
 public:
  explicit StubPort(std::uint64_t latency) : latency_(latency) {}

  std::optional<RequestId> issue_read(CoreId /*core*/, Address /*addr*/) override {
    const RequestId id = next_id_++;
    due.push_back({now + latency_, id});
    return id;
  }
  bool issue_write(CoreId /*core*/, Address /*addr*/) override { return true; }

  /// CPU cycle the core is executing; completions are due in FIFO order
  /// because the latency is constant.
  std::uint64_t now = 0;
  std::deque<std::pair<std::uint64_t, RequestId>> due;

 private:
  std::uint64_t latency_;
  RequestId next_id_ = 1;
};

struct CoreReplay {
  std::int64_t ns = 0;  // inclusive of nested generator and LLC calls
  std::uint64_t cycles = 0;
  std::uint64_t bulk_cycles = 0;
  std::uint64_t llc_accesses = 0;
};

CoreReplay replay_cores(const sim::ExperimentSpec& spec,
                        std::uint64_t instructions, std::uint64_t latency) {
  const rop::cpu::SystemConfig sys =
      sim::make_system_config(spec.llc_bytes, spec.rank_partition);
  CoreReplay out;
  for (std::size_t c = 0; c < spec.benchmarks.size(); ++c) {
    rop::workload::SyntheticTrace gen(
        rop::workload::spec_profile(spec.benchmarks[c], spec.seed_salt + c));
    StubPort port(latency);
    rop::cpu::Core core(static_cast<CoreId>(c), sys.core, sys.llc, gen, port);
    const std::int64_t t0 = now_ns();
    while (core.stats().instructions < instructions) {
      const std::uint64_t now = core.stats().cycles;
      while (!port.due.empty() && port.due.front().first <= now) {
        core.on_read_complete(port.due.front().second, now);
        port.due.pop_front();
      }
      const std::uint64_t next = core.next_event_cycle();
      if (next <= now) {
        port.now = now;
        core.cycle();
        continue;
      }
      const std::uint64_t target =
          port.due.empty() ? next : std::min(next, port.due.front().first);
      if (target == kNeverCycle) break;  // cannot happen: a sleeper has a read due
      core.run_until(target);
      out.bulk_cycles += target - now;
    }
    out.ns += now_ns() - t0 - g_clock_ns;
    out.cycles += core.stats().cycles;
    out.llc_accesses += core.llc().stats().accesses;
  }
  return out;
}

// ---------------------------------------------------------------------------
// mem / refresh / rop / dram / shard: replay the captured demand stream
// into a fresh memory system, ticking only at event boundaries.

/// A fresh memory system for `spec` in `mode`, with the ROP engines the
/// spec would attach (each wrapped in a timing listener when `timed`).
struct ReplayMemory {
  rop::StatRegistry stats;
  std::unique_ptr<mem::MemorySystem> memory;
  std::vector<std::unique_ptr<rop::engine::RopEngine>> engines;
  std::vector<std::unique_ptr<FillUse>> uses;
  std::vector<std::unique_ptr<TimedListener>> listeners;

  ReplayMemory(const sim::ExperimentSpec& spec, sim::MemoryMode mode,
               bool per_channel_stats, bool timed) {
    mem::MemoryConfig cfg = sim::make_memory_config(
        spec.ranks, mode, spec.refresh_mode, spec.channels);
    cfg.per_channel_stats = per_channel_stats;
    memory = std::make_unique<mem::MemorySystem>(cfg, &stats);
    if (mode == sim::MemoryMode::kRop) {
      for (ChannelId ch = 0; ch < memory->num_channels(); ++ch) {
        rop::engine::RopConfig rop_cfg = spec.rop;
        rop_cfg.seed ^= spec.seed_salt * 0x9e3779b97f4a7c15ULL + ch;
        engines.push_back(std::make_unique<rop::engine::RopEngine>(
            rop_cfg, memory->controller(ch), memory->address_map(),
            &memory->channel_stats(ch)));
        if (timed) {
          uses.push_back(std::make_unique<FillUse>());
          listeners.push_back(
              std::make_unique<TimedListener>(*engines.back(), *uses.back()));
          memory->controller(ch).set_listener(listeners.back().get());
        }
      }
    }
    if (per_channel_stats) memory->mirror_channel_stats();
  }

  [[nodiscard]] rop::dram::ChannelEvents events() const {
    rop::dram::ChannelEvents sum;
    for (ChannelId ch = 0; ch < memory->num_channels(); ++ch) {
      const rop::dram::ChannelEvents& e = memory->controller(ch).channel().events();
      sum.activates += e.activates;
      sum.precharges += e.precharges;
      sum.reads += e.reads;
      sum.writes += e.writes;
      sum.refreshes += e.refreshes;
      sum.bank_refreshes += e.bank_refreshes;
      sum.refresh_segments += e.refresh_segments;
    }
    return sum;
  }
};

struct MemReplay {
  std::uint64_t ticks = 0;
  std::uint64_t next_calls = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t rejects = 0;
  std::uint64_t completions = 0;
  std::int64_t tick_ns = 0;  // tick + completion drain, callbacks included
  std::int64_t next_ns = 0;
  std::int64_t enqueue_ns = 0;  // callbacks included
  std::uint64_t cb_enqueue_calls = 0;
  std::int64_t cb_enqueue_ns = 0;
  std::uint64_t cb_tick_calls = 0;
  std::int64_t cb_tick_ns = 0;
  Cycle end = 0;
  rop::dram::ChannelEvents events{};

  /// Controller self time: every callback span, and the two clock reads
  /// each one adds to the enclosing span, taken out.
  [[nodiscard]] double tick_self_ns() const {
    return static_cast<double>(tick_ns - cb_tick_ns) -
           2.0 * static_cast<double>(g_clock_ns) * static_cast<double>(cb_tick_calls);
  }
  [[nodiscard]] double enqueue_self_ns() const {
    return static_cast<double>(enqueue_ns - cb_enqueue_ns) -
           2.0 * static_cast<double>(g_clock_ns) * static_cast<double>(cb_enqueue_calls);
  }
  [[nodiscard]] double self_ns() const {
    return tick_self_ns() + static_cast<double>(next_ns) + enqueue_self_ns();
  }
};

/// Serial replay through MemorySystem::enqueue / tick / next_event_cycle /
/// for_each_completed, the way cpu::System's event loop drives it: a tick
/// executes only at the controller's next event or the cycle after an
/// accepted enqueue; a refused request is offered again after the next
/// tick.
MemReplay replay_serial(ReplayMemory& rm, const std::vector<Arrival>& stream) {
  mem::MemorySystem& memory = *rm.memory;
  MemReplay out;
  const std::size_t n = stream.size();
  std::size_t idx = 0;
  Cycle now = 0;
  Cycle next_event = 0;
  Cycle offer_at = n > 0 ? stream[0].cycle : kNeverCycle;
  for (;;) {
    const Cycle visit = std::min(next_event, offer_at);
    if (visit == kNeverCycle) break;
    now = visit;
    if (now >= next_event) {
      const std::int64_t t0 = now_ns();
      memory.tick(now);
      memory.for_each_completed([&](const mem::Request&) { ++out.completions; });
      const std::int64_t t1 = now_ns();
      next_event = memory.next_event_cycle(now);
      const std::int64_t t2 = now_ns();
      out.tick_ns += t1 - t0 - g_clock_ns;
      out.next_ns += t2 - t1 - g_clock_ns;
      ++out.ticks;
      ++out.next_calls;
    }
    bool accepted = false;
    while (idx < n && stream[idx].cycle <= now) {
      const Arrival& a = stream[idx];
      const std::int64_t t0 = now_ns();
      const auto id = memory.enqueue(
          a.line, a.write ? mem::ReqType::kWrite : mem::ReqType::kRead, a.core, now);
      out.enqueue_ns += now_ns() - t0 - g_clock_ns;
      ++out.enqueues;
      if (!id) {
        ++out.rejects;
        break;
      }
      accepted = true;
      ++idx;
    }
    if (accepted) next_event = std::min(next_event, now + 1);
    if (idx < n) {
      offer_at = stream[idx].cycle <= now ? next_event : stream[idx].cycle;
    } else {
      offer_at = kNeverCycle;
      if (memory.idle()) break;
    }
  }
  memory.finalize(now);
  out.end = now;
  for (const auto& l : rm.listeners) {
    out.cb_enqueue_calls += l->enqueue_calls;
    out.cb_enqueue_ns += l->enqueue_ns;
    out.cb_tick_calls += l->tick_calls;
    out.cb_tick_ns += l->tick_ns;
  }
  out.events = rm.events();
  return out;
}

struct ShardReplay {
  std::uint64_t windows = 0;  // advance_to calls
  std::uint64_t bound_calls = 0;
  std::int64_t advance_ns = 0;  // inclusive of the channel ticks it runs
  std::int64_t bound_ns = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// The same stream through ShardPool::advance_to / next_required_boundary /
/// note_enqueue, the sharded loop's memory interface.
ShardReplay replay_sharded(ReplayMemory& rm, std::uint32_t shards,
                           const std::vector<Arrival>& stream) {
  mem::MemorySystem& memory = *rm.memory;
  ShardReplay out;
  const double cpu0 = process_cpu_seconds();
  const auto wall0 = Clock::now();
  {
    mem::ShardPool pool(memory, shards);
    const std::size_t n = stream.size();
    std::size_t idx = 0;
    Cycle now = 0;
    Cycle next_required = 0;
    Cycle offer_at = n > 0 ? stream[0].cycle : kNeverCycle;
    for (;;) {
      const Cycle visit = std::min(next_required, offer_at);
      if (visit == kNeverCycle) break;
      now = visit;
      const std::int64_t t0 = now_ns();
      pool.advance_to(now);
      pool.for_each_completed([](const mem::Request&) {});
      out.advance_ns += now_ns() - t0 - g_clock_ns;
      ++out.windows;
      bool accepted = false;
      while (idx < n && stream[idx].cycle <= now) {
        const Arrival& a = stream[idx];
        ChannelId ch = 0;
        const auto id = memory.enqueue(
            a.line, a.write ? mem::ReqType::kWrite : mem::ReqType::kRead,
            a.core, now, &ch);
        if (!id) break;
        pool.note_enqueue(ch, now);
        accepted = true;
        ++idx;
      }
      const std::int64_t t1 = now_ns();
      next_required = pool.next_required_boundary(now);
      out.bound_ns += now_ns() - t1 - g_clock_ns;
      ++out.bound_calls;
      if (accepted) next_required = std::min(next_required, now + 1);
      if (idx < n) {
        offer_at = stream[idx].cycle <= now ? next_required : stream[idx].cycle;
      } else {
        offer_at = kNeverCycle;
        if (memory.idle()) break;
      }
    }
    pool.advance_to(now);
    pool.finalize_run(now);
  }
  out.wall_s = seconds_since(wall0);
  out.cpu_s = process_cpu_seconds() - cpu0;
  return out;
}

// ---------------------------------------------------------------------------
// sampling + snapshot: functional windows and in-memory snapshots on a
// built serial instance of the workload's core and memory.

struct SamplingReplay {
  std::uint64_t windows = 0;
  std::int64_t functional_ns = 0;
  std::uint64_t llc_accesses = 0;  // during the functional windows
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::uint64_t bytes = 0;
  std::string error;
};

SamplingReplay replay_sampling(const Workload& w) {
  constexpr std::uint64_t kWindows = 16;
  constexpr int kSnapshots = 5;

  sim::ExperimentSpec spec = w.capture;
  spec.shard_channels = 0;  // functional windows run on the serial loop
  spec.sampling = {};
  spec.instructions_per_core = (kWindows + 1) * w.stride;
  spec.max_cpu_cycles = spec.instructions_per_core * 256;
  sim::SimInstance inst = sim::build_sim_instance(spec);
  rop::cpu::System& system = *inst.system;
  system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);

  SamplingReplay out;
  const Cycle penalty = sim::SamplingSpec{}.critical_penalty;
  const std::uint64_t acc0 = llc_accesses(system);
  while (out.windows < kWindows) {
    const std::int64_t t0 = now_ns();
    (void)system.functional_window(w.stride, penalty);
    out.functional_ns += now_ns() - t0 - g_clock_ns;
    ++out.windows;
  }
  out.llc_accesses = llc_accesses(system) - acc0;

  const sim::SnapshotContext ctx = inst.snapshot_context();
  const std::uint64_t fp = sim::config_fingerprint(sim::spec_canonical(spec));
  std::string buf;
  for (int i = 0; i < kSnapshots; ++i) {
    const auto t0 = Clock::now();
    buf = sim::save_snapshot_buffer(ctx, fp);
    out.save_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.bytes = buf.size();
  for (int i = 0; i < kSnapshots; ++i) {
    std::string err;
    const auto t0 = Clock::now();
    const bool ok = sim::load_snapshot_buffer(buf, ctx, fp, &err);
    out.load_ms.push_back(seconds_since(t0) * 1e3);
    if (!ok) {
      out.error = "snapshot restore failed: " + err;
      break;
    }
  }
  (void)system.finish_run();
  return out;
}

/// What the in-situ pass hands the replays: the captured stream and the
/// call counts the per-layer estimate scales replay costs by.
struct Capture {
  std::vector<Arrival> stream;
  std::uint64_t ticks = 0;
  std::uint64_t llc_accesses = 0;
  std::uint64_t core_cycles = 0;
  Cycle mem_cycles = 0;
  std::uint64_t latency_cpu = 0;  // stub memory's read latency, CPU cycles
  std::int64_t rop_ns = 0;
};

/// One replay pass over every layer: its metrics (in reference.json order,
/// in-situ ROP counts and the tracing overhead filled in by the caller)
/// and the estimated host time per layer over one timed run.
struct Round {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> layers;
  MemReplay on;
  double off_ns_per_kcycle = 0.0;
  std::uint32_t shards = 0;
};

Round replay_round(const Workload& w, const Capture& cap, std::string* error) {
  const sim::ExperimentSpec& spec = w.capture;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  Round r;

  const std::uint64_t records =
      std::clamp<std::uint64_t>(cap.llc_accesses, 100'000, 4'000'000);
  const GeneratorReplay gen = replay_generators(spec, records);
  const double next_ns = per(static_cast<double>(gen.ns), d(gen.stream.size()));
  const rop::cpu::SystemConfig sys_cfg =
      sim::make_system_config(spec.llc_bytes, spec.rank_partition);
  const CacheReplay cache = replay_cache(sys_cfg.llc, gen.stream);
  const double access_ns =
      per(static_cast<double>(cache.ns), d(cache.stats.accesses));

  const CoreReplay cores = replay_cores(
      spec, std::min<std::uint64_t>(spec.instructions_per_core, 10'000'000),
      cap.latency_cpu);
  // Core self time: the nested generator and LLC calls taken out at their
  // standalone per-call cost (every trace record is one LLC access).
  const double core_self_ns = std::max(
      0.0, static_cast<double>(cores.ns) -
               d(cores.llc_accesses) * (next_ns + access_ns));

  ReplayMemory on_mem(spec, spec.mode, false, true);
  r.on = replay_serial(on_mem, cap.stream);
  const MemReplay& on = r.on;
  ReplayMemory off_mem(spec, sim::MemoryMode::kNoRefresh, false, false);
  const MemReplay off = replay_serial(off_mem, cap.stream);
  const double on_ns_per_kcycle = per(on.self_ns(), d(on.end) / 1e3);
  r.off_ns_per_kcycle = per(off.self_ns(), d(off.end) / 1e3);
  const double refresh_ns_per_kcycle = on_ns_per_kcycle - r.off_ns_per_kcycle;

  ReplayMemory shard_mem(spec, spec.mode, true, false);
  r.shards = spec.shard_channels > 0 ? spec.shard_channels : spec.channels;
  const ShardReplay shard = replay_sharded(shard_mem, r.shards, cap.stream);

  const SamplingReplay samp = replay_sampling(w);
  if (!samp.error.empty()) *error = samp.error;

  const rop::dram::ChannelEvents& ev = on.events;
  const double column_cmds = d(ev.reads + ev.writes);
  const double all_cmds = d(ev.activates + ev.precharges + ev.reads +
                            ev.writes + ev.refreshes + ev.bank_refreshes);
  r.metrics = {
      {"workload.next_ns", next_ns, "ns"},
      {"workload.records", d(gen.stream.size()), "count"},
      {"cache.access_ns", access_ns, "ns"},
      {"cache.accesses", d(cache.stats.accesses), "count"},
      {"cache.hit_rate", cache.stats.hit_rate(), "ratio"},
      {"cpu.core_ns_per_kcycle", per(core_self_ns, d(cores.cycles) / 1e3), "ns"},
      {"cpu.bulk_frac", per(d(cores.bulk_cycles), d(cores.cycles)), "ratio"},
      {"mem.tick_ns", per(on.tick_self_ns(), d(on.ticks)), "ns"},
      {"mem.ticks", d(on.ticks), "count"},
      {"mem.next_event_ns", per(static_cast<double>(on.next_ns), d(on.next_calls)), "ns"},
      {"mem.next_event_calls", d(on.next_calls), "count"},
      {"mem.skip_frac", 1.0 - per(d(on.ticks), d(on.end + 1)), "ratio"},
      {"mem.enqueue_ns", per(on.enqueue_self_ns(), d(on.enqueues)), "ns"},
      {"mem.enqueue_rejects", d(on.rejects), "count"},
      {"refresh.ns_per_kcycle", refresh_ns_per_kcycle, "ns"},
      {"refresh.ops", d(ev.refreshes + ev.bank_refreshes), "count"},
      {"rop.callback_ns", 0.0, "ns"},
      {"rop.callbacks", 0.0, "count"},
      {"rop.buffer_hit_rate", 0.0, "ratio"},
      {"rop.fill_use_frac", 0.0, "ratio"},
      {"dram.row_hit_rate", column_cmds > 0 ? 1.0 - d(ev.activates) / column_cmds : 0.0, "ratio"},
      {"dram.cmds_per_kcycle", per(all_cmds, d(on.end) / 1e3), "count"},
      {"shard.advance_ns", per(static_cast<double>(shard.advance_ns), d(shard.windows)), "ns"},
      {"shard.bound_ns", per(static_cast<double>(shard.bound_ns), d(shard.bound_calls)), "ns"},
      {"shard.windows", d(shard.windows), "count"},
      {"shard.cpu_per_wall", per(shard.cpu_s, shard.wall_s), "ratio"},
      {"sampling.functional_ns_per_kinstr",
       per(static_cast<double>(samp.functional_ns),
           d(samp.windows * w.stride * spec.benchmarks.size()) / 1e3),
       "ns"},
      {"sampling.windows", d(samp.windows), "count"},
      {"snapshot.save_ms", median(samp.save_ms), "ms"},
      {"snapshot.load_ms", median(samp.load_ms), "ms"},
      {"snapshot.bytes", d(samp.bytes), "bytes"},
      {"trace.overhead_frac", 0.0, "ratio"},
  };

  // Estimated host time per layer over one timed run: replay per-call
  // costs times the in-situ call counts, nested time attributed to the
  // innermost layer measured.
  if (w.spec.sampling.enabled) {
    // The planner thread over the full horizon: one functional window and
    // one snapshot save per stride (detailed windows run on the workers).
    const double strides = d(w.spec.instructions_per_core) / d(w.stride);
    const double acc = per(d(samp.llc_accesses), d(samp.windows)) * strides;
    const double functional =
        per(static_cast<double>(samp.functional_ns), d(samp.windows)) * strides;
    r.layers = {
        {"workload", acc * next_ns},
        {"cache", acc * access_ns},
        {"sampling", std::max(0.0, functional - acc * (next_ns + access_ns))},
        {"snapshot", median(samp.save_ms) * 1e6 * strides}};
  } else {
    const double ticks_scale = per(d(cap.ticks), d(on.ticks));
    const double refresh =
        std::max(0.0, refresh_ns_per_kcycle) * d(cap.mem_cycles) / 1e3;
    r.layers = {
        {"workload", d(cap.llc_accesses) * next_ns},
        {"cache", d(cap.llc_accesses) * access_ns},
        {"cpu", per(core_self_ns, d(cores.cycles)) * d(cap.core_cycles)},
        {"mem", std::max(0.0, on.self_ns() * ticks_scale - refresh)},
        {"refresh", refresh},
        {"rop", static_cast<double>(cap.rop_ns)}};
    if (w.spec.shard_channels > 0) {
      // Pool overhead: the sharded replay's time beyond the serial one.
      const double serial = static_cast<double>(on.tick_ns + on.next_ns);
      const double pool = static_cast<double>(shard.advance_ns + shard.bound_ns);
      r.layers.push_back({"shard", std::max(0.0, (pool - serial) * ticks_scale)});
    }
  }
  return r;
}

}  // namespace

Report run_traced(const Workload& w, double seconds) {
  constexpr std::size_t kMaxRounds = 9;
  g_clock_ns = measure_clock_ns();
  Report rep;
  const sim::ExperimentSpec& spec = w.capture;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  // Rounds until `seconds` are used: an untraced run_experiment, the
  // in-situ pass (checked against it), then one replay pass. The first
  // round's capture feeds every replay; medians are reported.
  InSitu first;
  Capture cap;
  sim::ExperimentResult ref;
  std::vector<double> overhead;
  std::vector<Round> rounds;
  const auto start = Clock::now();
  double last_round_s = 0.0;
  while (rounds.empty() ||
         (rounds.size() < kMaxRounds &&
          seconds_since(start) + last_round_s <= seconds)) {
    const auto t_round = Clock::now();
    ref = sim::run_experiment(spec);
    const double untraced_s = seconds_since(t_round);
    ++rep.attempted;
    if (const std::string bad = check_result(ref, spec); !bad.empty()) {
      rep.fail("untraced capture run: " + bad);
    }
    InSitu later;
    InSitu& situ = rounds.empty() ? first : later;
    situ.execute(spec);
    overhead.push_back(situ.seconds / untraced_s - 1.0);
    ++rep.attempted;
    if (const std::string diff =
            compare_stats(ref.run, ref.stats, situ.run, *situ.inst.registry);
        !diff.empty()) {
      rep.fail("traced stats differ from untraced: " + diff);
    }
    if (rounds.empty()) {
      cap.stream = situ.stream();
      for (const auto& a : situ.auditors) cap.ticks += a->ticks;
      cap.llc_accesses = llc_accesses(*situ.inst.system);
      for (const auto& c : situ.run.cores) cap.core_cycles += c.cpu_cycles;
      cap.mem_cycles = situ.run.mem_cycles;
      const rop::Scalar* lat = situ.inst.registry->find_scalar("mem.read_latency");
      const double mean_latency = lat != nullptr && lat->count() > 0 ? lat->mean() : 32.0;
      cap.latency_cpu = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(mean_latency * situ.inst.cpu_ratio + 0.5));
      for (const auto& l : situ.listeners) cap.rop_ns += l->enqueue_ns + l->tick_ns;
    }
    std::string error;
    rounds.push_back(replay_round(w, cap, &error));
    ++rep.attempted;
    if (!error.empty()) rep.fail(error);
    last_round_s = seconds_since(t_round);
  }

  // Median of every replay metric and layer estimate over the rounds.
  rep.metrics = rounds.front().metrics;
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    std::vector<double> xs;
    for (const Round& r : rounds) xs.push_back(r.metrics[i].value);
    rep.metrics[i].value = median(xs);
  }
  std::vector<std::pair<std::string, double>> layers = rounds.front().layers;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::vector<double> xs;
    for (const Round& r : rounds) xs.push_back(r.layers[i].second);
    layers[i].second = median(xs);
  }

  // In-situ ROP metrics (the engines' own accounting, from the first round).
  std::uint64_t rop_calls = 0;
  for (const auto& l : first.listeners) rop_calls += l->enqueue_calls + l->tick_calls;
  std::uint64_t fills = 0;
  std::uint64_t consumed = 0;
  for (const auto& u : first.uses) {
    fills += u->fills;
    consumed += u->consumed;
  }
  double hit_rate = 0.0;
  for (const auto& e : first.inst.engines) hit_rate += e->overall_hit_rate();
  if (!first.inst.engines.empty()) {
    hit_rate /= static_cast<double>(first.inst.engines.size());
  }
  for (Metric& m : rep.metrics) {
    if (m.name == "rop.callback_ns") m.value = per(static_cast<double>(cap.rop_ns), d(rop_calls));
    if (m.name == "rop.callbacks") m.value = d(rop_calls);
    if (m.name == "rop.buffer_hit_rate") m.value = hit_rate;
    if (m.name == "rop.fill_use_frac") m.value = per(d(consumed), d(fills));
    if (m.name == "trace.overhead_frac") m.value = median(overhead);
  }

  JsonObject share;
  double total = 0.0;
  for (const auto& [name, ns] : layers) total += ns;
  for (const auto& [name, ns] : layers) share.num(name, per(ns, total));
  std::vector<std::pair<std::string, double>> ranked = layers;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  std::uint64_t captured_writes = 0;
  for (const Arrival& a : cap.stream) captured_writes += a.write ? 1 : 0;
  const rop::StatRegistry& stats = *first.inst.registry;
  const std::uint64_t queued_writes = stats.counter_value("mem.writes") -
                                      stats.counter_value("mem.write_coalesced");
  const Round& r0 = rounds.front();
  JsonObject capture;
  capture.integer("instructions_per_core", spec.instructions_per_core)
      .integer("executed_ticks", cap.ticks)
      .integer("mem_cycles", cap.mem_cycles)
      .integer("reads", cap.stream.size() - captured_writes)
      .integer("writes", captured_writes)
      .num("write_coverage", per(d(captured_writes), d(queued_writes)))
      .str("sim_digest", hex64(sim_digest(ref)))
      .num("ipc_core0", ref.ipc(0))
      .num("energy_mj", ref.total_energy_mj())
      .integer("refresh_blocked_cycles",
               ref.stats.counter_value("mem.refresh_blocked_cycles"));
  JsonObject replay;
  replay.integer("rounds", rounds.size())
      .integer("serial_end_cycle", r0.on.end)
      .integer("serial_completions", r0.on.completions)
      .num("no_refresh_ns_per_kcycle", r0.off_ns_per_kcycle)
      .num("clock_read_ns", static_cast<double>(g_clock_ns))
      .integer("stub_read_latency_cpu_cycles", cap.latency_cpu)
      .integer("shards", r0.shards);
  rep.detail.obj("capture", capture)
      .obj("replay", replay)
      .obj("layer_share_estimate", share)
      .strs("top_two", {ranked.at(0).first, ranked.at(1).first});
  return rep;
}

}  // namespace perfbench
