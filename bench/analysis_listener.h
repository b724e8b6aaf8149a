// Passive controller listener that feeds WindowCorrelators at 1x/2x/4x
// tREFI — the machinery behind Fig. 4 and Table I. It observes the
// baseline memory without altering its behaviour.
#pragma once

#include <array>
#include <memory>

#include "mem/memory_system.h"
#include "rop/pattern_profiler.h"
#include "sim/sim_instance.h"

namespace rop::bench {

class CorrelationObserver final : public mem::ControllerListener {
 public:
  CorrelationObserver(Cycle trefi, std::uint32_t num_ranks)
      : correlators_{engine::WindowCorrelator(1 * trefi, num_ranks),
                     engine::WindowCorrelator(2 * trefi, num_ranks),
                     engine::WindowCorrelator(4 * trefi, num_ranks)} {}

  std::optional<Cycle> on_enqueue(const mem::Request& req,
                                  Cycle now) override {
    for (auto& wc : correlators_) {
      wc.on_request(req.coord.rank, now, req.type == mem::ReqType::kRead);
    }
    return std::nullopt;
  }
  void on_demand_serviced(const mem::Request&, Cycle) override {}
  void on_rank_locked(RankId, Cycle) override {}
  void on_refresh_issued(RankId rank, Cycle start, Cycle) override {
    for (auto& wc : correlators_) wc.on_refresh(rank, start);
  }
  void on_prefetch_filled(const mem::Request&, Cycle) override {}
  void on_tick(Cycle now) override {
    // Close expired windows lazily but regularly.
    if ((now & 0x3FF) == 0) {
      for (auto& wc : correlators_) wc.advance(now);
    }
  }

  void finalize() {
    for (auto& wc : correlators_) wc.finalize();
  }

  /// Counts for window multiple index 0 -> 1x, 1 -> 2x, 2 -> 4x.
  [[nodiscard]] const engine::CategoryCounts& counts(std::size_t k) const {
    return correlators_.at(k).counts();
  }

 private:
  std::array<engine::WindowCorrelator, 3> correlators_;
};

/// Run `benchmark` on the baseline memory with a CorrelationObserver
/// attached; returns the observer with finalized counts.
inline std::unique_ptr<CorrelationObserver> observe_benchmark(
    const std::string& benchmark, std::uint64_t instructions) {
  const sim::ExperimentSpec spec =
      sim::single_core_spec(benchmark, sim::MemoryMode::kBaseline);
  std::unique_ptr<CorrelationObserver> observer;
  sim::SimInstanceHooks hooks;
  hooks.post_memory = [&](mem::MemorySystem& memory) {
    observer = std::make_unique<CorrelationObserver>(
        memory.config().timings.tREFI, memory.config().org.ranks);
    memory.controller(0).set_listener(observer.get());
  };
  sim::SimInstance inst = sim::build_sim_instance(spec, nullptr, hooks);
  inst.system->run(instructions, instructions * 64);
  observer->finalize();
  return observer;
}

}  // namespace rop::bench
