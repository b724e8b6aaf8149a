// A microscopic look at refresh behaviour (paper §III): run a benchmark on
// the baseline memory and report how refreshes and requests interact —
// non-blocking fractions, blocked-request counts, and the four B/A refresh
// categories with the resulting lambda/beta.
//
//   ./example_refresh_microscope [benchmark] [instructions]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/table.h"
#include "mem/memory_system.h"
#include "rop/pattern_profiler.h"
#include "sim/sim_instance.h"

namespace {

/// Observer feeding one WindowCorrelator at the 1x tREFI window.
class Microscope final : public rop::mem::ControllerListener {
 public:
  Microscope(rop::Cycle trefi, std::uint32_t ranks)
      : correlator_(trefi, ranks) {}

  std::optional<rop::Cycle> on_enqueue(const rop::mem::Request& req,
                                       rop::Cycle now) override {
    correlator_.on_request(req.coord.rank, now,
                           req.type == rop::mem::ReqType::kRead);
    return std::nullopt;
  }
  void on_demand_serviced(const rop::mem::Request&, rop::Cycle) override {}
  void on_rank_locked(rop::RankId, rop::Cycle) override {}
  void on_refresh_issued(rop::RankId rank, rop::Cycle start,
                         rop::Cycle) override {
    correlator_.on_refresh(rank, start);
  }
  void on_prefetch_filled(const rop::mem::Request&, rop::Cycle) override {}
  void on_tick(rop::Cycle now) override {
    if ((now & 0xFF) == 0) correlator_.advance(now);
  }

  rop::engine::WindowCorrelator correlator_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rop;
  const std::string benchmark = argc > 1 ? argv[1] : "bzip2";
  const std::uint64_t instructions =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 15'000'000ull;

  const sim::ExperimentSpec spec =
      sim::single_core_spec(benchmark, sim::MemoryMode::kBaseline);
  std::unique_ptr<Microscope> scope;
  sim::SimInstanceHooks hooks;
  hooks.post_memory = [&](mem::MemorySystem& memory) {
    scope = std::make_unique<Microscope>(memory.config().timings.tREFI,
                                         memory.config().org.ranks);
    memory.controller(0).set_listener(scope.get());
  };
  const sim::SimInstance inst = sim::build_sim_instance(spec, nullptr, hooks);
  const auto rr = inst.system->run(instructions, instructions * 64);
  scope->correlator_.finalize();

  std::printf("refresh microscope: %s, %llu instructions, IPC %.3f\n\n",
              benchmark.c_str(),
              static_cast<unsigned long long>(instructions),
              rr.cores[0].ipc);

  const auto& blocking = inst.memory->controller(0).blocking_stats();
  TextTable t1("refresh/request interaction (paper Figs. 2-3)");
  t1.set_header({"examined window", "non-blocking", "mean blocked",
                 "max blocked"});
  const char* labels[] = {"1x tRFC", "2x tRFC", "4x tRFC"};
  for (std::size_t k = 0; k < 3; ++k) {
    t1.add_row({labels[k], TextTable::pct(blocking.non_blocking_fraction(k)),
                TextTable::fmt(blocking.mean_blocked_per_blocking_refresh(k),
                               2),
                std::to_string(blocking.max_blocked(k))});
  }
  t1.print();

  const auto& c = scope->correlator_.counts();
  TextTable t2("refresh categories in the 1x tREFI window (paper §IV-B)");
  t2.set_header({"category", "count", "fraction"});
  const char* cats[] = {"B>0 && A>0 (E1)", "B>0 && A=0", "B=0 && A>0",
                        "B=0 && A=0 (E2)"};
  for (std::size_t k = 0; k < 4; ++k) {
    t2.add_row({cats[k], std::to_string(c.counts[k]),
                TextTable::pct(c.total() ? static_cast<double>(c.counts[k]) /
                                               static_cast<double>(c.total())
                                         : 0.0)});
  }
  t2.print();

  std::printf("\nlambda = P{A>0 | B>0} = %.2f    beta = P{A=0 | B=0} = %.2f\n",
              c.lambda(), c.beta());
  std::printf("prediction coverage E1+E2 = %.1f%% of %llu refreshes\n",
              100.0 * (c.e1_fraction() + c.e2_fraction()),
              static_cast<unsigned long long>(c.total()));
  return 0;
}
