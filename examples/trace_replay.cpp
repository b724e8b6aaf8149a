// Trace capture and replay: snapshot a synthetic benchmark into the text
// trace format, replay it through the simulator, and verify the replay
// reproduces the generator run exactly. This is the workflow for swapping
// in real application traces (e.g. converted SPEC or gem5/zsim dumps).
//
//   ./example_trace_replay [benchmark] [records] [path]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic.h"
#include "workload/trace_io.h"

namespace {

/// One baseline run of `benchmark` — from its generator, or replayed from
/// `trace_file` when non-empty — returning the stats document with the
/// wall-clock field zeroed, so two runs compare byte for byte.
std::string run_json(const std::string& benchmark,
                     const std::string& trace_file,
                     std::uint64_t instructions) {
  using namespace rop;
  sim::ExperimentSpec spec =
      sim::single_core_spec(benchmark, sim::MemoryMode::kBaseline);
  spec.instructions_per_core = instructions;
  spec.max_cpu_cycles = instructions * 64;
  spec.trace_file = trace_file;
  sim::ExperimentResult r = sim::run_experiment(spec);
  std::printf("IPC from %-10s %.6f\n",
              trace_file.empty() ? "generator:" : "replay:", r.ipc());
  r.wall_seconds = 0.0;
  return r.to_json();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rop;
  const std::string benchmark = argc > 1 ? argv[1] : "gcc";
  const std::size_t records =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200'000;
  const std::string path =
      argc > 3 ? argv[3] : "/tmp/rop_" + benchmark + ".trace";

  // 1. Capture the generator into a file.
  workload::SyntheticTrace generator(workload::spec_profile(benchmark));
  const auto captured = workload::capture(generator, records);
  workload::write_trace_file(path, captured);
  std::printf("captured %zu records of '%s' into %s\n", captured.size(),
              benchmark.c_str(), path.c_str());

  // 2. Replay from the file and from the generator; the runs must agree
  //    as long as execution stays within the captured prefix.
  std::uint64_t instructions = 0;
  for (const auto& rec : captured) instructions += rec.gap + 1;
  instructions = instructions * 9 / 10;  // stay inside the captured prefix

  const std::string from_generator = run_json(benchmark, "", instructions);
  const std::string from_replay = run_json(benchmark, path, instructions);
  if (from_generator == from_replay) {
    std::printf("replay is bit-identical to the generator run\n");
  } else {
    std::printf("replay diverged (ran past the captured prefix?)\n");
    return 1;
  }
  std::remove(path.c_str());
  return 0;
}
