// Trace file I/O tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/experiment.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic.h"
#include "workload/trace_io.h"

namespace rop::workload {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rop_trace_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(TraceIoTest, WriteReadRoundTrip) {
  std::vector<TraceRecord> recs{{10, false, 0x40},
                                {0, true, 0x1fc0},
                                {4096, false, 0xdeadbee0 & ~63ull}};
  write_trace_file(path("t.trace"), recs);
  const auto back = read_trace_file(path("t.trace"));
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].gap, recs[i].gap);
    EXPECT_EQ(back[i].is_write, recs[i].is_write);
    EXPECT_EQ(back[i].addr, recs[i].addr);
  }
}

TEST_F(TraceIoTest, CommentsAndBlankLinesSkipped) {
  std::ofstream out(path("c.trace"));
  out << "# header comment\n\n42 R 0x1000\n# trailing\n7 W 0x2000\n";
  out.close();
  const auto recs = read_trace_file(path("c.trace"));
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].gap, 42u);
  EXPECT_FALSE(recs[0].is_write);
  EXPECT_TRUE(recs[1].is_write);
}

TEST_F(TraceIoTest, MalformedRecordThrowsWithLineNumber) {
  std::ofstream out(path("bad.trace"));
  out << "42 R 0x1000\nnot a record\n";
  out.close();
  try {
    (void)read_trace_file(path("bad.trace"));
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos);
  }
}

TEST_F(TraceIoTest, BadOpcodeRejected) {
  std::ofstream out(path("op.trace"));
  out << "1 X 0x40\n";
  out.close();
  EXPECT_THROW(read_trace_file(path("op.trace")), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_trace_file(path("nonexistent.trace")),
               std::runtime_error);
}

TEST_F(TraceIoTest, EmptyTraceRejected) {
  std::ofstream out(path("empty.trace"));
  out << "# only a comment\n";
  out.close();
  EXPECT_THROW(read_trace_file(path("empty.trace")), std::runtime_error);
}

TEST(MemoryTrace, LoopsForever) {
  MemoryTrace t({{1, false, 0x40}, {2, true, 0x80}});
  EXPECT_EQ(t.next().gap, 1u);
  EXPECT_EQ(t.next().gap, 2u);
  EXPECT_EQ(t.next().gap, 1u);  // wrapped
  t.reset();
  EXPECT_EQ(t.next().gap, 1u);
}

TEST_F(TraceIoTest, CaptureSnapshotsGenerator) {
  SyntheticConfig cfg;
  cfg.seed = 77;
  SyntheticTrace gen(cfg);
  const auto recs = capture(gen, 500);
  EXPECT_EQ(recs.size(), 500u);

  // A captured trace replayed via MemoryTrace matches the generator replay.
  gen.reset();
  MemoryTrace replay(recs);
  for (int i = 0; i < 500; ++i) {
    const TraceRecord a = gen.next();
    const TraceRecord b = replay.next();
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.gap, b.gap);
  }
}

TEST_F(TraceIoTest, GeneratorCaptureSurvivesFileRoundTrip) {
  SyntheticTrace gen(SyntheticConfig{});
  const auto recs = capture(gen, 200);
  write_trace_file(path("gen.trace"), recs);
  const auto back = read_trace_file(path("gen.trace"));
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].addr, recs[i].addr);
  }
}

// ExperimentSpec::trace_file: replaying a captured prefix of a profile's
// generator reproduces the generator run's whole stats document, as long as
// the run retires inside the captured prefix.
TEST_F(TraceIoTest, TraceFileSpecReproducesGeneratorRun) {
  SyntheticTrace gen(spec_profile("libquantum"));
  const auto recs = capture(gen, 20'000);
  write_trace_file(path("lq.trace"), recs);
  std::uint64_t prefix_instructions = 0;
  for (const TraceRecord& r : recs) prefix_instructions += r.gap + 1;

  sim::ExperimentSpec spec =
      sim::single_core_spec("libquantum", sim::MemoryMode::kRop);
  spec.instructions_per_core = prefix_instructions * 9 / 10;
  sim::ExperimentResult from_generator = sim::run_experiment(spec);
  spec.trace_file = path("lq.trace");
  sim::ExperimentResult from_file = sim::run_experiment(spec);

  EXPECT_GE(from_file.run.cores[0].instructions, spec.instructions_per_core);
  EXPECT_GT(from_file.run.cores[0].mem_reads, 0u);
  from_generator.wall_seconds = from_file.wall_seconds = 0.0;
  EXPECT_EQ(from_generator.to_json(), from_file.to_json());
}

}  // namespace
}  // namespace rop::workload
