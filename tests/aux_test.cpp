// Tests for the auxiliary substrate: trace replay, repeated-seed
// statistics and the SVG chart emitter.

#include <gtest/gtest.h>

#include <sstream>

#include "tw/common/svg.hpp"
#include "tw/core/factory.hpp"
#include "tw/harness/repeated.hpp"
#include "tw/workload/replay.hpp"

namespace tw {
namespace {

// ---------------------------------------------------------------- replay --
TEST(Replay, ReproducesRecordedStream) {
  const auto& p = workload::profile_by_name("dedup");
  const pcm::GeometryParams g;
  workload::TraceGenerator gen(p, g, 2, 7);
  const auto records = workload::capture(gen, 2, 50);

  workload::TraceReplaySource replay(records, 2, p, g, 9);
  for (u32 c = 0; c < 2; ++c) {
    for (u32 i = 0; i < 50; ++i) {
      const workload::TraceOp op = replay.next(c);
      const auto& r = records[c * 50 + i];
      EXPECT_EQ(op.addr, r.addr);
      EXPECT_EQ(op.gap, r.gap);
      EXPECT_EQ(op.is_write, r.is_write);
    }
  }
}

TEST(Replay, WrapsAround) {
  const auto& p = workload::profile_by_name("vips");
  const pcm::GeometryParams g;
  workload::TraceGenerator gen(p, g, 1, 7);
  const auto records = workload::capture(gen, 1, 10);
  workload::TraceReplaySource replay(records, 1, p, g, 9);
  for (int i = 0; i < 25; ++i) replay.next(0);
  EXPECT_EQ(replay.wraps(0), 2u);
  // Wrapped stream repeats the recorded addresses.
  EXPECT_EQ(replay.next(0).addr, records[5].addr);
}

TEST(Replay, RejectsCoreWithoutRecords) {
  const auto& p = workload::profile_by_name("vips");
  const pcm::GeometryParams g;
  std::vector<workload::TraceRecord> records(1);
  records[0].core = 0;
  EXPECT_THROW(workload::TraceReplaySource(records, 2, p, g, 1),
               ContractViolation);
}

TEST(Replay, DrivesFullSystemDeterministically) {
  const auto& p = workload::profile_by_name("ferret");
  const pcm::PcmConfig cfg = pcm::table2_config();
  workload::TraceGenerator gen(p, cfg.geometry, 2, 5);
  const auto records = workload::capture(gen, 2, 400);

  auto run_once = [&]() {
    sim::Simulator sim;
    stats::Registry reg;
    const auto scheme =
        core::make_scheme(schemes::SchemeKind::kTetris, cfg);
    mem::Controller ctl(sim, cfg, mem::ControllerConfig{}, *scheme, reg);
    workload::TraceReplaySource src(records, 2, p, cfg.geometry, 11);
    cpu::MultiCore cpus(sim, cpu::CoreConfig{}, 2, ctl, src, 30'000);
    cpus.start();
    sim.run(ms(5'000));
    return cpus.runtime();
  };
  const Tick a = run_once();
  const Tick b = run_once();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, b);
}

// -------------------------------------------------------------- repeated --
TEST(Repeated, SummariesAreConsistent) {
  harness::SystemConfig cfg;
  cfg.instructions_per_core = 8'000;
  const auto& p = workload::profile_by_name("canneal");
  const harness::RepeatedMetrics r = harness::run_repeated(
      cfg, p, schemes::SchemeKind::kTetris, 4);
  ASSERT_EQ(r.runs.size(), 4u);
  EXPECT_TRUE(r.all_completed());
  EXPECT_GE(r.read_latency_ns.max, r.read_latency_ns.mean);
  EXPECT_LE(r.read_latency_ns.min, r.read_latency_ns.mean);
  EXPECT_GE(r.read_latency_ns.stddev, 0.0);
  EXPECT_GE(r.ipc.ci95, 0.0);
  // Seeds genuinely differ.
  EXPECT_NE(r.runs[0].runtime_ns, r.runs[1].runtime_ns);
}

TEST(Repeated, MatchesSingleRunsPerSeed) {
  harness::SystemConfig cfg;
  cfg.instructions_per_core = 6'000;
  cfg.seed = 100;
  const auto& p = workload::profile_by_name("dedup");
  const harness::RepeatedMetrics r =
      harness::run_repeated(cfg, p, schemes::SchemeKind::kDcw, 3);
  for (u32 i = 0; i < 3; ++i) {
    harness::SystemConfig single = cfg;
    single.seed = 100 + i;
    const harness::RunMetrics m =
        harness::run_system(single, p, schemes::SchemeKind::kDcw);
    EXPECT_DOUBLE_EQ(r.runs[i].ipc, m.ipc);
  }
}

// ------------------------------------------------------------------- svg --
TEST(Svg, RendersWellFormedChart) {
  BarChart chart("Figure X", "normalized");
  chart.set_series({"dcw", "tetris"});
  chart.add_group("vips", {1.0, 0.35});
  chart.add_group("ferret", {1.0, 0.4});
  chart.set_reference(1.0);
  const std::string svg = chart.to_string();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("Figure X"), std::string::npos);
  EXPECT_NE(svg.find("vips"), std::string::npos);
  EXPECT_NE(svg.find("tetris"), std::string::npos);
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);  // ref line
  // 2 groups x 2 series bars + legend swatches.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_GE(rects, 1u + 4u + 2u);  // background + bars + legend
}

TEST(Svg, EscapesMarkup) {
  BarChart chart("a < b & c", "y");
  chart.set_series({"s"});
  chart.add_group("<g>", {1.0});
  const std::string svg = chart.to_string();
  EXPECT_EQ(svg.find("<g>"), std::string::npos);
  EXPECT_NE(svg.find("&lt;g&gt;"), std::string::npos);
  EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
}

TEST(Svg, MismatchedSeriesRejected) {
  BarChart chart("t", "y");
  chart.set_series({"a", "b"});
  EXPECT_THROW(chart.add_group("g", {1.0}), ContractViolation);
}

}  // namespace
}  // namespace tw
