// Unit tests for the full Tetris Write scheme: read stage (Alg. 1),
// service-time composition (Eq. 5 + overheads), and behaviour on the
// paper's motivating data patterns.

#include <gtest/gtest.h>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/fsm.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/core/tetris_scheme.hpp"
#include "tw/stats/accumulator.hpp"

namespace tw::core {
namespace {

pcm::PcmConfig cfg() { return pcm::table2_config(); }

pcm::LogicalLine data_like(const pcm::LineBuf& line) {
  return pcm::LogicalLine::from_physical(line);
}

// ------------------------------------------------------------ read stage --
TEST(ReadStage, CountsTransitionsNotPopulation) {
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  line.set_cell(0, 0b1111);  // old data has 4 ones
  pcm::LogicalLine next(8);
  next.set_word(0, 0b1110);  // clears one bit only
  const ReadStageResult r = read_stage(line, next, 64);
  // Alg. 1's intent: count *changed* bits (see header note), so one RESET.
  EXPECT_EQ(r.counts[0].n0, 1u);
  EXPECT_EQ(r.counts[0].n1, 0u);
}

TEST(ReadStage, FlipBoundsCounts) {
  pcm::LineImage line_image(8);          // all-zero cells
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(2, ~u64{0});     // would SET all 64 bits -> flips
  const ReadStageResult r = read_stage(line, next, 64);
  EXPECT_EQ(r.flipped_units, 1u);
  // Only the tag cell changes.
  EXPECT_EQ(r.counts[2].n1, 1u);
  EXPECT_EQ(r.counts[2].n0, 0u);
}

TEST(ReadStage, TotalsSumUnits) {
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(0, 0b111);
  next.set_word(1, 0b1);
  const ReadStageResult r = read_stage(line, next, 64);
  const BitTransitions t = r.total();
  EXPECT_EQ(t.sets, 4u);
  EXPECT_EQ(t.resets, 0u);
}

// ----------------------------------------------------------- service time --
TEST(TetrisScheme, LatencyComposition) {
  TetrisOptions opts;
  const TetrisScheme scheme(cfg(), opts);
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(0, 0b1011);  // 3 SETs in one unit -> result=1, subresult=0
  pcm::LineImage work_image(line);
  pcm::LineBuf work = work_image.view();
  const schemes::ServicePlan p = scheme.plan_write(work, next);
  EXPECT_EQ(p.latency, ns(50) + opts.analysis_latency() + ns(430));
  EXPECT_DOUBLE_EQ(p.write_units, 1.0);
  EXPECT_EQ(p.analysis_ticks, 102'500u);  // 41 cycles at 400 MHz
}

TEST(TetrisScheme, AnalysisOverheadConfigurable) {
  TetrisOptions opts;
  opts.analysis_cycles = 0;
  const TetrisScheme scheme(cfg(), opts);
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(0, 1);
  const schemes::ServicePlan p = scheme.plan_write(line, next);
  EXPECT_EQ(p.latency, ns(50) + ns(430));
}

TEST(TetrisScheme, SilentWriteCostsReadAndAnalysisOnly) {
  const TetrisScheme scheme(cfg());
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  const pcm::LogicalLine next = data_like(line);
  pcm::LineImage work_image(line);
  pcm::LineBuf work = work_image.view();
  const schemes::ServicePlan p = scheme.plan_write(work, next);
  EXPECT_TRUE(p.silent);
  EXPECT_DOUBLE_EQ(p.write_units, 0.0);
  EXPECT_EQ(p.latency, ns(50) + scheme.options().analysis_latency());
}

TEST(TetrisScheme, PaperRangeOnWorkloadLikeData) {
  // With Fig. 3-like sparse transitions, Tetris needs 1.0-1.5 write units.
  const TetrisScheme scheme(cfg());
  Rng rng(42);
  tw::stats::Accumulator units;
  for (int trial = 0; trial < 300; ++trial) {
    pcm::LineImage line_image(8);
    pcm::LineBuf line = line_image.view();
    for (u32 i = 0; i < 8; ++i) line.set_cell(i, rng.next());
    pcm::LogicalLine next = data_like(line);
    for (u32 i = 0; i < 8; ++i) {
      u64 w = next.word(i);
      const u32 flips = static_cast<u32>(rng.poisson(9.6));
      for (u32 b = 0; b < flips; ++b) {
        const u32 pos = static_cast<u32>(rng.below(64));
        w = with_bit(w, pos, rng.chance(0.7));  // SET-leaning
      }
      next.set_word(i, w);
    }
    pcm::LineImage work_image(line);
    pcm::LineBuf work = work_image.view();
    units.add(scheme.plan_write(work, next).write_units);
  }
  EXPECT_GE(units.mean(), 0.9);
  EXPECT_LE(units.mean(), 1.6);  // paper: 1.06-1.46 average
}

TEST(TetrisScheme, StateUpdateMatchesLogicalData) {
  const TetrisScheme scheme(cfg());
  Rng rng(17);
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  for (u32 i = 0; i < 8; ++i) line.set_cell(i, rng.next());
  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, rng.next());
  scheme.plan_write(line, next);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(line.logical(i), next.word(i));
}

TEST(TetrisScheme, SelfCheckModeVerifiesSchedules) {
  TetrisOptions opts;
  opts.self_check = true;  // runs verify_pack + FSM on every write
  const TetrisScheme scheme(cfg(), opts);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    pcm::LineImage line_image(8);
    pcm::LineBuf line = line_image.view();
    for (u32 i = 0; i < 8; ++i) line.set_cell(i, rng.next());
    pcm::LogicalLine next(8);
    for (u32 i = 0; i < 8; ++i) {
      next.set_word(i, line.logical(i) ^ (rng.next() & rng.next() &
                                          rng.next()));  // sparse flips
    }
    EXPECT_NO_THROW(scheme.plan_write(line, next));
  }
}

TEST(TetrisScheme, AnalyzeExposesPackDetails) {
  const TetrisScheme scheme(cfg());
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(0, 0b111);
  next.set_word(1, 0b11);
  const TetrisAnalysis a = scheme.analyze(line, next);
  EXPECT_EQ(a.pack.result, 1u);
  EXPECT_EQ(a.packer_cfg.budget, 128u);
  EXPECT_EQ(a.read.counts.size(), 8u);
}

TEST(TetrisScheme, NonGcpChargesWorstChip) {
  // Without the global charge pump, a unit whose transitions concentrate
  // in one chip is charged chips x worst-chip demand.
  pcm::PcmConfig c = cfg();
  c.power.global_charge_pump = false;
  const TetrisScheme scheme(c);
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  // 8 SETs all inside chip 0's 16-bit slice of unit 0.
  next.set_word(0, 0x00FF);
  const TetrisAnalysis a = scheme.analyze(line, next);
  ASSERT_EQ(a.pack.write1_queue.size(), 1u);
  EXPECT_EQ(a.pack.write1_queue[0].current, 32u);  // 8 x 4 chips
}

TEST(TetrisScheme, GcpUsesTrueDemand) {
  const TetrisScheme scheme(cfg());
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(0, 0x00FF);
  const TetrisAnalysis a = scheme.analyze(line, next);
  ASSERT_EQ(a.pack.write1_queue.size(), 1u);
  EXPECT_EQ(a.pack.write1_queue[0].current, 8u);
}

TEST(TetrisScheme, AlwaysAtLeastAsGoodAsThreeStageActual) {
  // 3stage-actual is Tetris without interspace stealing; Tetris's write
  // phase can never be slower on the same data.
  Rng rng(23);
  const pcm::PcmConfig c = cfg();
  TetrisOptions opts;
  opts.analysis_cycles = 0;  // compare pure write phases
  for (int trial = 0; trial < 200; ++trial) {
    pcm::LineImage base_image(8);
    pcm::LineBuf base = base_image.view();
    for (u32 i = 0; i < 8; ++i) base.set_cell(i, rng.next());
    pcm::LogicalLine next = data_like(base);
    for (u32 i = 0; i < 8; ++i) {
      u64 w = next.word(i);
      const u32 flips = static_cast<u32>(rng.below(25));
      for (u32 b = 0; b < flips; ++b)
        w = with_bit(w, static_cast<u32>(rng.below(64)), rng.chance(0.5));
      next.set_word(i, w);
    }
    pcm::LineImage l1_image(base), l2_image(base);
    pcm::LineBuf l1 = l1_image.view(), l2 = l2_image.view();
    const auto tetris = core::make_scheme(schemes::SchemeKind::kTetris, c,
                                          opts);
    const auto three =
        core::make_scheme(schemes::SchemeKind::kThreeStageActual, c);
    const auto pt = tetris->plan_write(l1, next);
    const auto p3 = three->plan_write(l2, next);
    // Tetris's trailing sub-slot is Tset/K = 53.75 ns vs the stage-0 slot
    // of exactly Treset = 53 ns, so allow that 1.5% quantization edge.
    EXPECT_LE(pt.write_units, p3.write_units * 1.015 + 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tw::core
