// Bit-accurate end-to-end tests: the HwExecutor drives full Tetris writes
// (read -> analysis -> FSM -> gated driver) onto a real cell array and
// must agree with the bookkeeping model on content, pulses and timing.

#include <gtest/gtest.h>

#include "tw/common/rng.hpp"
#include "tw/core/hw_executor.hpp"

namespace tw::core {
namespace {

constexpr u64 kLineCells = 8 * 65;  // 8 units x (64 data + 1 tag)

pcm::PcmConfig cfg() { return pcm::table2_config(); }

TEST(HwExecutor, WritesLandExactly) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray array(kLineCells);
  Rng rng(1);

  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, rng.next());
  const HwWriteResult r = hw.write_line(array, 0, next);
  EXPECT_GT(r.pulses.total(), 0u);
  const pcm::LogicalLine readback = hw.read_line(array, 0);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(readback.word(i), next.word(i));
}

TEST(HwExecutor, PulsesMatchReadStageCounts) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray array(kLineCells);
  pcm::LogicalLine next(8);
  next.set_word(0, 0b1011);   // 3 SETs
  next.set_word(5, 0b10000);  // 1 SET
  const HwWriteResult r = hw.write_line(array, 0, next);
  EXPECT_EQ(r.pulses.sets, 4u);
  EXPECT_EQ(r.pulses.resets, 0u);
  EXPECT_EQ(array.total_pulses(), 4u);
  EXPECT_EQ(r.service_time, ns(430));  // one write unit
}

TEST(HwExecutor, RepeatedWritesAccumulateMinimalWear) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray array(kLineCells);
  Rng rng(5);
  u64 expected_pulses = 0;
  for (int round = 0; round < 30; ++round) {
    pcm::LogicalLine next = hw.read_line(array, 0);
    // Sparse mutation.
    for (u32 i = 0; i < 8; ++i) {
      u64 w = next.word(i);
      for (u32 b = 0; b < 6; ++b) {
        w = with_bit(w, static_cast<u32>(rng.below(64)), rng.chance(0.6));
      }
      next.set_word(i, w);
    }
    const HwWriteResult r = hw.write_line(array, 0, next);
    expected_pulses += r.pulses.total();
  }
  EXPECT_EQ(array.total_pulses(), expected_pulses);
  // Far below the all-bits wear a conventional writer would cause.
  EXPECT_LT(array.total_pulses(), 30u * 520u / 4);
}

TEST(HwExecutor, FlipPathExercisedOnHeavyWrites) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray array(kLineCells);
  // All-ones over a zeroed array: the flip stores inverted data; only
  // tag cells are pulsed.
  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, ~u64{0});
  const HwWriteResult r = hw.write_line(array, 0, next);
  EXPECT_EQ(r.analysis.read.flipped_units, 8u);
  EXPECT_EQ(r.pulses.total(), 8u);  // the 8 tag cells
  const pcm::LogicalLine readback = hw.read_line(array, 0);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(readback.word(i), ~u64{0});
}

TEST(HwExecutor, RandomStressAgainstBookkeepingModel) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray array(kLineCells);
  Rng rng(99);
  pcm::LineImage model_image(8);  // the simulator's line bookkeeping
  pcm::LineBuf model = model_image.view();

  for (int round = 0; round < 100; ++round) {
    pcm::LogicalLine next(8);
    for (u32 i = 0; i < 8; ++i) {
      u64 w = model.logical(i);
      const u32 flips = static_cast<u32>(rng.below(40));
      for (u32 b = 0; b < flips; ++b) {
        w = with_bit(w, static_cast<u32>(rng.below(64)), rng.chance(0.5));
      }
      next.set_word(i, w);
    }
    pcm::LineImage work_image(model);
    pcm::LineBuf work = work_image.view();
    const schemes::ServicePlan plan = scheme.plan_write(work, next);
    const HwWriteResult r = hw.write_line(array, 0, next);
    // Hardware pulses == plan's programmed bits; state matches.
    ASSERT_EQ(r.pulses.sets, plan.programmed.sets) << "round " << round;
    ASSERT_EQ(r.pulses.resets, plan.programmed.resets);
    for (u32 i = 0; i < 8; ++i) {
      ASSERT_EQ(hw.read_line(array, 0).word(i), work.logical(i));
    }
    model_image = work_image;
  }
}

TEST(HwExecutor, ServiceTimeMatchesEq5) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray array(kLineCells);
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    pcm::LogicalLine next(8);
    for (u32 i = 0; i < 8; ++i) {
      next.set_word(i, hw.read_line(array, 0).word(i) ^
                           (rng.next() & rng.next()));
    }
    const HwWriteResult r = hw.write_line(array, 0, next);
    const Tick sub = cfg().timing.t_set / r.analysis.packer_cfg.k;
    EXPECT_EQ(r.service_time, r.analysis.pack.result * cfg().timing.t_set +
                                  r.analysis.pack.subresult * sub);
  }
}

TEST(HwExecutor, WorksOn256ByteLines) {
  pcm::PcmConfig c = cfg();
  c.geometry.cache_line_bytes = 256;  // 32 units
  const TetrisScheme scheme(c);
  const HwExecutor hw(scheme);
  pcm::PcmArray array(32 * 65);
  Rng rng(3);
  pcm::LogicalLine next(32);
  for (u32 i = 0; i < 32; ++i) next.set_word(i, rng.next());
  const HwWriteResult r = hw.write_line(array, 0, next);
  EXPECT_GT(r.pulses.total(), 0u);
  const pcm::LogicalLine back = hw.read_line(array, 0);
  for (u32 i = 0; i < 32; ++i) EXPECT_EQ(back.word(i), next.word(i));
}

TEST(HwExecutor, BoundsChecked) {
  const TetrisScheme scheme(cfg());
  const HwExecutor hw(scheme);
  pcm::PcmArray small(10);
  pcm::LogicalLine next(8);
  EXPECT_THROW(hw.write_line(small, 0, next), ContractViolation);
}

}  // namespace
}  // namespace tw::core
