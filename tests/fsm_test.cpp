// Unit tests for the FSM execution model and write driver.

#include <gtest/gtest.h>

#include "tw/common/rng.hpp"
#include "tw/core/datapath.hpp"
#include "tw/core/fsm.hpp"
#include "tw/core/write_driver.hpp"

namespace tw::core {
namespace {

PackerConfig cfg32() {
  PackerConfig c;
  c.k = 8;
  c.l = 2;
  c.budget = 32;
  return c;
}

pcm::TimingParams paper_timing() { return pcm::TimingParams{}; }

// ------------------------------------------------------------------ fsm --
TEST(Fsm, EmptyScheduleIsInstant) {
  const PackResult r = pack({}, cfg32());
  const FsmTrace t = execute_fsms(r, cfg32(), paper_timing());
  EXPECT_TRUE(t.events.empty());
  EXPECT_EQ(t.schedule_length, 0u);
}

TEST(Fsm, SingleWrite1TakesOneTset) {
  const std::vector<UnitCounts> counts = {{0, 5, 0}};
  const PackResult r = pack(counts, cfg32());
  const FsmTrace t = execute_fsms(r, cfg32(), paper_timing());
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].fsm, 1);
  EXPECT_EQ(t.events[0].start, 0u);
  EXPECT_EQ(t.events[0].end, ns(430));
  EXPECT_EQ(t.schedule_length, ns(430));
  EXPECT_EQ(t.peak_current, 5u);
}

TEST(Fsm, Write0PulseIsTresetInsideSubSlot) {
  const std::vector<UnitCounts> counts = {{0, 20, 0}, {1, 0, 5}};
  const PackResult r = pack(counts, cfg32());
  const FsmTrace t = execute_fsms(r, cfg32(), paper_timing());
  // Find the FSM0 event.
  const FsmEvent* w0 = nullptr;
  for (const auto& e : t.events) {
    if (e.fsm == 0) w0 = &e;
  }
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->end - w0->start, ns(53));
  // It runs concurrently with the write-1 (interspace stealing).
  EXPECT_LT(w0->start, ns(430));
  EXPECT_EQ(t.schedule_length, ns(430));
}

TEST(Fsm, ScheduleLengthMatchesEquation5) {
  // result=1 (write-1s) + subresult=1 (a spilled write-0).
  const std::vector<UnitCounts> counts = {{0, 10, 5}};
  PackerConfig c = cfg32();
  c.forbid_self_overlap = true;  // force the spill path
  const PackResult r = pack(counts, c);
  ASSERT_EQ(r.result, 1u);
  ASSERT_EQ(r.subresult, 1u);
  const FsmTrace t = execute_fsms(r, c, paper_timing());
  const Tick sub = ns(430) / 8;
  EXPECT_EQ(t.schedule_length, ns(430) + sub);
}

TEST(Fsm, PeakCurrentNeverExceedsBudget) {
  Rng rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    PackerConfig c;
    c.k = 8;
    c.l = 2;
    c.budget = 16 + static_cast<u32>(rng.below(120));
    std::vector<UnitCounts> counts;
    const u32 units = 1 + static_cast<u32>(rng.below(8));
    for (u32 i = 0; i < units; ++i) {
      counts.push_back(UnitCounts{i, static_cast<u32>(rng.below(33)),
                                  static_cast<u32>(rng.below(33))});
    }
    const PackResult r = pack(counts, c);
    const FsmTrace t = execute_fsms(r, c, paper_timing());
    EXPECT_LE(t.peak_current, c.budget);
    EXPECT_LE(t.pulse_completion, t.schedule_length);
  }
}

TEST(Fsm, EventsSortedByStart) {
  const std::vector<UnitCounts> counts = {{0, 8, 1}, {1, 7, 1}, {2, 30, 2}};
  const PackResult r = pack(counts, cfg32());
  const FsmTrace t = execute_fsms(r, cfg32(), paper_timing());
  for (std::size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_LE(t.events[i - 1].start, t.events[i].start);
  }
}

// --------------------------------------------------------- write driver --
TEST(WriteDriver, OnlyChangedBitsPulsed) {
  pcm::PcmArray arr(64);
  arr.program_word_dcw(0, 0b1010'1010, 8);
  const u64 pulses_before = arr.total_pulses();
  const BitTransitions t =
      drive_unit(arr, 0, /*old=*/0b1010'1010, /*new=*/0b1010'0101, 8);
  EXPECT_EQ(t.sets, 2u);
  EXPECT_EQ(t.resets, 2u);
  EXPECT_EQ(arr.total_pulses() - pulses_before, 4u);
  EXPECT_EQ(arr.read_word(0, 8), 0b1010'0101u);
}

TEST(WriteDriver, SetPassOnlySetsBits) {
  pcm::PcmArray arr(64);
  const BitTransitions t =
      drive_pass(arr, 0, 0b0011, 0b0101, 8, WritePass::kSet);
  EXPECT_EQ(t.sets, 1u);
  EXPECT_EQ(t.resets, 0u);
  // After only the SET pass, the to-be-reset bit still holds old value.
  EXPECT_EQ(arr.read_word(0, 8), 0b0100u);  // bit2 set; bit1 not yet reset
}

TEST(WriteDriver, ResetPassCompletesTheWrite) {
  pcm::PcmArray arr(64);
  drive_pass(arr, 0, 0b0011, 0b0101, 8, WritePass::kSet);
  // Seed the array with the old '1' bits so the reset pass has work: the
  // array starts all-zero, so program old ones first.
  // (drive_pass computes enables from the provided old/new words, not the
  // array, mirroring the read-buffer + DX inputs of Fig. 9.)
  arr.program(0, true);
  arr.program(1, true);
  const BitTransitions t =
      drive_pass(arr, 0, 0b0011, 0b0101, 8, WritePass::kReset);
  EXPECT_EQ(t.resets, 1u);
  EXPECT_EQ(arr.read_word(0, 8), 0b0101u);
}

TEST(WriteDriver, SilentWriteNoPulses) {
  pcm::PcmArray arr(64);
  const BitTransitions t = drive_unit(arr, 0, 0xAB, 0xAB, 8);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(arr.total_pulses(), 0u);
}

// ------------------------------------------------------------- datapath --
TEST(Datapath, PaperLayoutIs48Bits) {
  // 8 units x 64-bit: counts go to 33, needing 6 bits -> 48-bit regs,
  // matching the paper's Reg0/Reg1.
  const DatapathLayout l = DatapathLayout::for_geometry(8, 64);
  EXPECT_EQ(l.count_bits, 6u);
  EXPECT_EQ(l.reg_bits, 48u);
  EXPECT_GE(l.max_count(), 33u);
}

TEST(Datapath, StoreLoadRoundTrip) {
  CountsRegister reg(DatapathLayout::for_geometry(8, 64));
  reg.store(3, 17);
  EXPECT_EQ(reg.load(3), 17u);
  EXPECT_EQ(reg.width_bits(), 48u);
}

TEST(Datapath, OverflowRejected) {
  CountsRegister reg(DatapathLayout::for_geometry(8, 64));
  EXPECT_THROW(reg.store(0, 64), ContractViolation);
  EXPECT_THROW(reg.store(8, 1), ContractViolation);
}

TEST(Datapath, LatchFromReadStage) {
  pcm::LineImage line_image(8);
  pcm::LineBuf line = line_image.view();
  pcm::LogicalLine next(8);
  next.set_word(0, 0b111);
  next.set_word(5, 0b11);
  const ReadStageResult rs = read_stage(line, next, 64);
  const DatapathLayout layout = DatapathLayout::for_geometry(8, 64);
  CountsRegister reg0(layout), reg1(layout);
  latch_counts(rs, reg0, reg1);
  EXPECT_EQ(reg1.load(0), 3u);
  EXPECT_EQ(reg1.load(5), 2u);
  EXPECT_EQ(reg0.load(0), 0u);
}

}  // namespace
}  // namespace tw::core
