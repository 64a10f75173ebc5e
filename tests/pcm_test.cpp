// Unit tests for tw/pcm: parameters, line buffers, array/endurance,
// energy, wear and bank occupancy.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "tw/common/assert.hpp"
#include "tw/common/rng.hpp"
#include "tw/pcm/array.hpp"
#include "tw/pcm/bank.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/params.hpp"
#include "tw/pcm/wear.hpp"

namespace tw::pcm {
namespace {

// --------------------------------------------------------------- params --
TEST(Params, Table2Defaults) {
  const PcmConfig cfg = table2_config();
  EXPECT_EQ(cfg.timing.t_read, ns(50));
  EXPECT_EQ(cfg.timing.t_reset, ns(53));
  EXPECT_EQ(cfg.timing.t_set, ns(430));
  EXPECT_EQ(cfg.k(), 8u);   // 430/53 rounds to 8
  EXPECT_EQ(cfg.l(), 2u);   // Creset = 2 x Cset
  EXPECT_EQ(cfg.geometry.units_per_line(), 8u);
  EXPECT_EQ(cfg.geometry.bank_write_bits(), 64u);
  EXPECT_EQ(cfg.bank_power_budget(), 128u);  // 32/chip x 4 chips (GCP)
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Params, TimeRatioRounding) {
  TimingParams t;
  t.t_reset = ns(53);
  t.t_set = ns(430);
  EXPECT_EQ(t.time_ratio_k(), 8u);
  t.t_set = ns(106);
  EXPECT_EQ(t.time_ratio_k(), 2u);
  t.t_set = ns(53);
  EXPECT_EQ(t.time_ratio_k(), 1u);
}

TEST(Params, InvalidGeometryRejected) {
  PcmConfig cfg;
  cfg.geometry.banks = 3;  // not a power of two
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = PcmConfig{};
  cfg.geometry.data_unit_bits = 65;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = PcmConfig{};
  cfg.timing.t_set = 0;
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(Params, LargerLineGeometry) {
  PcmConfig cfg;
  cfg.geometry.cache_line_bytes = 256;  // zEnterprise-style lines
  EXPECT_EQ(cfg.geometry.units_per_line(), 32u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Params, DescribeMentionsKey) {
  const std::string d = table2_config().describe();
  EXPECT_NE(d.find("GCP"), std::string::npos);
  EXPECT_NE(d.find("K=8"), std::string::npos);
}

// ----------------------------------------------------------------- line --
TEST(Line, LogicalReconstruction) {
  LineBuf line(8);
  line.set_cell(0, 0xABCD);
  line.set_flip(0, false);
  line.set_cell(1, ~u64{0xABCD});
  line.set_flip(1, true);
  EXPECT_EQ(line.logical(0), 0xABCDu);
  EXPECT_EQ(line.logical(1), 0xABCDu);
}

TEST(Line, StoreLogicalRoundTrip) {
  LineBuf line(4);
  line.store_logical(2, 0x1234, true);
  EXPECT_EQ(line.cell(2), ~u64{0x1234});
  EXPECT_TRUE(line.flip(2));
  EXPECT_EQ(line.logical(2), 0x1234u);
}

TEST(Line, BoundsChecked) {
  LineBuf line(4);
  EXPECT_THROW(line.cell(4), ContractViolation);
  EXPECT_THROW(LineBuf(0), ContractViolation);
  EXPECT_THROW(LineBuf(kMaxUnitsPerLine + 1), ContractViolation);
}

TEST(Line, FromPhysical) {
  LineBuf phys(2);
  phys.store_logical(0, 42, false);
  phys.store_logical(1, 43, true);
  const LogicalLine logical = LogicalLine::from_physical(phys);
  EXPECT_EQ(logical.word(0), 42u);
  EXPECT_EQ(logical.word(1), 43u);
}

TEST(Line, Equality) {
  LineBuf a(2), b(2);
  a.set_cell(0, 5);
  b.set_cell(0, 5);
  EXPECT_EQ(a, b);
  b.set_flip(1, true);
  EXPECT_FALSE(a == b);
}

TEST(Line, CopiesAreDeepAndMovesEmptyTheSource) {
  // Inline (64 B) and heap-backed (128 B, 256 B) lines behave alike as
  // values.
  for (const u32 units : {kInlineUnitsPerLine, 16u, kMaxUnitsPerLine}) {
    const u32 last = units - 1;
    LineBuf a(units);
    a.store_logical(last, 0xABC, true);
    a.set_meta(last, 3);

    LineBuf b = a;
    EXPECT_EQ(b, a);
    b.set_cell(last, 1);
    EXPECT_EQ(a.cell(last), ~u64{0xABC});  // the copy owns its cells

    LineBuf c(2);
    c = a;
    EXPECT_EQ(c, a);
    const LineBuf& same = c;
    c = same;  // self-assignment keeps the content
    EXPECT_EQ(c, a);

    LineBuf d = std::move(b);
    EXPECT_EQ(b.units(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(d.cell(last), 1u);
    EXPECT_TRUE(d.flip(last));
    EXPECT_EQ(d.meta(last), 3u);
    c = std::move(d);
    EXPECT_EQ(c.cell(last), 1u);
    EXPECT_EQ(d.units(), 0u);  // NOLINT(bugprone-use-after-move)
  }
}

// ---------------------------------------------------------------- array --
TEST(Array, ProgramAndRead) {
  PcmArray arr(128);
  EXPECT_FALSE(arr.read(5));
  EXPECT_EQ(arr.program(5, true), ProgramResult::kOk);
  EXPECT_TRUE(arr.read(5));
  EXPECT_EQ(arr.program(5, true), ProgramResult::kRedundant);
}

TEST(Array, ReadWordLsbFirst) {
  PcmArray arr(64);
  arr.program(0, true);
  arr.program(3, true);
  EXPECT_EQ(arr.read_word(0, 8), 0b1001u);
}

TEST(Array, DcwProgramsOnlyChangedBits) {
  PcmArray arr(64);
  arr.program_word_dcw(0, 0b1010, 8);
  const u64 before = arr.total_pulses();
  const BitTransitions t = arr.program_word_dcw(0, 0b1100, 8);
  EXPECT_EQ(t.sets, 1u);    // bit2 0->1
  EXPECT_EQ(t.resets, 1u);  // bit1 1->0
  EXPECT_EQ(arr.total_pulses() - before, 2u);
  EXPECT_EQ(arr.read_word(0, 8), 0b1100u);
}

TEST(Array, EnduranceWearsOut) {
  PcmArray arr(8, /*endurance=*/3);
  EXPECT_EQ(arr.program(0, true), ProgramResult::kOk);
  EXPECT_EQ(arr.program(0, false), ProgramResult::kOk);
  EXPECT_EQ(arr.program(0, true), ProgramResult::kOk);
  // Fourth pulse exceeds endurance: the cell is stuck at its last value.
  EXPECT_EQ(arr.program(0, false), ProgramResult::kWornOut);
  EXPECT_TRUE(arr.read(0));
  EXPECT_EQ(arr.worn_out_cells(), 1u);
}

TEST(Array, WearCounting) {
  PcmArray arr(16);
  arr.program(1, true);
  arr.program(1, false);
  arr.program(2, true);
  EXPECT_EQ(arr.wear(1), 2u);
  EXPECT_EQ(arr.wear(2), 1u);
  EXPECT_EQ(arr.wear(0), 0u);
  EXPECT_EQ(arr.max_wear(), 2u);
  EXPECT_EQ(arr.total_pulses(), 3u);
}

TEST(Array, BoundsChecked) {
  PcmArray arr(8);
  EXPECT_THROW(arr.read(8), ContractViolation);
  EXPECT_THROW(arr.program(8, true), ContractViolation);
  EXPECT_THROW(PcmArray(0), ContractViolation);
}

// --------------------------------------------------------------- energy --
TEST(Energy, AccumulatesPerBit) {
  EnergyParams p;
  p.set_pj = 10.0;
  p.reset_pj = 20.0;
  p.read_bit_pj = 1.0;
  EnergyModel e(p);
  e.add_write(BitTransitions{3, 2});
  e.add_read(64);
  EXPECT_DOUBLE_EQ(e.write_energy_pj(), 3 * 10.0 + 2 * 20.0);
  EXPECT_DOUBLE_EQ(e.read_energy_pj(), 64.0);
  EXPECT_DOUBLE_EQ(e.total_pj(), 134.0);
  EXPECT_EQ(e.set_bits(), 3u);
  EXPECT_EQ(e.reset_bits(), 2u);
}

TEST(Energy, Reset) {
  EnergyModel e;
  e.add_write(BitTransitions{1, 1});
  e.reset();
  EXPECT_DOUBLE_EQ(e.total_pj(), 0.0);
}

// ----------------------------------------------------------------- wear --
TEST(Wear, TracksPerLine) {
  WearTracker w;
  w.record(0x1000, BitTransitions{5, 3});
  w.record(0x1000, BitTransitions{2, 0});
  w.record(0x2000, BitTransitions{1, 1});
  EXPECT_EQ(w.line(0x1000).writes, 2u);
  EXPECT_EQ(w.line(0x1000).bits_programmed, 10u);
  EXPECT_EQ(w.line(0x3000).writes, 0u);

  const WearSummary s = w.summary();
  EXPECT_EQ(s.lines_touched, 2u);
  EXPECT_EQ(s.total_writes, 3u);
  EXPECT_EQ(s.total_bits, 12u);
  EXPECT_EQ(s.max_line_bits, 10u);
  EXPECT_DOUBLE_EQ(s.avg_bits_per_write, 4.0);
}

TEST(Wear, MatchesReferenceMapOnRandomStream) {
  // The flat table must agree with a plain ordered map line by line and
  // in the summary, across many table growths (address 0 included).
  WearTracker w;
  std::map<Addr, LineWear> ref;
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const Addr a = rng.below(3000) * 64;
    const BitTransitions t{static_cast<u32>(rng.below(40)),
                           static_cast<u32>(rng.below(40))};
    LineWear& r = ref[a];
    if (rng.chance(0.1)) {
      w.record_retry(a, t);
    } else {
      w.record(a, t);
      r.writes += 1;
    }
    r.bits_programmed += t.total();
  }
  WearSummary want;
  want.lines_touched = ref.size();
  for (const auto& [addr, r] : ref) {
    const LineWear got = w.line(addr);
    ASSERT_EQ(got.writes, r.writes) << addr;
    ASSERT_EQ(got.bits_programmed, r.bits_programmed) << addr;
    want.total_writes += r.writes;
    want.total_bits += r.bits_programmed;
    want.max_line_bits = std::max(want.max_line_bits, r.bits_programmed);
  }
  EXPECT_EQ(w.line(3000 * 64).writes, 0u);  // never recorded
  const WearSummary s = w.summary();
  EXPECT_EQ(s.lines_touched, want.lines_touched);
  EXPECT_EQ(s.total_writes, want.total_writes);
  EXPECT_EQ(s.total_bits, want.total_bits);
  EXPECT_EQ(s.max_line_bits, want.max_line_bits);
  EXPECT_DOUBLE_EQ(s.avg_bits_per_write,
                   static_cast<double>(want.total_bits) /
                       static_cast<double>(want.total_writes));

  w.reset();
  EXPECT_EQ(w.summary().lines_touched, 0u);
  EXPECT_EQ(w.line(0).bits_programmed, 0u);
}

TEST(Wear, LifetimeProjection) {
  WearTracker w;
  // Hot line: 100 writes x 50 bits over 1 simulated second.
  for (int i = 0; i < 100; ++i) w.record(0x0, BitTransitions{30, 20});
  const LifetimeEstimate e =
      estimate_lifetime(w.summary(), /*sim_seconds=*/1.0,
                        /*cell_endurance=*/1e8, /*bits_per_line=*/512);
  // Worst cell: 5000 bits / 512 cells ~ 9.77 pulses/s.
  EXPECT_NEAR(e.worst_cell_pulses_per_second, 5000.0 / 512.0, 1e-9);
  EXPECT_NEAR(e.lifetime_seconds, 1e8 / (5000.0 / 512.0), 1.0);
  EXPECT_NEAR(e.lifetime_years,
              e.lifetime_seconds / (365.25 * 24 * 3600), 1e-9);
}

TEST(Wear, LifetimeDegenerateInputs) {
  WearTracker w;
  EXPECT_DOUBLE_EQ(estimate_lifetime(w.summary(), 1.0).lifetime_seconds,
                   0.0);
  w.record(0, BitTransitions{1, 0});
  EXPECT_DOUBLE_EQ(estimate_lifetime(w.summary(), 0.0).lifetime_seconds,
                   0.0);
}

// ----------------------------------------------------------------- bank --
TEST(Bank, OccupancyTimeline) {
  PcmBank bank;
  EXPECT_TRUE(bank.idle_at(0));
  bank.occupy(100, 50);
  EXPECT_FALSE(bank.idle_at(120));
  EXPECT_TRUE(bank.idle_at(150));
  EXPECT_EQ(bank.free_at(), 150u);
  EXPECT_EQ(bank.busy_total(), 50u);
  EXPECT_EQ(bank.commands(), 1u);
}

TEST(Bank, CannotOccupyWhileBusy) {
  PcmBank bank;
  bank.occupy(0, 100);
  EXPECT_THROW(bank.occupy(50, 10), ContractViolation);
  EXPECT_NO_THROW(bank.occupy(100, 10));
}

}  // namespace
}  // namespace tw::pcm
