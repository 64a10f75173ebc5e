// Unit tests for tw/pcm: parameters, line buffers, array/endurance,
// energy, wear and bank occupancy.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/controller.hpp"
#include "tw/pcm/array.hpp"
#include "tw/pcm/bank.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/params.hpp"
#include "tw/pcm/wear.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"

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
  LineImage line_image(8);
  LineBuf line = line_image.view();
  line.set_cell(0, 0xABCD);
  line.set_flip(0, false);
  line.set_cell(1, ~u64{0xABCD});
  line.set_flip(1, true);
  EXPECT_EQ(line.logical(0), 0xABCDu);
  EXPECT_EQ(line.logical(1), 0xABCDu);
}

TEST(Line, StoreLogicalRoundTrip) {
  LineImage line_image(4);
  LineBuf line = line_image.view();
  line.store_logical(2, 0x1234, true);
  EXPECT_EQ(line.cell(2), ~u64{0x1234});
  EXPECT_TRUE(line.flip(2));
  EXPECT_EQ(line.logical(2), 0x1234u);
}

TEST(Line, BoundsChecked) {
  LineImage line_image(4);
  LineBuf line = line_image.view();
  EXPECT_THROW(line.cell(4), ContractViolation);
  EXPECT_THROW(LineImage(0), ContractViolation);
  EXPECT_THROW(LineImage(kMaxUnitsPerLine + 1), ContractViolation);
  EXPECT_EQ(LineImage{}.view().units(), 0u);
}

TEST(Line, FromPhysical) {
  LineImage phys_image(2);
  LineBuf phys = phys_image.view();
  phys.store_logical(0, 42, false);
  phys.store_logical(1, 43, true);
  const LogicalLine logical = LogicalLine::from_physical(phys);
  EXPECT_EQ(logical.word(0), 42u);
  EXPECT_EQ(logical.word(1), 43u);
}

TEST(Line, Equality) {
  LineImage a_image(2), b_image(2);
  LineBuf a = a_image.view(), b = b_image.view();
  a.set_cell(0, 5);
  b.set_cell(0, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a_image, b_image);
  b.set_flip(1, true);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a_image == b_image);
  EXPECT_FALSE(LineImage(2) == LineImage(3));
}

TEST(Line, ImageCopiesAreDeepAndViewCopiesAlias) {
  for (const u32 units : {1u, kInlineUnitsPerLine, 16u, kMaxUnitsPerLine}) {
    const u32 last = units - 1;
    LineImage a(units);
    a.view().store_logical(last, 0xABC, true);
    a.view().set_meta(last, 3);

    // An image copy owns its record: a write to it leaves `a` alone.
    LineImage b = a;
    EXPECT_EQ(b, a);
    b.view().set_cell(last, 1);
    EXPECT_EQ(a.view().cell(last), ~u64{0xABC});
    EXPECT_FALSE(b == a);

    // So does an image taken from a view.
    const LineImage c(a.view());
    EXPECT_EQ(c, a);
    EXPECT_TRUE(c.view().flip(last));
    EXPECT_EQ(c.view().meta(last), 3u);

    // A view copy reads and writes the same record.
    LineBuf v = a.view();
    LineBuf w = v;
    w.set_cell(last, 7);
    EXPECT_EQ(v.cell(last), 7u);
    EXPECT_EQ(a.view().cell(last), 7u);
  }
}

// --------------------------------------------------------- line record --
// The DataStore keeps every touched line as one record of its arena;
// LineBuf views it, LineImage owns one. First-touch content, plain or
// ones-biased, is written straight into the records.

static_assert(std::is_trivially_copyable_v<LineBuf>);
static_assert(std::is_trivially_copyable_v<LineImage>);
static_assert(sizeof(LineBuf) <= 16);

TEST(LineRecord, StrideIsAlignedAndHoldsEveryUnit) {
  for (u32 units = 1; units <= kMaxUnitsPerLine; ++units) {
    const u32 stride = line_record_bytes(units);
    EXPECT_EQ(stride % 8, 0u) << units;
    EXPECT_GE(stride, units * 10) << units;
    EXPECT_LT(stride, units * 10 + 8) << units;
  }
  EXPECT_EQ(line_record_bytes(kInlineUnitsPerLine), 80u);
  EXPECT_EQ(line_record_bytes(kMaxUnitsPerLine), 320u);
}

TEST(LineRecord, StoreViewAndImageAgreeUnderTheSameWrites) {
  for (const u32 units : {1u, 3u, 8u, 13u, 16u, kMaxUnitsPerLine}) {
    for (const double bias : {0.5, 0.3}) {
      SCOPED_TRACE(testing::Message() << units << " units, bias " << bias);
      mem::DataStore store(units, 11, bias);
      Rng rng(units);
      // Neighbouring records of one chunk, written in turn: a write that
      // strayed past its record would show in the line before it.
      std::vector<LineImage> images;
      for (Addr a = 0; a < 6 * 64; a += 64) {
        LineBuf line = store.line(a);
        for (u32 i = 0; i < units; ++i) {  // fresh records: tags clear
          EXPECT_FALSE(line.flip(i));
          EXPECT_EQ(line.meta(i), 0u);
        }
        LineImage image(line);
        EXPECT_EQ(image.view(), line);
        LineBuf mirror = image.view();
        for (u32 i = 0; i < units; ++i) {
          const u64 word = rng.next();
          const bool flip = rng.chance(0.5);
          const u8 meta = static_cast<u8>(rng.next() & 0xF);
          for (LineBuf v : {line, mirror}) {
            v.store_logical(i, word, flip);
            v.set_meta(i, meta);
          }
        }
        EXPECT_EQ(line, mirror);
        EXPECT_EQ(LineImage(line), image);
        images.push_back(image);
      }
      for (std::size_t k = 0; k < images.size(); ++k) {
        EXPECT_EQ(store.line(k * 64), images[k].view()) << "line " << k;
      }
    }
  }
}

TEST(LineRecord, ViewOutlivesArenaGrowth) {
  mem::DataStore store(kInlineUnitsPerLine, 5, 0.3);
  LineBuf first = store.line(0);
  first.store_logical(7, 0xFEED, true);
  first.set_meta(7, 9);
  const LineImage before(first);
  // Past the first 512-line chunk, several times over.
  for (Addr a = 64; a < 2048 * 64; a += 64) (void)store.line(a);
  EXPECT_EQ(store.lines_touched(), 2048u);
  EXPECT_EQ(LineImage(first), before);
  EXPECT_EQ(first.logical(7), 0xFEEDu);
  EXPECT_EQ(store.line(0).cell_words().data(), first.cell_words().data());
}

// -------------------------------------------------------- logical line --

/// A line of `units` distinct nonzero words (default-constructed at 0).
LogicalLine patterned(u32 units, u64 salt) {
  if (units == 0) return LogicalLine{};
  LogicalLine l(units);
  for (u32 i = 0; i < units; ++i) {
    l.set_word(i, (salt << 32) ^ (0x9E3779B97F4A7C15ull * (i + 1)));
  }
  return l;
}

void expect_same_words(const LogicalLine& got, const LogicalLine& want) {
  ASSERT_EQ(got.units(), want.units());
  for (u32 i = 0; i < want.units(); ++i) {
    EXPECT_EQ(got.word(i), want.word(i)) << "word " << i;
  }
  EXPECT_EQ(got, want);
}

TEST(LogicalLine, CopyAssignAndMoveKeepUnitsAndEveryWord) {
  // 0 (a read's payload), 1, the inline-copy edge 8 and 9, and the
  // widest line: every value operation carries exactly the used words.
  for (const u32 units : {0u, 1u, 8u, 9u, kMaxUnitsPerLine}) {
    SCOPED_TRACE("units=" + std::to_string(units));
    const LogicalLine src = patterned(units, 1);

    const LogicalLine copy = src;  // NOLINT(performance-unnecessary-copy-*)
    expect_same_words(copy, src);

    // Assignment over every other width, narrower and wider.
    for (const u32 from : {0u, 1u, 8u, 9u, kMaxUnitsPerLine}) {
      LogicalLine dst = patterned(from, 2);
      dst = src;
      expect_same_words(dst, src);
    }

    LogicalLine self = src;
    const LogicalLine& alias = self;
    self = alias;  // self-assignment keeps the content
    expect_same_words(self, src);

    LogicalLine moved_from = src;
    const LogicalLine moved = std::move(moved_from);
    expect_same_words(moved, src);
    LogicalLine move_dst = patterned(kMaxUnitsPerLine, 3);
    LogicalLine move_src = src;
    move_dst = std::move(move_src);
    expect_same_words(move_dst, src);
  }
}

TEST(LogicalLine, ConstructedLineIsZeroed) {
  for (const u32 units : {1u, 8u, 9u, kMaxUnitsPerLine}) {
    const LogicalLine l(units);
    EXPECT_EQ(l.units(), units);
    for (u32 i = 0; i < units; ++i) EXPECT_EQ(l.word(i), 0u);
  }
  EXPECT_EQ(LogicalLine{}.units(), 0u);
  EXPECT_THROW((void)LogicalLine{}.word(0), ContractViolation);
}

TEST(LogicalLine, FromPhysicalRoundTrips) {
  // Storing a logical line under any flip pattern and reading it back
  // reconstructs every word, at every width.
  for (const u32 units : {1u, 8u, 9u, kMaxUnitsPerLine}) {
    const LogicalLine want = patterned(units, 4);
    LineImage phys_image(units);
    LineBuf phys = phys_image.view();
    for (u32 i = 0; i < units; ++i) {
      phys.store_logical(i, want.word(i), (i % 3) == 1);
    }
    expect_same_words(LogicalLine::from_physical(phys), want);
  }
}

/// FNV-1a over a stream of 64-bit values: one number that moves when any
/// planned latency, pulse count or stored cell does.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 v) {
    for (u32 b = 0; b < 8; ++b) h = (h ^ ((v >> (8 * b)) & 0xFF)) * 0x100000001b3ull;
  }
  void add_line(const LineBuf& l) {
    for (const u64 w : l.cell_words()) add(w);
    for (const bool f : l.flip_bits()) add(f ? 1 : 0);
    for (u32 i = 0; i < l.units(); ++i) add(l.meta(i));
  }
};

PcmConfig wide_line_config() {
  PcmConfig dev = table2_config();
  dev.geometry.cache_line_bytes = 256;
  return dev;
}

LogicalLine random_line(u32 units, Rng& rng) {
  LogicalLine l(units);
  for (u32 i = 0; i < units; ++i) l.set_word(i, rng.next());
  return l;
}

// The digests below were recorded with the request payload that reserved
// (and copied) all kMaxUnitsPerLine words and staged batches of more than
// 16 lines in a heap-grown buffer; copying only the used words must plan
// every batch identically.

TEST(LogicalLine, WideControllerBatchPlansAsBefore) {
  const PcmConfig dev = wide_line_config();
  ASSERT_EQ(dev.geometry.units_per_line(), kMaxUnitsPerLine);
  constexpr u32 kLines = 20;  // beyond any 16-entry inline staging
  sim::Simulator sim;
  stats::Registry reg;
  const auto scheme = core::make_scheme(schemes::SchemeKind::kTetris, dev);
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.write_batch = kLines;
  ccfg.write_coalescing = false;
  mem::Controller ctl(sim, dev, ccfg, *scheme, reg);

  // kLines distinct lines of one bank, enqueued before the first dispatch.
  const mem::AddressMap map(dev.geometry);
  std::vector<Addr> addrs;
  for (Addr a = 0; addrs.size() < kLines; a += dev.geometry.cache_line_bytes) {
    if (map.flat_bank(a) == 0) addrs.push_back(a);
  }
  Rng rng(0x5EED);
  for (const Addr a : addrs) {
    mem::MemoryRequest r;
    r.addr = a;
    r.type = mem::ReqType::kWrite;
    r.data = random_line(kMaxUnitsPerLine, rng);
    ASSERT_TRUE(ctl.enqueue(std::move(r)));
  }
  sim.run();
  ASSERT_TRUE(ctl.idle());
  EXPECT_EQ(reg.counter("mem.writes_batched").value(), kLines);

  Digest d;
  d.add(sim.now());
  d.add(sim.executed());
  d.add(reg.counter("mem.writes").value());
  for (const Addr a : addrs) d.add_line(ctl.store().line(a));
  EXPECT_EQ(d.h, 2913405883855103527ull);
}

TEST(LogicalLine, WideEncodedBatchPlansAsBefore) {
  const PcmConfig dev = wide_line_config();
  constexpr u32 kLines = 20;
  const auto wrapped = encode::wrap_scheme(
      core::make_scheme(schemes::SchemeKind::kTetris, dev),
      encode::EncoderKind::kWire);
  Rng rng(0xC0DE);
  std::vector<LineImage> images(kLines, LineImage(kMaxUnitsPerLine));
  std::vector<LineBuf> lines;
  std::vector<LogicalLine> datas;
  for (u32 k = 0; k < kLines; ++k) {
    LineBuf l = images[k].view();
    for (u32 i = 0; i < kMaxUnitsPerLine; ++i) {
      l.store_logical(i, rng.next(), false);
    }
    lines.push_back(l);
    datas.push_back(random_line(kMaxUnitsPerLine, rng));
  }
  std::vector<LineBuf*> ptrs;
  for (LineBuf& l : lines) ptrs.push_back(&l);
  const schemes::BatchServicePlan bp = wrapped->plan_write_batch(
      {ptrs.data(), ptrs.size()}, {datas.data(), datas.size()});
  ASSERT_EQ(bp.per_line.size(), kLines);

  Digest d;
  d.add(bp.latency);
  d.add(bp.packed_lines);
  d.add(std::bit_cast<u64>(bp.occupancy));
  for (u32 k = 0; k < kLines; ++k) {
    const schemes::ServicePlan& p = bp.per_line[k];
    d.add(p.latency);
    d.add(p.programmed.sets);
    d.add(p.programmed.resets);
    d.add(p.flipped_units);
    d.add(p.enc.coded_units);
    d.add(p.enc.tag_bits);
    d.add_line(lines[k]);
    EXPECT_EQ(wrapped->decode_stored(lines[k]), datas[k]) << "line " << k;
  }
  EXPECT_EQ(d.h, 1491971142029152372ull);
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
