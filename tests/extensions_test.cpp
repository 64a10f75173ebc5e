// Tests for the PreSET scheme (paper ref [23]) and batched Tetris
// (our future-work extension: joint packing of same-bank writes).

#include <gtest/gtest.h>

#include "tw/core/factory.hpp"
#include "tw/harness/experiment.hpp"

namespace tw {
namespace {

pcm::PcmConfig cfg() { return pcm::table2_config(); }

pcm::LineImage line_of(u64 word) {
  pcm::LineImage l_image(8);
  pcm::LineBuf l = l_image.view();
  for (u32 i = 0; i < 8; ++i) l.set_cell(i, word);
  return l_image;
}

pcm::LogicalLine data_of(u64 word) {
  pcm::LogicalLine d(8);
  for (u32 i = 0; i < 8; ++i) d.set_word(i, word);
  return d;
}

// ----------------------------------------------------------------- preset --
TEST(Preset, CriticalPathIsResetOnly) {
  const auto scheme = core::make_scheme(schemes::SchemeKind::kPreset, cfg());
  pcm::LineImage line_image = line_of(0);
  pcm::LineBuf line = line_image.view();
  const schemes::ServicePlan p = scheme->plan_write(line, data_of(0xAA));
  // Worst case: (64+1 cells) x L=2 = 130 > budget 128 -> one unit per
  // Treset slot: 8 x 53 ns.
  EXPECT_EQ(p.latency, 8 * ns(53));
  EXPECT_LT(p.write_units, 1.0);
  EXPECT_FALSE(p.read_before_write);
  // Only RESETs on the critical path.
  EXPECT_EQ(p.programmed.sets, 0u);
  EXPECT_GT(p.programmed.resets, 0u);
}

TEST(Preset, BackgroundPassAccountsMissingSets) {
  const auto scheme = core::make_scheme(schemes::SchemeKind::kPreset, cfg());
  // All cells 0: the background pass SETs them all.
  pcm::LineImage line_image = line_of(0);
  pcm::LineBuf line = line_image.view();
  const schemes::ServicePlan p = scheme->plan_write(line, data_of(~u64{0}));
  EXPECT_EQ(p.background.sets, 8u * 64u + 8u);  // data + tag cells
  EXPECT_EQ(p.background.resets, 0u);
  // All-ones data: only the tag cells get RESET on the critical path.
  EXPECT_EQ(p.programmed.resets, 8u);
}

TEST(Preset, LogicalDataRoundTrips) {
  const auto scheme = core::make_scheme(schemes::SchemeKind::kPreset, cfg());
  Rng rng(3);
  for (int t = 0; t < 100; ++t) {
    pcm::LineImage line_image(8);
    pcm::LineBuf line = line_image.view();
    for (u32 i = 0; i < 8; ++i) {
      line.set_cell(i, rng.next());
      line.set_flip(i, rng.chance(0.2));
    }
    pcm::LogicalLine next(8);
    for (u32 i = 0; i < 8; ++i) next.set_word(i, rng.next());
    scheme->plan_write(line, next);
    for (u32 i = 0; i < 8; ++i) ASSERT_EQ(line.logical(i), next.word(i));
  }
}

TEST(Preset, ContentAwareBeatsWorstCaseOnSparseZeros) {
  pcm::LineImage base_image = line_of(~u64{0});
  pcm::LineBuf base = base_image.view();
  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, ~u64{0b11});  // 2 zeros/unit
  const auto worst = core::make_scheme(schemes::SchemeKind::kPreset, cfg());
  const auto actual =
      core::make_scheme(schemes::SchemeKind::kPresetActual, cfg());
  pcm::LineImage l1_image(base), l2_image(base);
  pcm::LineBuf l1 = l1_image.view(), l2 = l2_image.view();
  const auto pw = worst->plan_write(l1, next);
  const auto pa = actual->plan_write(l2, next);
  EXPECT_LT(pa.latency, pw.latency);
  // 8 units x (2+1 resets x 2 current) = 48 <= 128: one Treset slot.
  EXPECT_EQ(pa.latency, ns(53));
}

TEST(Preset, FastestWritebackOfAllSchemes) {
  // On the critical path nothing beats RESET-only writes.
  Rng rng(17);
  pcm::LineImage base_image(8);
  pcm::LineBuf base = base_image.view();
  for (u32 i = 0; i < 8; ++i) base.set_cell(i, rng.next());
  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, rng.next());
  const auto preset =
      core::make_scheme(schemes::SchemeKind::kPreset, cfg());
  pcm::LineImage l1_image(base);
  pcm::LineBuf l1 = l1_image.view();
  const Tick preset_latency = preset->plan_write(l1, next).latency;
  for (const auto kind :
       {schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
        schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
        schemes::SchemeKind::kTetris}) {
    pcm::LineImage l_image(base);
    pcm::LineBuf l = l_image.view();
    EXPECT_LT(preset_latency,
              core::make_scheme(kind, cfg())->plan_write(l, next).latency)
        << schemes::scheme_name(kind);
  }
}

TEST(Preset, SystemRunImprovesWriteLatency) {
  harness::SystemConfig sys;
  sys.instructions_per_core = 15'000;
  const auto& vips = workload::profile_by_name("vips");
  const auto dcw = harness::run_system(sys, vips, schemes::SchemeKind::kDcw);
  const auto pre =
      harness::run_system(sys, vips, schemes::SchemeKind::kPreset);
  ASSERT_TRUE(pre.completed);
  EXPECT_LT(pre.write_latency_ns, dcw.write_latency_ns);
  // But energy is worse than the comparison-based schemes (it programs
  // many background bits).
  const auto tetris =
      harness::run_system(sys, vips, schemes::SchemeKind::kTetris);
  EXPECT_GT(pre.write_energy_pj, tetris.write_energy_pj);
}

// ------------------------------------------------------------ batch tetris --
TEST(BatchTetris, SharesWriteUnitsAcrossLines) {
  core::TetrisOptions opts;
  opts.analysis_cycles = 0;
  const core::TetrisScheme scheme(cfg(), opts);

  // Two lines with light demand: jointly they still fit one write unit.
  pcm::LineImage a_image = line_of(0), b_image = line_of(0);
  pcm::LineBuf a = a_image.view(), b = b_image.view();
  pcm::LogicalLine da = data_of(0b111), db = data_of(0b1011);
  pcm::LineBuf* lines[] = {&a, &b};
  const pcm::LogicalLine datas[] = {da, db};
  const schemes::BatchServicePlan batch =
      scheme.plan_write_batch({lines, 2}, {datas, 2});

  ASSERT_EQ(batch.per_line.size(), 2u);
  // 2 reads + one shared Tset window.
  EXPECT_EQ(batch.latency, 2 * ns(50) + ns(430));
  EXPECT_DOUBLE_EQ(batch.per_line[0].write_units, 0.5);
  // Both lines hold their data.
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(a.logical(i), da.word(i));
    EXPECT_EQ(b.logical(i), db.word(i));
  }
}

TEST(BatchTetris, FasterThanSerialTetris) {
  Rng rng(29);
  core::TetrisOptions opts;
  const core::TetrisScheme scheme(cfg(), opts);
  for (int trial = 0; trial < 50; ++trial) {
    pcm::LineImage a_image(8), b_image(8), a2_image(8), b2_image(8);
    pcm::LineBuf a = a_image.view(), b = b_image.view();
    pcm::LineBuf a2 = a2_image.view(), b2 = b2_image.view();
    pcm::LogicalLine da(8), db(8);
    for (u32 i = 0; i < 8; ++i) {
      a.set_cell(i, rng.next());
      b.set_cell(i, rng.next());
      a2.set_cell(i, a.cell(i));
      b2.set_cell(i, b.cell(i));
      da.set_word(i, a.logical(i) ^ (rng.next() & rng.next() & rng.next()));
      db.set_word(i, b.logical(i) ^ (rng.next() & rng.next() & rng.next()));
    }
    pcm::LineBuf* lines[] = {&a, &b};
    const pcm::LogicalLine datas[] = {da, db};
    const Tick batched =
        scheme.plan_write_batch({lines, 2}, {datas, 2}).latency;
    const Tick serial = scheme.plan_write(a2, da).latency +
                        scheme.plan_write(b2, db).latency;
    EXPECT_LE(batched, serial) << "trial " << trial;
  }
}

TEST(BatchTetris, DefaultBatchSerializesForOtherSchemes) {
  const auto dcw = core::make_scheme(schemes::SchemeKind::kDcw, cfg());
  pcm::LineImage a_image = line_of(0), b_image = line_of(0);
  pcm::LineBuf a = a_image.view(), b = b_image.view();
  const pcm::LogicalLine datas[] = {data_of(1), data_of(2)};
  pcm::LineBuf* lines[] = {&a, &b};
  const schemes::BatchServicePlan batch =
      dcw->plan_write_batch({lines, 2}, {datas, 2});
  EXPECT_EQ(batch.latency, 2 * (ns(50) + 8 * ns(430)));
  EXPECT_EQ(a.logical(0), 1u);
  EXPECT_EQ(b.logical(0), 2u);
}

TEST(BatchTetris, SelfCheckVerifiesJointSchedules) {
  core::TetrisOptions opts;
  opts.self_check = true;
  const core::TetrisScheme scheme(cfg(), opts);
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    pcm::LineImage a_image(8), b_image(8), c_image(8);
    pcm::LineBuf a = a_image.view(), b = b_image.view(), c = c_image.view();
    pcm::LogicalLine da(8), db(8), dc(8);
    for (u32 i = 0; i < 8; ++i) {
      a.set_cell(i, rng.next());
      b.set_cell(i, rng.next());
      c.set_cell(i, rng.next());
      da.set_word(i, a.logical(i) ^ (rng.next() & rng.next()));
      db.set_word(i, b.logical(i) ^ (rng.next() & rng.next()));
      dc.set_word(i, c.logical(i) ^ (rng.next() & rng.next()));
    }
    pcm::LineBuf* lines[] = {&a, &b, &c};
    const pcm::LogicalLine datas[] = {da, db, dc};
    EXPECT_NO_THROW(scheme.plan_write_batch({lines, 3}, {datas, 3}));
  }
}

TEST(BatchTetris, ControllerBatchesSameBankWrites) {
  sim::Simulator sim;
  stats::Registry reg;
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, cfg());
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.write_batch = 4;
  ccfg.write_coalescing = false;
  mem::Controller ctl(sim, cfg(), ccfg, *scheme, reg);

  // Three writes to bank 0 (lines 0, 8, 16) enqueued back-to-back.
  for (int i = 0; i < 3; ++i) {
    mem::MemoryRequest r;
    r.addr = static_cast<Addr>(i) * 8 * 64;
    r.type = mem::ReqType::kWrite;
    pcm::LogicalLine d(8);
    d.set_word(0, 0xF0 + i);
    r.data = d;
    ASSERT_TRUE(ctl.enqueue(std::move(r)));
  }
  sim.run();
  EXPECT_EQ(reg.counter("mem.writes").value(), 3u);
  EXPECT_EQ(reg.counter("mem.writes_batched").value(), 3u);
  EXPECT_TRUE(ctl.idle());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ctl.store().read_logical(static_cast<Addr>(i) * 8 * 64).word(0),
              0xF0u + i);
  }
}

TEST(BatchTetris, SystemRunBeatsUnbatchedOnWriteBursts) {
  harness::SystemConfig sys;
  sys.instructions_per_core = 15'000;
  const auto& vips = workload::profile_by_name("vips");
  const auto plain =
      harness::run_system(sys, vips, schemes::SchemeKind::kTetris);
  sys.controller.write_batch = 4;
  const auto batched =
      harness::run_system(sys, vips, schemes::SchemeKind::kTetris);
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(batched.completed);
  // Batching amortizes write units; it should not hurt and usually helps
  // the write-bound workload.
  EXPECT_LE(batched.write_units, plain.write_units + 1e-9);
}

}  // namespace
}  // namespace tw
