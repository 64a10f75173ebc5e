// Property-based tests: randomized sweeps over data patterns, geometries
// and budgets asserting the invariants every scheme must uphold.

#include <gtest/gtest.h>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/fsm.hpp"
#include "tw/verify/differential.hpp"

namespace tw {
namespace {

using schemes::SchemeKind;

pcm::LineImage random_line(Rng& rng, u32 units, bool random_tags = true) {
  pcm::LineImage line_image(units);
  pcm::LineBuf line = line_image.view();
  for (u32 i = 0; i < units; ++i) {
    line.set_cell(i, rng.next());
    line.set_flip(i, random_tags && rng.chance(0.1));
  }
  return line_image;
}

pcm::LogicalLine random_mutation(Rng& rng, const pcm::LineBuf& line,
                                 double flip_rate) {
  pcm::LogicalLine next(line.units());
  for (u32 i = 0; i < line.units(); ++i) {
    u64 w = line.logical(i);
    for (u32 b = 0; b < 64; ++b) {
      if (rng.chance(flip_rate)) w ^= (u64{1} << b);
    }
    next.set_word(i, w);
  }
  return next;
}

class SchemeProperty
    : public ::testing::TestWithParam<std::tuple<SchemeKind, u64>> {};

// P1: after any write, the stored logical data equals the requested data.
TEST_P(SchemeProperty, LogicalDataRoundTrips) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(kind, cfg);
  for (int trial = 0; trial < 50; ++trial) {
    pcm::LineImage line_image = random_line(rng, 8);
    pcm::LineBuf line = line_image.view();
    const pcm::LogicalLine next =
        random_mutation(rng, line, rng.uniform() * 0.6);
    scheme->plan_write(line, next);
    for (u32 i = 0; i < 8; ++i) {
      ASSERT_EQ(line.logical(i), next.word(i))
          << scheme->name() << " unit " << i;
    }
  }
}

// P2: latency and write units are non-negative, finite, and consistent.
TEST_P(SchemeProperty, PlanSane) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed ^ 0xABCD);
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(kind, cfg);
  for (int trial = 0; trial < 50; ++trial) {
    pcm::LineImage line_image = random_line(rng, 8);
    pcm::LineBuf line = line_image.view();
    const pcm::LogicalLine next = random_mutation(rng, line, 0.15);
    const schemes::ServicePlan p = scheme->plan_write(line, next);
    EXPECT_GE(p.write_units, 0.0);
    EXPECT_LE(p.write_units, 8.001);
    EXPECT_GT(p.latency, 0u);
    EXPECT_LT(p.latency, ms(1));
    // Schemes that write all bits program >= the changed-bit count;
    // comparison-based schemes program exactly the needed transitions,
    // which never exceed units x (bits + tag).
    EXPECT_LE(p.programmed.total(), 8u * 65u);
  }
}

// P3: idempotence — rewriting identical data is silent for
// comparison-based schemes.
TEST_P(SchemeProperty, RewriteSameDataProgramsNothingForDcwFamily) {
  const auto [kind, seed] = GetParam();
  if (kind == SchemeKind::kConventional || kind == SchemeKind::kTwoStage ||
      kind == SchemeKind::kTwoStageActual || kind == SchemeKind::kPreset ||
      kind == SchemeKind::kPresetActual) {
    GTEST_SKIP() << "scheme writes all bits (or all zeros) by design";
  }
  Rng rng(seed ^ 0x5555);
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(kind, cfg);
  pcm::LineImage line_image = random_line(rng, 8);
  pcm::LineBuf line = line_image.view();
  const pcm::LogicalLine next = random_mutation(rng, line, 0.2);
  scheme->plan_write(line, next);
  const schemes::ServicePlan again = scheme->plan_write(line, next);
  EXPECT_EQ(again.programmed.total(), 0u);
  EXPECT_TRUE(again.silent);
}

// P4: wear monotonicity — a comparison-based scheme never programs more
// bits than hamming distance + tags.
TEST_P(SchemeProperty, ProgrammedBitsBounded) {
  const auto [kind, seed] = GetParam();
  if (kind == SchemeKind::kConventional || kind == SchemeKind::kTwoStage ||
      kind == SchemeKind::kTwoStageActual || kind == SchemeKind::kPreset ||
      kind == SchemeKind::kPresetActual) {
    GTEST_SKIP() << "scheme writes all bits (or all zeros) by design";
  }
  Rng rng(seed ^ 0x9999);
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(kind, cfg);
  for (int trial = 0; trial < 30; ++trial) {
    // Tags start clear: a set tag is a state only flip-capable schemes
    // produce, and un-flipping it costs DCW up to a whole unit of pulses.
    pcm::LineImage line_image = random_line(rng, 8, /*random_tags=*/false);
    pcm::LineBuf line = line_image.view();
    const pcm::LogicalLine next = random_mutation(rng, line, 0.3);
    u32 logical_distance = 0;
    for (u32 i = 0; i < 8; ++i) {
      logical_distance += hamming(line.logical(i), next.word(i));
    }
    const schemes::ServicePlan p = scheme->plan_write(line, next);
    // Flips can only reduce cell programs below the logical distance;
    // tags add at most one pulse per unit.
    EXPECT_LE(p.programmed.total(), logical_distance + 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeProperty,
    ::testing::Combine(
        ::testing::Values(SchemeKind::kConventional, SchemeKind::kDcw,
                          SchemeKind::kFlipNWrite, SchemeKind::kTwoStage,
                          SchemeKind::kThreeStage, SchemeKind::kTetris,
                          SchemeKind::kFlipNWriteActual,
                          SchemeKind::kTwoStageActual,
                          SchemeKind::kThreeStageActual,
                          SchemeKind::kPreset, SchemeKind::kPresetActual),
        ::testing::Values(1u, 2u, 3u)));

// P5: geometry sweeps — every scheme stays sane across line sizes and
// budgets (the paper's 128 B POWER7 / 256 B zEnterprise motivation).
class GeometryProperty
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(GeometryProperty, SchemesHandleGeometry) {
  const auto [line_bytes, chip_budget] = GetParam();
  pcm::PcmConfig cfg = pcm::table2_config();
  cfg.geometry.cache_line_bytes = line_bytes;
  cfg.power.chip_budget = chip_budget;
  const u32 units = cfg.geometry.units_per_line();

  Rng rng(line_bytes * 131 + chip_budget);
  for (const auto kind :
       {SchemeKind::kDcw, SchemeKind::kFlipNWrite, SchemeKind::kTwoStage,
        SchemeKind::kThreeStage, SchemeKind::kTetris}) {
    const auto scheme = core::make_scheme(kind, cfg);
    pcm::LineImage line_image = random_line(rng, units);
    pcm::LineBuf line = line_image.view();
    const pcm::LogicalLine next = random_mutation(rng, line, 0.1);
    const schemes::ServicePlan p = scheme->plan_write(line, next);
    EXPECT_GT(p.latency, 0u);
    EXPECT_LE(p.write_units, static_cast<double>(units) * 9);
    for (u32 i = 0; i < units; ++i) {
      ASSERT_EQ(line.logical(i), next.word(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LineAndBudget, GeometryProperty,
    ::testing::Combine(::testing::Values(64u, 128u, 256u),
                       ::testing::Values(8u, 16u, 32u, 64u)));

// P7: Tetris never consumes more write units than the conventional
// scheme's one-per-data-unit serial schedule on the same data.
TEST(TetrisVsConventional, NeverMoreWriteUnits) {
  Rng rng(777);
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto tetris = core::make_scheme(SchemeKind::kTetris, cfg);
  const auto conventional =
      core::make_scheme(SchemeKind::kConventional, cfg);
  for (int trial = 0; trial < 200; ++trial) {
    pcm::LineImage line_t_image = random_line(rng, 8);
    pcm::LineBuf line_t = line_t_image.view();
    pcm::LineImage line_c_image(line_t);
    pcm::LineBuf line_c = line_c_image.view();
    const pcm::LogicalLine next =
        random_mutation(rng, line_t, rng.uniform());
    const schemes::ServicePlan pt = tetris->plan_write(line_t, next);
    const schemes::ServicePlan pc = conventional->plan_write(line_c, next);
    EXPECT_LE(pt.write_units, pc.write_units + 1e-9);
  }
}

// P8: every scheme survives a differential sweep against the bit-serial
// oracle (the deep variant with 10k pairs per scheme lives in
// verify_test.cpp; this keeps a smoke-level differential property in the
// general property suite).
TEST_P(SchemeProperty, AgreesWithOracle) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed ^ 0x7777);
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(kind, cfg);
  verify::DifferentialChecker checker(*scheme);
  pcm::LineImage line_image = random_line(rng, 8);
  pcm::LineBuf line = line_image.view();
  for (int trial = 0; trial < 100; ++trial) {
    const pcm::LogicalLine next =
        random_mutation(rng, line, rng.uniform() * 0.6);
    ASSERT_NO_THROW(checker.check_write(line, next));
  }
  EXPECT_EQ(checker.report().writes, 100u);
}

// P6: Tetris schedules under random stress always verify and the FSM
// agrees with Eq. 5.
TEST(TetrisStress, ScheduleAlwaysVerifiesAndMatchesEq5) {
  Rng rng(4242);
  pcm::PcmConfig cfg = pcm::table2_config();
  core::TetrisOptions opts;
  const core::TetrisScheme scheme(cfg, opts);
  for (int trial = 0; trial < 300; ++trial) {
    pcm::LineImage line_image = random_line(rng, 8);
    pcm::LineBuf line = line_image.view();
    const pcm::LogicalLine next =
        random_mutation(rng, line, rng.uniform() * 0.7);
    const core::TetrisAnalysis a = scheme.analyze(line, next);
    core::verify_pack(a.read.counts, a.packer_cfg, a.pack);
    const core::FsmTrace t =
        core::execute_fsms(a.pack, a.packer_cfg, cfg.timing);
    const Tick sub = cfg.timing.t_set / a.packer_cfg.k;
    EXPECT_EQ(t.schedule_length,
              a.pack.result * cfg.timing.t_set + a.pack.subresult * sub);
    EXPECT_LE(t.peak_current, a.packer_cfg.budget);
  }
}

}  // namespace
}  // namespace tw
