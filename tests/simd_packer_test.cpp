// Differential test for the SIMD packing hot path: the AVX2 kernels and
// the SoA plan/pack pipeline built on them must be *bit-identical* to the
// portable scalar fallback and to the frozen pre-SIMD reference
// (tests/reference_packer.hpp) — same flip decisions, same counts, same
// placements, same fit_checks — on exhaustive small grids, unaligned and
// tail-length buffers, the all-zero/all-one edges, and >= 20k random
// lines through the full read+pack pipeline. AVX2 cases self-skip on
// machines without the ISA; the scalar-vs-reference half always runs.

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "reference_packer.hpp"
#include "tw/common/rng.hpp"
#include "tw/common/simd.hpp"
#include "tw/core/packer.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/pcm/line.hpp"
#include "tw/schemes/prep.hpp"

namespace tw {
namespace {

/// Restore the process-wide SIMD level after a test flips it.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::active_level()) {}
  ~LevelGuard() { simd::set_level(saved_); }

 private:
  simd::Level saved_;
};

std::vector<simd::Level> levels_under_test() {
  std::vector<simd::Level> ls{simd::Level::kScalar};
  if (simd::avx2_supported()) ls.push_back(simd::Level::kAvx2);
  return ls;
}

// ---- Kernel-level differentials ------------------------------------------

// Word generator mixing random data with the structured edges the packer
// actually sees: all-zero, all-one, and sparse single-bit words.
u64 edgy_word(Rng& rng) {
  const u64 r = rng.next();
  switch (r % 8) {
    case 0: return 0;
    case 1: return ~u64{0};
    case 2: return u64{1} << (r >> 3) % 64;
    default: return rng.next();
  }
}

TEST(SimdPacker, PopcountKernelTailsAndAlignments) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "AVX2 not supported";
  Rng rng(0x51D0ull);
  // Buffer large enough for every (offset, n) window; the offsets walk
  // the pointer off 32-byte alignment so the AVX2 loads exercise the
  // unaligned path, and n sweeps across the 4-words-per-vector tails.
  std::vector<u64> words(96);
  std::vector<u32> scalar_out(96), avx2_out(96);
  for (int round = 0; round < 50; ++round) {
    for (auto& w : words) w = edgy_word(rng);
    for (std::size_t offset = 0; offset < 5; ++offset) {
      for (std::size_t n = 0; n <= 67; ++n) {
        const u64* p = words.data() + offset;
        simd::popcount_each_scalar(p, n, scalar_out.data());
        simd::popcount_each_avx2(p, n, avx2_out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(scalar_out[i], avx2_out[i])
              << "word " << i << " of n=" << n << " offset=" << offset;
          ASSERT_EQ(scalar_out[i], static_cast<u32>(std::popcount(p[i])));
        }
      }
    }
  }
}

TEST(SimdPacker, TransitionKernelTailsAndAlignments) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "AVX2 not supported";
  Rng rng(0x7247ull);
  std::vector<u64> old_w(96), new_w(96);
  std::vector<u32> s_sets(96), s_resets(96), v_sets(96), v_resets(96);
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < old_w.size(); ++i) {
      old_w[i] = edgy_word(rng);
      // Correlate: most transitions touch few bits, like real rewrites.
      new_w[i] = rng.chance(0.3) ? edgy_word(rng)
                                 : (old_w[i] ^ (rng.next() & rng.next()));
    }
    for (std::size_t offset = 0; offset < 5; ++offset) {
      for (std::size_t n = 0; n <= 67; ++n) {
        const u64* po = old_w.data() + offset;
        const u64* pn = new_w.data() + offset;
        simd::transition_counts_scalar(po, pn, n, s_sets.data(),
                                       s_resets.data());
        simd::transition_counts_avx2(po, pn, n, v_sets.data(),
                                     v_resets.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(s_sets[i], v_sets[i]) << "sets " << i << " n=" << n;
          ASSERT_EQ(s_resets[i], v_resets[i]) << "resets " << i << " n=" << n;
          const u64 diff = po[i] ^ pn[i];
          ASSERT_EQ(s_sets[i], static_cast<u32>(std::popcount(diff & pn[i])));
          ASSERT_EQ(s_resets[i],
                    static_cast<u32>(std::popcount(diff & po[i])));
        }
      }
    }
  }
}

TEST(SimdPacker, FirstFitKernelMatchesScalar) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "AVX2 not supported";
  // Planted hits: for every array length and every hit position (and the
  // no-hit case), the AVX2 scan must return the scalar answer — including
  // a hit in the very first or last lane of a partially-filled vector.
  for (u32 n = 0; n <= 40; ++n) {
    for (u32 hit = 0; hit <= n; ++hit) {  // hit == n plants no hit
      std::vector<u32> power(n + 4, 0xFFFF'FFFFu);
      const u32 limit = 128;
      for (u32 i = 0; i < n; ++i) power[i] = (i >= hit) ? limit : limit + 1;
      const u32 s = simd::first_fit_scalar(power.data(), n, limit);
      const u32 v = simd::first_fit_avx2(power.data(), n, limit);
      ASSERT_EQ(s, v) << "n=" << n << " planted hit=" << hit;
      ASSERT_EQ(s, hit);
    }
  }
  // Random campaign over small alphabets so ties and boundary values
  // (power == limit) occur constantly.
  Rng rng(0xF1F1ull);
  for (int trial = 0; trial < 20'000; ++trial) {
    const u32 n = static_cast<u32>(rng.next() % 48);
    const u32 limit = static_cast<u32>(rng.next() % 130);
    std::vector<u32> power(std::max(n, 1u));
    for (auto& p : power) {
      const u64 r = rng.next();
      p = (r % 4 == 0) ? limit + static_cast<u32>(r % 3)
                       : static_cast<u32>(r % 160);
    }
    const u32 s = simd::first_fit_scalar(power.data(), n, limit);
    const u32 v = simd::first_fit_avx2(power.data(), n, limit);
    ASSERT_EQ(s, v) << "trial " << trial << " n=" << n << " limit=" << limit;
  }
}

TEST(SimdPacker, LevelSelectionRoundTrips) {
  LevelGuard guard;
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  simd::set_level(simd::Level::kAvx2);
  // Requests for an unsupported level must clamp, never crash.
  EXPECT_EQ(simd::active_level(), simd::avx2_supported()
                                      ? simd::Level::kAvx2
                                      : simd::Level::kScalar);
}

// ---- Pipeline-level differentials ----------------------------------------

void expect_plans_equal(const schemes::PlanVec& got,
                        const schemes::PlanVec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (u32 i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    ASSERT_EQ(g.flip, w.flip) << "unit " << i;
    ASSERT_EQ(g.new_cells, w.new_cells) << "unit " << i;
    ASSERT_EQ(g.sets, w.sets) << "unit " << i;
    ASSERT_EQ(g.resets, w.resets) << "unit " << i;
    ASSERT_EQ(g.all_ones, w.all_ones) << "unit " << i;
    ASSERT_EQ(g.all_zeros, w.all_zeros) << "unit " << i;
    ASSERT_EQ(g.tag_changed, w.tag_changed) << "unit " << i;
    ASSERT_EQ(g.tag_to_one, w.tag_to_one) << "unit " << i;
  }
}

void expect_pack_equal(const core::PackResult& got,
                       const core::PackResult& want) {
  ASSERT_EQ(got.result, want.result);
  ASSERT_EQ(got.subresult, want.subresult);
  ASSERT_EQ(got.fit_checks, want.fit_checks);
  ASSERT_EQ(got.write1_queue.size(), want.write1_queue.size());
  for (u32 i = 0; i < got.write1_queue.size(); ++i) {
    const auto& g = got.write1_queue[i];
    const auto& w = want.write1_queue[i];
    ASSERT_EQ(g.unit, w.unit) << "write1 slot " << i;
    ASSERT_EQ(g.write_unit, w.write_unit) << "write1 slot " << i;
    ASSERT_EQ(g.current, w.current) << "write1 slot " << i;
    ASSERT_EQ(g.passes, w.passes) << "write1 slot " << i;
  }
  ASSERT_EQ(got.write0_queue.size(), want.write0_queue.size());
  for (u32 i = 0; i < got.write0_queue.size(); ++i) {
    const auto& g = got.write0_queue[i];
    const auto& w = want.write0_queue[i];
    ASSERT_EQ(g.unit, w.unit) << "write0 slot " << i;
    ASSERT_EQ(g.sub_slot, w.sub_slot) << "write0 slot " << i;
    ASSERT_EQ(g.current, w.current) << "write0 slot " << i;
    ASSERT_EQ(g.passes, w.passes) << "write0 slot " << i;
  }
  ASSERT_EQ(got.slot_power.size(), want.slot_power.size());
  for (u32 i = 0; i < got.slot_power.size(); ++i) {
    ASSERT_EQ(got.slot_power[i], want.slot_power[i]) << "slot " << i;
  }
}

void fill_line(Rng& rng, pcm::LineBuf& line, pcm::LogicalLine& next) {
  for (u32 u = 0; u < line.units(); ++u) {
    line.set_cell(u, edgy_word(rng));
    line.set_flip(u, rng.chance(0.3));
    // Correlated rewrites keep the demand distribution realistic.
    next.set_word(u, rng.chance(0.3)
                         ? edgy_word(rng)
                         : (line.logical(u) ^ (rng.next() & rng.next())));
  }
}

TEST(SimdPacker, PlanLineMatchesReferenceAtEveryLevel) {
  LevelGuard guard;
  Rng rng(0x9147ull);
  const schemes::FlipCriterion crits[] = {schemes::FlipCriterion::kNone,
                                          schemes::FlipCriterion::kHamming,
                                          schemes::FlipCriterion::kMinimizeSets};
  for (const simd::Level level : levels_under_test()) {
    simd::set_level(level);
    SCOPED_TRACE(simd::level_name(level));
    for (const auto crit : crits) {
      for (const u32 bits : {64u, 33u, 7u, 1u}) {
        for (const u32 units : {1u, 5u, 8u, 32u}) {
          pcm::LineImage line_image(units);
          pcm::LineBuf line = line_image.view();
          pcm::LogicalLine next(units);
          // The all-zero and all-one edges first (both directions).
          for (const u64 w : {u64{0}, ~u64{0}}) {
            for (u32 u = 0; u < units; ++u) next.set_word(u, w);
            expect_plans_equal(
                schemes::plan_line(line, next, crit, bits),
                testref::reference_plan_line(line, next, crit, bits));
          }
          for (int trial = 0; trial < 200; ++trial) {
            fill_line(rng, line, next);
            expect_plans_equal(
                schemes::plan_line(line, next, crit, bits),
                testref::reference_plan_line(line, next, crit, bits));
          }
        }
      }
    }
  }
}

TEST(SimdPacker, PackMatchesReferenceExhaustiveSmallGrids) {
  // Every single-unit (n1, n0) pair over the full 0..64 bit-count range,
  // swept across budget boundaries, pack orders, and SIMD levels: the
  // shipped pack() must reproduce the frozen reference's placements and
  // its fit_checks accounting exactly.
  LevelGuard guard;
  const core::PackOrder orders[] = {core::PackOrder::kFirstFitDecreasing,
                                    core::PackOrder::kFirstFitArrival,
                                    core::PackOrder::kBestFitDecreasing};
  for (const simd::Level level : levels_under_test()) {
    simd::set_level(level);
    SCOPED_TRACE(simd::level_name(level));
    for (const u32 budget : {1u, 63u, 64u, 128u}) {
      for (const auto order : orders) {
        core::PackerConfig cfg;
        cfg.k = 8;
        cfg.l = 2;
        cfg.budget = budget;
        cfg.order = order;
        for (u32 n1 = 0; n1 <= 64; ++n1) {
          for (u32 n0 = 0; n0 + n1 <= 64; ++n0) {
            const core::UnitCounts counts[] = {{0, n1, n0}};
            expect_pack_equal(core::pack(counts, cfg),
                              testref::reference_pack(counts, cfg));
          }
        }
      }
    }
  }
}

TEST(SimdPacker, PackMatchesReferenceRandomCounts) {
  // Random multi-unit demand sets, including batch-sized inputs (up to 64
  // units — past the counting-sort threshold and the InlineVec inline
  // capacity) across every config axis and SIMD level.
  LevelGuard guard;
  const core::PackOrder orders[] = {core::PackOrder::kFirstFitDecreasing,
                                    core::PackOrder::kFirstFitArrival,
                                    core::PackOrder::kBestFitDecreasing};
  for (const simd::Level level : levels_under_test()) {
    simd::set_level(level);
    SCOPED_TRACE(simd::level_name(level));
    Rng rng(0xACC5ull);  // same stream per level: identical inputs
    for (int trial = 0; trial < 10'000; ++trial) {
      core::PackerConfig cfg;
      cfg.k = 1 + static_cast<u32>(rng.next() % 8);
      cfg.l = 1 + static_cast<u32>(rng.next() % 4);
      cfg.budget = 1 + static_cast<u32>(rng.next() % 160);
      cfg.order = orders[rng.next() % 3];
      cfg.forbid_self_overlap = rng.chance(0.25);
      const u32 units = 1 + static_cast<u32>(rng.next() % 64);
      std::vector<core::UnitCounts> counts;
      for (u32 u = 0; u < units; ++u) {
        u32 n1 = static_cast<u32>(rng.next() % 65);
        if (rng.chance(0.25)) n1 = rng.chance(0.5) ? 0 : 64;
        const u32 n0 = static_cast<u32>(rng.next() % (65 - n1));
        counts.push_back({u, n1, n0});
      }
      expect_pack_equal(core::pack(counts, cfg),
                        testref::reference_pack(counts, cfg));
    }
  }
}

TEST(SimdPacker, FullPipelineMatchesReferenceTwentyThousandLines) {
  // End-to-end: random line contents -> read stage (Alg. 1, SoA/SIMD) ->
  // pack (Alg. 2, vectorized scans) vs the frozen per-unit reference
  // pipeline, >= 20k lines per SIMD level at both the 64 B (8-unit) and
  // 256 B (32-unit) geometries.
  LevelGuard guard;
  core::PackerConfig cfg;
  cfg.k = 8;
  cfg.l = 2;
  cfg.budget = 128;
  for (const simd::Level level : levels_under_test()) {
    simd::set_level(level);
    SCOPED_TRACE(simd::level_name(level));
    Rng rng(0x20CAull);  // same stream per level: identical inputs
    for (const u32 units : {8u, 32u}) {
      pcm::LineImage line_image(units);
      pcm::LineBuf line = line_image.view();
      pcm::LogicalLine next(units);
      for (int trial = 0; trial < 10'000; ++trial) {
        fill_line(rng, line, next);
        const auto shipped = core::read_stage(line, next, 64);
        const auto frozen = testref::reference_read_stage(line, next, 64);
        expect_plans_equal(shipped.plans, frozen.plans);
        ASSERT_EQ(shipped.flipped_units, frozen.flipped_units);
        ASSERT_EQ(shipped.counts.size(), frozen.counts.size());
        for (u32 i = 0; i < shipped.counts.size(); ++i) {
          ASSERT_EQ(shipped.counts[i].unit, frozen.counts[i].unit);
          ASSERT_EQ(shipped.counts[i].n1, frozen.counts[i].n1);
          ASSERT_EQ(shipped.counts[i].n0, frozen.counts[i].n0);
        }
        expect_pack_equal(
            core::pack({shipped.counts.data(), shipped.counts.size()}, cfg),
            testref::reference_pack(
                {frozen.counts.data(), frozen.counts.size()}, cfg));
        // Keep the physical state evolving like a real write stream.
        core::ReadStageResult r = shipped;
        schemes::apply_plans(line, {r.plans.data(), r.plans.size()});
      }
    }
  }
}

}  // namespace
}  // namespace tw
