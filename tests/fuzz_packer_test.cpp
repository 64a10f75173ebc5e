// Fuzz layer for the Tetris packer (Algorithm 2) and its retry re-entry
// path: bounded-exhaustive sweeps over the bit-count edges (0 and 64 ones
// per unit) and the budget boundaries, plus seeded-random campaigns, all
// cross-checked by verify_pack and the bit-serial OracleScheme. Failures
// are shrunk by a minimizer that prints a copy-pasteable reproducer.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "tw/common/env.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/batch_packer.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/fsm.hpp"
#include "tw/core/packer.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/encode/encoder.hpp"
#include "tw/verify/differential.hpp"
#include "tw/verify/invariant_monitor.hpp"

namespace tw::core {
namespace {

struct FuzzCase {
  std::vector<UnitCounts> counts;
  PackerConfig cfg;
};

/// Trial count for a randomized campaign: the in-tree default times the
/// TW_FUZZ_SCALE extended-trial multiplier (nightly CI's long campaigns).
int trials(int base) { return base * static_cast<int>(fuzz_scale_env()); }

/// Campaign seed: the in-tree base plus the TW_FUZZ_SEED offset, so
/// successive nightly runs explore fresh cases.
u64 campaign_seed(u64 base) { return base + fuzz_seed_env(); }

/// Copy-pasteable reproducer for a failing case.
std::string reproducer(const FuzzCase& c) {
  std::ostringstream out;
  out << "PackerConfig{.k=" << c.cfg.k << ", .l=" << c.cfg.l
      << ", .budget=" << c.cfg.budget
      << ", .order=PackOrder(" << static_cast<int>(c.cfg.order) << ")"
      << ", .forbid_self_overlap="
      << (c.cfg.forbid_self_overlap ? "true" : "false") << "} counts={";
  for (const auto& u : c.counts) {
    out << "{" << u.unit << "," << u.n1 << "," << u.n0 << "},";
  }
  out << "}";
  return out.str();
}

/// True when pack() produces a schedule verify_pack rejects (or throws).
bool pack_is_broken(const FuzzCase& c) {
  try {
    verify_pack(c.counts, c.cfg, pack(c.counts, c.cfg));
    return false;
  } catch (const std::exception&) {
    return true;
  }
}

/// Greedy shrinking: drop whole units, then shrink individual counts,
/// as long as the failure predicate keeps holding. Returns the minimal
/// still-failing case.
FuzzCase minimize(FuzzCase c,
                  const std::function<bool(const FuzzCase&)>& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Drop whole units.
    for (std::size_t i = 0; i < c.counts.size();) {
      FuzzCase smaller = c;
      smaller.counts.erase(smaller.counts.begin() +
                           static_cast<std::ptrdiff_t>(i));
      if (fails(smaller)) {
        c = smaller;
        progress = true;
      } else {
        ++i;
      }
    }
    // Shrink counts: zero, halve, decrement — first success wins.
    for (auto& u : c.counts) {
      for (u32* field : {&u.n1, &u.n0}) {
        const u32 original = *field;
        for (const u32 candidate :
             {u32{0}, original / 2,
              original == 0 ? u32{0} : original - 1}) {
          if (candidate >= original) continue;
          *field = candidate;
          if (fails(c)) {
            progress = true;
            break;
          }
          *field = original;
        }
      }
    }
  }
  return c;
}

/// verify_pack + minimize-and-report on failure.
void check_or_minimize(const FuzzCase& c) {
  if (!pack_is_broken(c)) return;
  const FuzzCase minimal = minimize(c, pack_is_broken);
  FAIL() << "packer invariant violated; minimal reproducer: "
         << reproducer(minimal);
}

// ------------------------------------------------ bounded-exhaustive --
TEST(FuzzPacker, ExhaustiveSingleUnitAllBitCounts) {
  // Every (n1, n0) pair over the full 0..64 range — the 0 and 64 edges
  // included — against budgets at and around the interesting boundaries
  // (1 = everything over budget, 64 = one full unit, 128 = Table II).
  for (const u32 budget : {1u, 2u, 32u, 64u, 127u, 128u, 129u}) {
    for (const u32 k : {1u, 8u}) {
      for (const u32 l : {1u, 2u}) {
        FuzzCase c;
        c.cfg.k = k;
        c.cfg.l = l;
        c.cfg.budget = budget;
        for (u32 n1 = 0; n1 <= 64; ++n1) {
          for (u32 n0 = 0; n0 + n1 <= 64; ++n0) {
            c.counts = {UnitCounts{0, n1, n0}};
            check_or_minimize(c);
          }
        }
      }
    }
  }
}

TEST(FuzzPacker, ExhaustiveTwoUnitEdgeGrid) {
  // All pairs over the edge set {0, 1, 31, 32, 63, 64} for both units and
  // both phases: exercises empty units, half-budget and full-unit demand.
  const u32 edges[] = {0, 1, 31, 32, 63, 64};
  for (const u32 budget : {1u, 64u, 128u}) {
    for (const bool forbid : {false, true}) {
      FuzzCase c;
      c.cfg.k = 8;
      c.cfg.l = 2;
      c.cfg.budget = budget;
      c.cfg.forbid_self_overlap = forbid;
      for (const u32 a1 : edges) {
        for (const u32 a0 : edges) {
          if (a1 + a0 > 64) continue;
          for (const u32 b1 : edges) {
            for (const u32 b0 : edges) {
              if (b1 + b0 > 64) continue;
              c.counts = {UnitCounts{0, a1, a0}, UnitCounts{1, b1, b0}};
              check_or_minimize(c);
            }
          }
        }
      }
    }
  }
}

// ----------------------------------------------------- seeded-random --
TEST(FuzzPacker, RandomCampaignAllOrdersAndBudgets) {
  Rng rng(campaign_seed(0xF422ull));
  const PackOrder orders[] = {PackOrder::kFirstFitDecreasing,
                              PackOrder::kFirstFitArrival,
                              PackOrder::kBestFitDecreasing};
  for (int trial = 0; trial < trials(20'000); ++trial) {
    FuzzCase c;
    c.cfg.k = 1 + static_cast<u32>(rng.next() % 8);
    c.cfg.l = 1 + static_cast<u32>(rng.next() % 4);
    c.cfg.budget = 1 + static_cast<u32>(rng.next() % 160);
    c.cfg.order = orders[rng.next() % 3];
    c.cfg.forbid_self_overlap = rng.chance(0.25);
    const u32 units = 1 + static_cast<u32>(rng.next() % 8);
    for (u32 u = 0; u < units; ++u) {
      // Bias toward the 0/64 edges: a quarter of draws pin an edge.
      u32 n1 = static_cast<u32>(rng.next() % 65);
      if (rng.chance(0.25)) n1 = rng.chance(0.5) ? 0 : 64;
      const u32 n0 = static_cast<u32>(rng.next() % (65 - n1));
      c.counts.push_back(UnitCounts{u, n1, n0});
    }
    check_or_minimize(c);
  }
}

TEST(FuzzPacker, ScheduleLengthNeverBeatsDemandLowerBound) {
  // Independent of verify_pack: the packed schedule must offer at least
  // as much budget x time as the total demand requires.
  Rng rng(campaign_seed(0xBEEFull));
  for (int trial = 0; trial < trials(5'000); ++trial) {
    FuzzCase c;
    c.cfg.k = 8;
    c.cfg.l = 2;
    c.cfg.budget = 16 + static_cast<u32>(rng.next() % 128);
    u64 demand = 0;  // in SET-current x sub-slot units
    const u32 units = 1 + static_cast<u32>(rng.next() % 8);
    for (u32 u = 0; u < units; ++u) {
      const u32 n1 = static_cast<u32>(rng.next() % 65);
      const u32 n0 = static_cast<u32>(rng.next() % (65 - n1));
      c.counts.push_back(UnitCounts{u, n1, n0});
      demand += u64{n1} * c.cfg.k + u64{n0} * c.cfg.l;
    }
    const PackResult r = pack(c.counts, c.cfg);
    const u64 offered = u64{r.total_sub_slots(c.cfg.k)} * c.cfg.budget;
    EXPECT_GE(offered, demand) << reproducer(c);
  }
}

// ------------------------------------------------- oracle cross-check --
TEST(FuzzPacker, RandomWritesMatchBitSerialOracle) {
  // The packer feeds the Tetris write path; every observable of the full
  // write (post-image, pulse counts, latency envelope, energy floor) must
  // match the bit-serial oracle. Also sweeps the other paper schemes so a
  // packer regression can't hide behind a scheme-specific bug.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  for (const auto kind :
       {schemes::SchemeKind::kTetris, schemes::SchemeKind::kDcw,
        schemes::SchemeKind::kFlipNWrite, schemes::SchemeKind::kTwoStage,
        schemes::SchemeKind::kThreeStage}) {
    SCOPED_TRACE(schemes::scheme_name(kind));
    const auto scheme = make_scheme(kind, dev);
    verify::DifferentialChecker checker(*scheme);
    pcm::LineImage line_image(units);
    pcm::LineBuf line = line_image.view();
    Rng rng(campaign_seed(0x0DDCAFEull));

    // Edge contents first: silent write, all-SET, all-RESET, alternating.
    const u64 edge_words[] = {0x0ull, ~0x0ull, 0xAAAA'AAAA'AAAA'AAAAull,
                              0x5555'5555'5555'5555ull};
    for (const u64 w : edge_words) {
      pcm::LogicalLine next(units);
      for (u32 u = 0; u < units; ++u) next.set_word(u, w);
      checker.check_write(line, next);
      checker.check_write(line, next);  // second write is silent
    }
    // Then a random campaign with edge-biased unit words.
    for (int trial = 0; trial < trials(400); ++trial) {
      pcm::LogicalLine next(units);
      for (u32 u = 0; u < units; ++u) {
        u64 w = rng.next();
        if (rng.chance(0.2)) w = rng.chance(0.5) ? 0x0ull : ~0x0ull;
        next.set_word(u, w);
      }
      checker.check_write(line, next);
    }
    EXPECT_GT(checker.report().writes, 400u);
    // Only read-before-write schemes can classify a rewrite as silent.
    if (scheme->semantics().pulses == schemes::PulsePolicy::kChangedCells) {
      EXPECT_GT(checker.report().silent_writes, 0u);
    }
  }
}

// ------------------------------------------------------ retry re-entry --
TEST(FuzzPacker, RetryReentryIsDeterministicAndBounded) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const auto tetris = make_scheme(schemes::SchemeKind::kTetris, dev);
  const auto dcw = make_scheme(schemes::SchemeKind::kDcw, dev);
  Rng rng(campaign_seed(0x4E74ull));
  for (int trial = 0; trial < trials(2'000); ++trial) {
    BitTransitions failed;
    failed.sets = static_cast<u32>(rng.next() % 513);
    failed.resets = static_cast<u32>(rng.next() % 513);
    if (rng.chance(0.2)) failed.sets = rng.chance(0.5) ? 0 : 512;
    if (failed.total() == 0) failed.resets = 1;
    const u32 attempt = 1 + static_cast<u32>(rng.next() % 4);

    const Tick t = tetris->plan_retry(failed, attempt, 2.0);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(t, tetris->plan_retry(failed, attempt, 2.0));  // pure
    // Exponential widening: attempt+1 at the same widen costs more.
    EXPECT_GT(tetris->plan_retry(failed, attempt + 1, 2.0), t);
    // widen=1.0 degenerates to the unwidened repack, which any widened
    // attempt must dominate.
    EXPECT_GE(t, tetris->plan_retry(failed, attempt, 1.0));
    // The baseline serial pricing obeys the same monotonicity.
    EXPECT_GE(dcw->plan_retry(failed, attempt + 1, 2.0),
              dcw->plan_retry(failed, attempt, 2.0));
  }
}

TEST(FuzzPacker, RetrySpreadRepacksUnderBudget) {
  // The Tetris retry path spreads failed bits over the line's units and
  // re-enters the packer: emulate the same round-robin spread here and
  // assert the packed schedule passes verify_pack at every failed-bit
  // count, including the 0/64-per-unit edges.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  PackerConfig cfg;
  cfg.k = dev.k();
  cfg.l = dev.l();
  cfg.budget = dev.bank_power_budget();
  for (u32 sets = 0; sets <= units * 64; sets += 7) {
    for (const u32 resets : {0u, 1u, 64u, units * 64}) {
      std::vector<u32> n1(units, 0), n0(units, 0);
      for (u32 i = 0; i < sets; ++i) ++n1[i % units];
      for (u32 i = 0; i < resets; ++i) ++n0[i % units];
      FuzzCase c;
      c.cfg = cfg;
      for (u32 u = 0; u < units; ++u) {
        if (n1[u] + n0[u] > 0) c.counts.push_back(UnitCounts{u, n1[u], n0[u]});
      }
      check_or_minimize(c);
    }
  }
}

// ------------------------------------------------- multi-line batches --
// Fuzz layer for the BatchPacker joint schedules: K same-bank lines enter
// one pack under the bank budget, re-checked end to end by verify_pack,
// the InvariantMonitor's schedule/trace recomputation, and the executed
// FSM model. Failures shrink through a multi-line minimizer (drop lines,
// silence units) that prints a copy-pasteable reproducer.

struct MultiLineCase {
  u32 budget = 128;
  std::vector<pcm::LineImage> lines;
  std::vector<pcm::LogicalLine> datas;
};

std::string multi_reproducer(const MultiLineCase& c) {
  std::ostringstream out;
  out << std::hex << "budget=" << std::dec << c.budget << " lines={";
  for (std::size_t i = 0; i < c.lines.size(); ++i) {
    out << "{cells:" << std::hex;
    const pcm::LineBuf line = c.lines[i].view();
    for (u32 u = 0; u < line.units(); ++u) {
      out << (u ? "," : "") << line.cell(u) << (line.flip(u) ? "F" : "");
    }
    out << " next:";
    for (u32 u = 0; u < c.datas[i].units(); ++u) {
      out << (u ? "," : "") << c.datas[i].word(u);
    }
    out << std::dec << "},";
  }
  out << "}";
  return out.str();
}

/// Joint-pack a case and re-check every invariant: verify_pack, the
/// monitor's independent schedule + trace recomputation, the executed-FSM
/// power model, the age-ordered unit renumbering, and per-line image
/// correctness. True when anything fails (the minimizer's predicate).
bool multi_line_broken(MultiLineCase c) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  PackerConfig pcfg;
  pcfg.k = dev.k();
  pcfg.l = dev.l();
  pcfg.budget = c.budget;
  try {
    std::vector<pcm::LineBuf> views;
    for (const auto& l : c.lines) views.push_back(l.view());
    std::vector<pcm::LineBuf*> ptrs;
    for (auto& v : views) ptrs.push_back(&v);
    const BatchPacker bp(dev, BatchPackerOptions{});
    const BatchPackOutcome out = bp.pack_lines(
        {ptrs.data(), ptrs.size()}, {c.datas.data(), c.datas.size()}, pcfg);

    verify_pack(out.counts, pcfg, out.pack);
    verify::InvariantMonitor monitor(pcfg, dev.timing);
    monitor.check_schedule(out.counts, out.pack, pcfg);
    const FsmTrace trace = execute_fsms(out.pack, pcfg, dev.timing);
    monitor.check_trace(trace, out.pack);
    if (trace.peak_current > pcfg.budget) return true;

    // Age-ordered renumbering: line i's unit u is global unit i*units+u,
    // concatenated in the controller's input (age) order without gaps.
    if (out.lines != c.lines.size()) return true;
    if (out.reads.size() != c.lines.size()) return true;
    if (out.counts.size() != c.lines.size() * units) return true;
    for (std::size_t g = 0; g < out.counts.size(); ++g) {
      if (out.counts[g].unit != g) return true;
    }
    // Per-line image correctness: each line's plans, applied, must decode
    // back to exactly the data the batch was asked to store.
    for (std::size_t i = 0; i < c.lines.size(); ++i) {
      pcm::LineImage post_image = c.lines[i];
      pcm::LineBuf post = post_image.view();
      schemes::apply_plans(
          post, {out.reads[i].plans.data(), out.reads[i].plans.size()});
      if (!(pcm::LogicalLine::from_physical(post) == c.datas[i])) return true;
    }
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

/// Greedy multi-line shrinking: drop whole lines, then silence individual
/// units (next := current logical value, zero demand), as long as the
/// failure predicate keeps holding.
MultiLineCase minimize_multi(
    MultiLineCase c, const std::function<bool(const MultiLineCase&)>& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; c.lines.size() > 1 && i < c.lines.size();) {
      MultiLineCase smaller = c;
      smaller.lines.erase(smaller.lines.begin() +
                          static_cast<std::ptrdiff_t>(i));
      smaller.datas.erase(smaller.datas.begin() +
                          static_cast<std::ptrdiff_t>(i));
      if (fails(smaller)) {
        c = std::move(smaller);
        progress = true;
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < c.lines.size(); ++i) {
      for (u32 u = 0; u < c.datas[i].units(); ++u) {
        // Read through a fresh view: accepting a case replaces c.lines.
        const u64 stored = c.lines[i].view().logical(u);
        if (c.datas[i].word(u) == stored) continue;
        MultiLineCase quieter = c;
        quieter.datas[i].set_word(u, stored);
        if (fails(quieter)) {
          c = std::move(quieter);
          progress = true;
        }
      }
    }
  }
  return c;
}

void check_or_minimize_multi(const MultiLineCase& c) {
  if (!multi_line_broken(c)) return;
  const MultiLineCase minimal = minimize_multi(c, multi_line_broken);
  FAIL() << "multi-line batch invariant violated; minimal reproducer: "
         << multi_reproducer(minimal);
}

MultiLineCase random_multi_case(Rng& rng, u32 max_lines, u32 budget) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  MultiLineCase c;
  c.budget = budget;
  const u32 k = 1 + static_cast<u32>(rng.next() % max_lines);
  for (u32 i = 0; i < k; ++i) {
    pcm::LineImage line_image(units);
    pcm::LineBuf line = line_image.view();
    pcm::LogicalLine next(units);
    for (u32 u = 0; u < units; ++u) {
      u64 cells = rng.next();
      if (rng.chance(0.2)) cells = rng.chance(0.5) ? 0x0ull : ~0x0ull;
      line.set_cell(u, cells);
      line.set_flip(u, rng.chance(0.3));
      // Mix full rewrites, sparse deltas, and silent units.
      u64 w = rng.next();
      if (rng.chance(0.3)) w = line.logical(u) ^ (rng.next() & rng.next());
      if (rng.chance(0.1)) w = line.logical(u);
      next.set_word(u, w);
    }
    c.lines.push_back(line_image);
    c.datas.push_back(next);
  }
  return c;
}

TEST(FuzzPacker, MultiLineJointPackCampaign) {
  // Random K-line batches (K up to 8, the ablation's largest setting)
  // against the Table II budget and squeezed budgets that force shared,
  // multi-pass, and overflow write units in one joint schedule.
  Rng rng(campaign_seed(0xBA7Cull));
  for (const u32 budget : {128u, 64u, 32u}) {
    for (int trial = 0; trial < trials(500); ++trial) {
      check_or_minimize_multi(random_multi_case(rng, 8, budget));
    }
  }
}

TEST(FuzzPacker, MultiLineDegenerateSingleLineMatchesPack) {
  // A one-line "batch" is plain Algorithm 2: the joint schedule must be
  // bit-identical to pack() over that line's own read-stage counts.
  const pcm::PcmConfig dev = pcm::table2_config();
  PackerConfig pcfg;
  pcfg.k = dev.k();
  pcfg.l = dev.l();
  pcfg.budget = dev.bank_power_budget();
  const BatchPacker bp(dev, BatchPackerOptions{});
  Rng rng(campaign_seed(0x1A7Cull));
  for (int trial = 0; trial < trials(2'000); ++trial) {
    MultiLineCase c = random_multi_case(rng, 1, pcfg.budget);
    pcm::LineBuf line = c.lines[0].view();
    pcm::LineBuf* ptrs[] = {&line};
    const BatchPackOutcome out =
        bp.pack_lines({ptrs, 1}, {c.datas.data(), 1}, pcfg);
    const CountsVec counts = bp.line_counts(line, out.reads[0], 0);
    const PackResult solo = pack({counts.data(), counts.size()}, pcfg);
    EXPECT_EQ(out.pack.result, solo.result);
    EXPECT_EQ(out.pack.subresult, solo.subresult);
    EXPECT_EQ(out.pack.fit_checks, solo.fit_checks);
    ASSERT_EQ(out.pack.write1_queue.size(), solo.write1_queue.size());
    ASSERT_EQ(out.pack.write0_queue.size(), solo.write0_queue.size());
  }
}

TEST(FuzzPacker, MultiLineMinimizerShrinksToMinimalCase) {
  // Self-test on a synthetic predicate: "fails" iff at least two lines
  // are present and some line still demands a write in unit 0. The
  // minimizer must drop every extra line and silence every other unit.
  const auto fails = [](const MultiLineCase& c) {
    if (c.lines.size() < 2) return false;
    for (std::size_t i = 0; i < c.lines.size(); ++i) {
      if (c.datas[i].word(0) != c.lines[i].view().logical(0)) return true;
    }
    return false;
  };
  Rng rng(0x313Bull);
  MultiLineCase big = random_multi_case(rng, 6, 128);
  while (big.lines.size() < 2 || !fails(big)) {
    big = random_multi_case(rng, 6, 128);
  }
  const MultiLineCase minimal = minimize_multi(big, fails);
  ASSERT_TRUE(fails(minimal));
  ASSERT_EQ(minimal.lines.size(), 2u);
  u32 loud_units = 0;
  for (std::size_t i = 0; i < minimal.lines.size(); ++i) {
    const pcm::LineBuf line = minimal.lines[i].view();
    for (u32 u = 0; u < line.units(); ++u) {
      if (minimal.datas[i].word(u) != line.logical(u)) {
        ++loud_units;
        EXPECT_EQ(u, 0u);  // only the trigger unit survives
      }
    }
  }
  EXPECT_EQ(loud_units, 1u);
}

// ------------------------------------------- encoder-composed campaigns --
// Fuzz layer for the content-encoder pre-stage (tw/encode/): random
// encoder x scheme x data class, starting from arbitrary line states
// (cells, flip tags, encoder metadata). Each case is cross-checked three
// ways — end-to-end logical round trip through the decorator, the
// bit-serial oracle over the independently re-derived coded stream, and
// cell-exact agreement between the two paths — and failures shrink
// through a greedy minimizer that prints a copy-pasteable reproducer.

struct EncCase {
  schemes::SchemeKind skind = schemes::SchemeKind::kDcw;
  encode::EncoderKind ekind = encode::EncoderKind::kFlip;
  pcm::LineImage line{pcm::table2_config().geometry.units_per_line()};
  pcm::LogicalLine next{pcm::table2_config().geometry.units_per_line()};
};

std::string enc_reproducer(const EncCase& c) {
  std::ostringstream out;
  out << "scheme=" << schemes::scheme_name(c.skind)
      << " encoder=" << encode::encoder_name(c.ekind) << std::hex
      << " cells={";
  const pcm::LineBuf line = c.line.view();
  for (u32 u = 0; u < line.units(); ++u) {
    out << (u ? "," : "") << line.cell(u) << (line.flip(u) ? "F" : "")
        << "/m" << static_cast<int>(line.meta(u));
  }
  out << "} next={";
  for (u32 u = 0; u < c.next.units(); ++u) {
    out << (u ? "," : "") << c.next.word(u);
  }
  out << "}";
  return out.str();
}

/// True when any encoder invariant breaks for this case: the decorator's
/// stored image fails to decode back, the oracle rejects the coded
/// stream, or the decorated line diverges from the shadow line driven
/// through the bare scheme on the same codes.
bool enc_broken(const EncCase& c) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 bits = dev.geometry.data_unit_bits;
  try {
    const auto wrapped =
        encode::wrap_scheme(make_scheme(c.skind, dev), c.ekind);
    const auto inner = make_scheme(c.skind, dev);
    const auto enc = encode::make_encoder(c.ekind, dev);
    pcm::LineImage line_image = c.line, shadow_image = c.line;
    pcm::LineBuf line = line_image.view(), shadow = shadow_image.view();

    wrapped->plan_write(line, c.next);
    if (!(wrapped->decode_stored(line) == c.next)) return true;

    verify::DifferentialChecker checker(*inner);
    pcm::LogicalLine coded(c.next.units());
    std::vector<u8> metas(c.next.units());
    for (u32 u = 0; u < c.next.units(); ++u) {
      metas[u] = enc->choose(c.next.word(u), shadow.logical(u),
                             shadow.meta(u), bits);
      coded.set_word(
          u, enc->apply(c.next.word(u), metas[u], shadow.logical(u), bits));
    }
    checker.check_write(shadow, coded);
    for (u32 u = 0; u < c.next.units(); ++u) {
      if (line.cell(u) != shadow.cell(u)) return true;
      if (line.flip(u) != shadow.flip(u)) return true;
      if (line.meta(u) != metas[u]) return true;
    }
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

/// Greedy shrinking: silence units (next := the unit's decoded value),
/// then flatten line state (zero cells, clear flips, zero metas), as long
/// as the failure predicate keeps holding.
EncCase minimize_enc(EncCase c,
                     const std::function<bool(const EncCase&)>& fails) {
  const pcm::PcmConfig dev = pcm::table2_config();
  bool progress = true;
  while (progress) {
    progress = false;
    const auto wrapped =
        encode::wrap_scheme(make_scheme(c.skind, dev), c.ekind);
    const pcm::LineBuf line = c.line.view();
    const pcm::LogicalLine decoded = wrapped->decode_stored(line);
    for (u32 u = 0; u < line.units(); ++u) {
      if (c.next.word(u) != decoded.word(u)) {
        EncCase quieter = c;
        quieter.next.set_word(u, decoded.word(u));
        if (fails(quieter)) {
          c = std::move(quieter);
          progress = true;
          continue;
        }
      }
      EncCase flat = c;
      pcm::LineBuf flat_line = flat.line.view();
      flat_line.set_cell(u, 0);
      flat_line.set_flip(u, false);
      flat_line.set_meta(u, 0);
      const bool changed =
          line.cell(u) != 0 || line.flip(u) || line.meta(u) != 0;
      if (changed && fails(flat)) {
        c = std::move(flat);
        progress = true;
      }
    }
  }
  return c;
}

void check_or_minimize_enc(const EncCase& c) {
  if (!enc_broken(c)) return;
  const EncCase minimal = minimize_enc(c, enc_broken);
  FAIL() << "encoder invariant violated; minimal reproducer: "
         << enc_reproducer(minimal);
}

EncCase random_enc_case(Rng& rng) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  const u32 bits = dev.geometry.data_unit_bits;
  constexpr schemes::SchemeKind kSchemes[] = {
      schemes::SchemeKind::kDcw,      schemes::SchemeKind::kFlipNWrite,
      schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
      schemes::SchemeKind::kTetris};
  constexpr encode::EncoderKind kEncoders[] = {encode::EncoderKind::kFlip,
                                               encode::EncoderKind::kWire,
                                               encode::EncoderKind::kCoset};
  EncCase c;
  c.skind = kSchemes[rng.next() % 5];
  c.ekind = kEncoders[rng.next() % 3];
  const auto enc = encode::make_encoder(c.ekind, dev);
  const u64 mmask = low_mask(enc->meta_bits());
  pcm::LineBuf line = c.line.view();
  for (u32 u = 0; u < units; ++u) {
    u64 cells = rng.next();
    if (rng.chance(0.2)) cells = rng.chance(0.5) ? 0x0ull : ~0x0ull;
    line.set_cell(u, cells & low_mask(bits));
    line.set_flip(u, rng.chance(0.3));
    line.set_meta(u, static_cast<u8>(rng.next() & mmask));
  }
  // Data classes: all-zero, all-one, random, compressible narrow value,
  // adversarial half-flip of the current stored logical word.
  const u32 cls = static_cast<u32>(rng.next() % 5);
  for (u32 u = 0; u < units; ++u) {
    u64 w = 0;
    switch (cls) {
      case 0:
        break;
      case 1:
        w = low_mask(bits);
        break;
      case 2:
        w = rng.next() & low_mask(bits);
        break;
      case 3: {
        const u64 lo = rng.next() & low_mask(bits / 2);
        w = rng.chance(0.5) ? lo : (lo | (low_mask(bits) ^ low_mask(bits / 2)));
        break;
      }
      default: {
        u64 flips = 0;
        while (popcount(flips) < bits / 2) {
          flips |= u64{1} << (rng.next() % bits);
        }
        w = (line.logical(u) ^ flips) & low_mask(bits);
        break;
      }
    }
    c.next.set_word(u, w);
  }
  return c;
}

TEST(EncodeFuzz, RandomEncoderSchemeDataClassCampaign) {
  Rng rng(campaign_seed(0xE6C0ull));
  for (int trial = 0; trial < trials(1'500); ++trial) {
    check_or_minimize_enc(random_enc_case(rng));
  }
}

TEST(EncodeFuzz, EncodedBatchCampaignMatchesSoloPlans) {
  // Random K-line batches through the decorator must land every line in
  // exactly the state line-at-a-time planning produces, and every line
  // must decode back to its requested data. Failures shrink by dropping
  // lines before reporting.
  const pcm::PcmConfig dev = pcm::table2_config();
  Rng rng(campaign_seed(0xEBA7ull));
  const auto broken = [&dev](const std::vector<EncCase>& cases) -> bool {
    if (cases.empty()) return false;
    try {
      const auto wrapped =
          encode::wrap_scheme(make_scheme(cases[0].skind, dev),
                              cases[0].ekind);
      std::vector<pcm::LineImage> batch_lines, solo_lines;
      std::vector<pcm::LogicalLine> datas;
      for (const EncCase& c : cases) {
        batch_lines.push_back(c.line);
        solo_lines.push_back(c.line);
        datas.push_back(c.next);
      }
      std::vector<pcm::LineBuf> views;
      for (const auto& l : batch_lines) views.push_back(l.view());
      std::vector<pcm::LineBuf*> ptrs;
      for (auto& v : views) ptrs.push_back(&v);
      const schemes::BatchServicePlan bp = wrapped->plan_write_batch(
          {ptrs.data(), ptrs.size()}, {datas.data(), datas.size()});
      if (bp.per_line.size() != cases.size()) return true;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        pcm::LineBuf solo = solo_lines[i].view();
        const schemes::ServicePlan sp = wrapped->plan_write(solo, datas[i]);
        if (!(batch_lines[i] == solo_lines[i])) return true;
        if (!(bp.per_line[i].programmed == sp.programmed)) return true;
        if (bp.per_line[i].enc.tag_bits != sp.enc.tag_bits) return true;
        if (!(wrapped->decode_stored(views[i]) == datas[i])) {
          return true;
        }
      }
    } catch (const std::exception&) {
      return true;
    }
    return false;
  };
  for (int trial = 0; trial < trials(150); ++trial) {
    std::vector<EncCase> cases;
    const std::size_t k = 1 + rng.next() % 6;
    EncCase first = random_enc_case(rng);
    cases.push_back(first);
    for (std::size_t i = 1; i < k; ++i) {
      EncCase c = random_enc_case(rng);
      c.skind = first.skind;  // one scheme + encoder per bank
      c.ekind = first.ekind;
      cases.push_back(c);
    }
    if (!broken(cases)) continue;
    // Shrink: drop whole lines while the batch still diverges.
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; cases.size() > 1 && i < cases.size();) {
        std::vector<EncCase> smaller = cases;
        smaller.erase(smaller.begin() + static_cast<std::ptrdiff_t>(i));
        if (broken(smaller)) {
          cases = std::move(smaller);
          progress = true;
        } else {
          ++i;
        }
      }
    }
    std::ostringstream out;
    for (const EncCase& c : cases) out << enc_reproducer(c) << " | ";
    FAIL() << "encoded batch diverged from solo plans; minimal batch: "
           << out.str();
  }
}

// ----------------------------------------------------------- minimizer --
TEST(FuzzPacker, MinimizerShrinksToMinimalCase) {
  // Self-test on a synthetic predicate: "fails" iff some unit has n1 >= 7
  // while at least two units are present. The minimizer must strip every
  // irrelevant unit and shrink the trigger to exactly the boundary.
  const auto fails = [](const FuzzCase& c) {
    if (c.counts.size() < 2) return false;
    for (const auto& u : c.counts) {
      if (u.n1 >= 7) return true;
    }
    return false;
  };
  FuzzCase big;
  big.cfg.budget = 128;
  big.counts = {UnitCounts{0, 40, 12}, UnitCounts{1, 3, 60},
                UnitCounts{2, 9, 9}, UnitCounts{3, 0, 0}};
  ASSERT_TRUE(fails(big));
  const FuzzCase minimal = minimize(big, fails);
  ASSERT_TRUE(fails(minimal));
  ASSERT_EQ(minimal.counts.size(), 2u);
  u32 triggers = 0;
  for (const auto& u : minimal.counts) {
    if (u.n1 >= 7) {
      ++triggers;
      EXPECT_EQ(u.n1, 7u);  // shrunk to the exact boundary
    } else {
      EXPECT_EQ(u.n1, 0u);  // fully shrunk
    }
    EXPECT_EQ(u.n0, 0u);
  }
  EXPECT_EQ(triggers, 1u);
  // And the reproducer mentions the surviving trigger.
  EXPECT_NE(reproducer(minimal).find(",7,"), std::string::npos);
}

}  // namespace
}  // namespace tw::core
