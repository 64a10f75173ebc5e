// Feature-interaction tests: the controller's optional mechanisms
// (write pausing, Start-Gap wear leveling, write batching, subarrays,
// drain policies) must compose without deadlock, loss, or
// non-determinism — individually each has its own tests; these stress the
// cross-products on full-system runs.

#include <gtest/gtest.h>

#include "tw/core/factory.hpp"
#include "tw/harness/experiment.hpp"

namespace tw {
namespace {

harness::SystemConfig everything_on() {
  harness::SystemConfig cfg;
  cfg.instructions_per_core = 10'000;
  cfg.controller.write_pausing = true;
  cfg.controller.wear_leveling = true;
  cfg.controller.start_gap.region_lines = 4096;
  cfg.controller.start_gap.gap_write_interval = 32;
  cfg.controller.write_batch = 4;
  cfg.pcm.geometry.subarrays_per_bank = 2;
  return cfg;
}

class AllFeatures : public ::testing::TestWithParam<const char*> {};

TEST_P(AllFeatures, RunsToCompletionOnEveryWorkload) {
  const auto& p = workload::profile_by_name(GetParam());
  const harness::RunMetrics m =
      harness::run_system(everything_on(), p, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed) << p.name;
  EXPECT_GT(m.retired, 0u);
  if (m.writes > 20) {
    EXPECT_GT(m.write_units, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllFeatures,
    ::testing::Values("blackscholes", "bodytrack", "canneal", "dedup",
                      "ferret", "freqmine", "swaptions", "vips"));

TEST(Combo, AllFeaturesDeterministic) {
  const auto& p = workload::profile_by_name("vips");
  const auto a =
      harness::run_system(everything_on(), p, schemes::SchemeKind::kTetris);
  const auto b =
      harness::run_system(everything_on(), p, schemes::SchemeKind::kTetris);
  EXPECT_EQ(harness::differing_metrics(a, b), "");
}

TEST(Combo, AllFeaturesWorkWithEveryScheme) {
  const auto& p = workload::profile_by_name("ferret");
  harness::SystemConfig cfg = everything_on();
  cfg.instructions_per_core = 6'000;
  for (const auto kind : core::all_scheme_kinds()) {
    const harness::RunMetrics m = harness::run_system(cfg, p, kind);
    EXPECT_TRUE(m.completed) << schemes::scheme_name(kind);
  }
}

TEST(Combo, PausingPlusWearLevelingKeepsDataConsistent) {
  sim::Simulator sim;
  stats::Registry reg;
  const pcm::PcmConfig pcfg = pcm::table2_config();
  const auto scheme = core::make_scheme(schemes::SchemeKind::kDcw, pcfg);
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.write_pausing = true;
  ccfg.wear_leveling = true;
  ccfg.start_gap.region_lines = 64;
  ccfg.start_gap.gap_write_interval = 2;
  mem::Controller ctl(sim, pcfg, ccfg, *scheme, reg);

  Rng rng(3);
  std::vector<u64> last_written(32, 0);
  for (int round = 0; round < 8; ++round) {
    for (u32 l = 0; l < 32; ++l) {
      mem::MemoryRequest w;
      w.addr = l * 64;
      w.type = mem::ReqType::kWrite;
      pcm::LogicalLine d(8);
      const u64 v = rng.next();
      for (u32 i = 0; i < 8; ++i) d.set_word(i, v + i);
      w.data = d;
      last_written[l] = v;
      ASSERT_TRUE(ctl.enqueue(std::move(w)));
      // Interleave reads to trigger pauses during migrations.
      mem::MemoryRequest r;
      r.addr = ((l + 7) % 32) * 64;
      r.type = mem::ReqType::kRead;
      ctl.enqueue(std::move(r));
      sim.run();
    }
  }
  ASSERT_TRUE(ctl.idle());
  EXPECT_GT(ctl.gap_moves(), 50u);
  for (u32 l = 0; l < 32; ++l) {
    const Addr phys = ctl.physical_of(l * 64);
    EXPECT_EQ(ctl.store().read_logical(phys).word(0), last_written[l])
        << "line " << l;
  }
}

TEST(Combo, BatchingRespectsStrictDrain) {
  // Write-heavy enough that the 32-entry queue actually fills (strict
  // drains never trigger otherwise).
  const auto& p = workload::profile_by_name("vips");
  harness::SystemConfig cfg;
  cfg.instructions_per_core = 30'000;
  cfg.controller.write_batch = 4;
  cfg.controller.drain = mem::ControllerConfig::DrainPolicy::kStrict;
  const harness::RunMetrics m =
      harness::run_system(cfg, p, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed);
  // Strict drains release bursts of same-bank writes: batches must form.
  EXPECT_GT(m.writes_batched, 0u);
}

TEST(Combo, GeometryStressAcrossFullSystem) {
  // Odd-but-valid geometries through the whole pipeline.
  const auto& p = workload::profile_by_name("ferret");
  struct Geo {
    u32 banks;
    u32 subarrays;
    u32 line_bytes;
  };
  for (const Geo g : {Geo{2, 8, 64}, Geo{16, 1, 128}, Geo{4, 4, 256}}) {
    harness::SystemConfig cfg;
    cfg.instructions_per_core = 6'000;
    cfg.pcm.geometry.banks = g.banks;
    cfg.pcm.geometry.subarrays_per_bank = g.subarrays;
    cfg.pcm.geometry.cache_line_bytes = g.line_bytes;
    const harness::RunMetrics m =
        harness::run_system(cfg, p, schemes::SchemeKind::kTetris);
    EXPECT_TRUE(m.completed)
        << g.banks << "/" << g.subarrays << "/" << g.line_bytes;
  }
}

TEST(Combo, SubarraysPlusPausingStack) {
  // Both mechanisms reduce read latency; together they must not be worse
  // than either alone on the write-bound workload.
  const auto& p = workload::profile_by_name("vips");
  harness::SystemConfig base;
  base.instructions_per_core = 12'000;
  auto run = [&](bool pausing, u32 subarrays) {
    harness::SystemConfig cfg = base;
    cfg.controller.write_pausing = pausing;
    cfg.pcm.geometry.subarrays_per_bank = subarrays;
    return harness::run_system(cfg, p, schemes::SchemeKind::kDcw)
        .read_latency_ns;
  };
  const double none = run(false, 1);
  const double both = run(true, 4);
  EXPECT_LT(both, none * 0.6);
}

}  // namespace
}  // namespace tw
