// Cross-module integration tests: full-system runs via the harness,
// checking that the paper's headline orderings emerge end-to-end, plus
// the harness matrix/normalization utilities.

#include <gtest/gtest.h>

#include <sstream>

#include "tw/harness/figure.hpp"
#include "tw/harness/knobs.hpp"
#include "tw/workload/generator.hpp"

namespace tw::harness {
namespace {

SystemConfig quick_cfg(u64 instructions = 20'000) {
  SystemConfig cfg;
  cfg.instructions_per_core = instructions;
  return cfg;
}

/// quick_cfg for every workload of a matrix.
ConfigFn quick_matrix(u64 instructions) {
  return [instructions](const workload::WorkloadProfile&) {
    return quick_cfg(instructions);
  };
}

TEST(Integration, RunSystemCompletes) {
  const RunMetrics m =
      run_system(quick_cfg(), workload::profile_by_name("ferret"),
                 schemes::SchemeKind::kDcw);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.workload, "ferret");
  EXPECT_EQ(m.scheme, "dcw");
  EXPECT_GT(m.reads, 0u);
  EXPECT_GT(m.writes, 0u);
  EXPECT_GT(m.read_latency_ns, to_ns(ns(50)));
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_GT(m.runtime_ns, 0.0);
  EXPECT_GT(m.write_energy_pj, 0.0);
}

TEST(Integration, Deterministic) {
  const auto& p = workload::profile_by_name("dedup");
  const RunMetrics a =
      run_system(quick_cfg(), p, schemes::SchemeKind::kTetris);
  const RunMetrics b =
      run_system(quick_cfg(), p, schemes::SchemeKind::kTetris);
  EXPECT_EQ(harness::differing_metrics(a, b), "");
}

TEST(Integration, SeedChangesResults) {
  SystemConfig cfg = quick_cfg();
  const auto& p = workload::profile_by_name("dedup");
  const RunMetrics a = run_system(cfg, p, schemes::SchemeKind::kDcw);
  cfg.seed = 777;
  const RunMetrics b = run_system(cfg, p, schemes::SchemeKind::kDcw);
  EXPECT_NE(a.runtime_ns, b.runtime_ns);
}

TEST(Integration, TetrisBeatsBaselineOnWriteHeavyWorkload) {
  const auto& vips = workload::profile_by_name("vips");
  const RunMetrics base =
      run_system(quick_cfg(), vips, schemes::SchemeKind::kDcw);
  const RunMetrics tetris =
      run_system(quick_cfg(), vips, schemes::SchemeKind::kTetris);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(tetris.completed);
  EXPECT_LT(tetris.read_latency_ns, base.read_latency_ns);
  EXPECT_LT(tetris.write_latency_ns, base.write_latency_ns);
  EXPECT_GT(tetris.ipc, base.ipc);
  EXPECT_LT(tetris.runtime_ns, base.runtime_ns);
  EXPECT_LT(tetris.write_units, base.write_units);
}

TEST(Integration, PaperSchemeOrderingOnVips) {
  const auto& vips = workload::profile_by_name("vips");
  const SystemConfig cfg = quick_cfg(30'000);
  auto read_lat = [&](schemes::SchemeKind kind) {
    return run_system(cfg, vips, kind).read_latency_ns;
  };
  const double dcw = read_lat(schemes::SchemeKind::kDcw);
  const double fnw = read_lat(schemes::SchemeKind::kFlipNWrite);
  const double three = read_lat(schemes::SchemeKind::kThreeStage);
  const double tetris = read_lat(schemes::SchemeKind::kTetris);
  EXPECT_LT(fnw, dcw);
  EXPECT_LT(three, fnw);
  EXPECT_LT(tetris, three);
}

TEST(Integration, EnergyOrderingMatchesTableI) {
  // Table I: FNW/3-stage/Tetris reduce energy; 2-stage does not.
  const auto& dedup = workload::profile_by_name("dedup");
  const SystemConfig cfg = quick_cfg();
  auto energy_per_write = [&](schemes::SchemeKind kind) {
    const RunMetrics m = run_system(cfg, dedup, kind);
    return m.write_energy_pj / static_cast<double>(m.writes);
  };
  const double two = energy_per_write(schemes::SchemeKind::kTwoStage);
  const double fnw = energy_per_write(schemes::SchemeKind::kFlipNWrite);
  const double tetris = energy_per_write(schemes::SchemeKind::kTetris);
  EXPECT_LT(fnw, two * 0.3);     // comparison-based writes slash energy
  EXPECT_LT(tetris, two * 0.3);
}

TEST(Integration, ReadDominantWorkloadWritesWaitLong) {
  // The paper's Section V.B.3 observation: with strict drain,
  // blackscholes' writes sit in a rarely-full queue.
  const auto& bs = workload::profile_by_name("blackscholes");
  SystemConfig cfg = quick_cfg(50'000);
  const RunMetrics strict =
      run_system(cfg, bs, schemes::SchemeKind::kTetris);
  cfg.controller.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  const RunMetrics opportunistic =
      run_system(cfg, bs, schemes::SchemeKind::kTetris);
  if (strict.writes > 0 && opportunistic.writes > 0) {
    EXPECT_GT(strict.write_latency_ns, opportunistic.write_latency_ns);
  }
}

TEST(Integration, IncompleteRunFlagged) {
  SystemConfig cfg = quick_cfg(1'000'000);
  cfg.max_sim_time = us(5);  // far too short
  const RunMetrics m = run_system(
      cfg, workload::profile_by_name("vips"), schemes::SchemeKind::kDcw);
  EXPECT_FALSE(m.completed);
}

// ------------------------------------------------------------------ matrix --
TEST(Matrix, RunsAllCellsInParallel) {
  const std::vector<workload::WorkloadProfile> ws = {
      workload::profile_by_name("blackscholes"),
      workload::profile_by_name("vips")};
  const std::vector<schemes::SchemeKind> ks = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris};
  const Matrix m = run_matrix(quick_matrix(10'000), ws, ks, 4);
  ASSERT_EQ(m.cells.size(), 2u);
  ASSERT_EQ(m.cells[0].size(), 2u);
  EXPECT_EQ(m.at(0, 0).workload, "blackscholes");
  EXPECT_EQ(m.at(1, 1).scheme, "tetris");
  EXPECT_TRUE(m.at(1, 1).completed);
}

TEST(Matrix, ParallelEqualsSerial) {
  const std::vector<workload::WorkloadProfile> ws = {
      workload::profile_by_name("ferret")};
  const std::vector<schemes::SchemeKind> ks = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris};
  const Matrix par = run_matrix(quick_matrix(10'000), ws, ks, 4);
  const Matrix ser = run_matrix(quick_matrix(10'000), ws, ks, 1);
  for (std::size_t s = 0; s < ks.size(); ++s) {
    EXPECT_DOUBLE_EQ(par.at(0, s).ipc, ser.at(0, s).ipc);
    EXPECT_DOUBLE_EQ(par.at(0, s).read_latency_ns,
                     ser.at(0, s).read_latency_ns);
  }
}

TEST(Matrix, NormalizationAgainstBaseline) {
  const std::vector<workload::WorkloadProfile> ws = {
      workload::profile_by_name("vips")};
  const std::vector<schemes::SchemeKind> ks = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris};
  const Matrix m = run_matrix(quick_matrix(10'000), ws, ks, 2);
  const auto norm = normalized_values(
      m, [](const RunMetrics& r) { return r.read_latency_ns; }, 0);
  ASSERT_EQ(norm.size(), 2u);  // 1 workload + geomean row
  EXPECT_DOUBLE_EQ(norm[0][0], 1.0);
  EXPECT_LT(norm[0][1], 1.0);  // tetris beats baseline
  EXPECT_DOUBLE_EQ(norm[1][0], 1.0);  // geomean of baseline = 1
}

TEST(Matrix, CsvContainsAllCells) {
  const std::vector<workload::WorkloadProfile> ws = {
      workload::profile_by_name("swaptions")};
  const std::vector<schemes::SchemeKind> ks = {schemes::SchemeKind::kDcw};
  const Matrix m = run_matrix(quick_matrix(5'000), ws, ks, 1);
  std::ostringstream out;
  write_csv(m, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("workload,scheme"), std::string::npos);
  EXPECT_NE(s.find("swaptions,dcw"), std::string::npos);
}

TEST(Matrix, TableRendering) {
  const std::vector<workload::WorkloadProfile> ws = {
      workload::profile_by_name("canneal")};
  const std::vector<schemes::SchemeKind> ks = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris};
  const Matrix m = run_matrix(quick_matrix(5'000), ws, ks, 2);
  const AsciiTable t = normalized_table(
      m, [](const RunMetrics& r) { return r.ipc; }, 0);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("canneal"), std::string::npos);
  EXPECT_NE(s.find("geomean"), std::string::npos);
  EXPECT_NE(s.find("tetris"), std::string::npos);
}

// Every registry row of TW_RUN_METRICS names a stat some component
// registers. With every feature group on, harvesting creates nothing in
// the registry: a misnamed row would be created there and read 0.
TEST(Metrics, HarvestReadsOnlyRegisteredStats) {
  SystemConfig cfg;
  std::vector<Setting> settings;
  for (const char* flag :
       {"--dram", "--dram.capacity_mb=0.015625", "--fault.profile=heavy",
        "--palp", "--subarrays=4", "--encoder=coset",
        "--batch.max_lines=4"}) {
    ASSERT_TRUE(expand_flag(flag, settings)) << flag;
  }
  apply_settings(cfg, settings);
  cfg.cores = 2;
  cfg.instructions_per_core = 200'000;
  const auto& profile = workload::profile_by_name("vips");
  sim::Simulator sim;
  stats::Registry reg;
  const auto msys = make_memory_system(sim, cfg, schemes::SchemeKind::kTetris,
                                       reg, profile.initial_ones_fraction);
  workload::TraceGenerator gen(profile, cfg.pcm.geometry, cfg.cores,
                               cfg.seed);
  cpu::MultiCore cpus(sim, cfg.core, cfg.cores, *msys, gen,
                      cfg.instructions_per_core);
  cpus.start();
  msys->run(cfg.max_sim_time);
  ASSERT_TRUE(cpus.all_finished());

  // One channel: merging the channel registries adds nothing either.
  const std::size_t before = reg.size();
  RunMetrics m;
  harvest(*msys, cpus, reg, m);
  EXPECT_EQ(reg.size(), before);
  // Every group ran.
  EXPECT_GT(m.dram_hits, 0u);
  EXPECT_GT(m.fault_retries, 0u);
  EXPECT_GT(m.palp_write_overlaps, 0u);
  EXPECT_GT(m.enc_writes, 0u);
  EXPECT_GT(m.writes_batched, 0u);
}

}  // namespace
}  // namespace tw::harness
