// tw_sweep (bench/sweep.hpp): a sweep cell is the library's own run, a
// --plan cell is Figure 10's write stream, bad axis values exit 2 naming
// the value, gates evaluate on known cells, and cut-off runs are named.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sweep.hpp"

namespace tw {
namespace {

// fn(argc, argv) for the command line "tw_sweep ARGS...".
template <class Fn>
auto with_argv(std::vector<std::string> args, Fn fn) {
  args.insert(args.begin(), "tw_sweep");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return fn(static_cast<int>(argv.size()), argv.data());
}

bench::Sweep parse(std::vector<std::string> args) {
  return with_argv(std::move(args), bench::parse_sweep);
}

TEST(Sweep, CellEqualsRunSystemBitForBit) {
  const bench::Sweep s =
      parse({"--quick", "--vary=workload=canneal,vips", "--vary=pcm.banks=4",
             "--vary=scheme=dcw,tetris", "--metric=ipc"});
  ASSERT_EQ(s.cells.size(), 4u);
  for (const bench::Cell& c : s.cells) {
    const auto& p = workload::profile_by_name(s.axes[0].values[c.at[0]]);
    harness::SystemConfig cfg;
    cfg.instructions_per_core = bench::instructions_for(p, s.opts);
    cfg.seed = 42;
    cfg.pcm.geometry.banks = 4;
    const auto kind = c.at[2] == 0 ? schemes::SchemeKind::kDcw
                                   : schemes::SchemeKind::kTetris;
    EXPECT_EQ(harness::config_hash(c.cfg), harness::config_hash(cfg));
    EXPECT_EQ(harness::differing_metrics(bench::run_cell(s, c),
                                         harness::run_system(cfg, p, kind)),
              "");
  }
}

TEST(Sweep, CellsDifferingOnlyInIgnoredFieldsShareOneRun) {
  // Cells: (off, 1 MB), (off, 32 MB), (on, 1 MB), (on, 32 MB). The
  // capacity is ignored while the tier is off, so those two are one run.
  const bench::Sweep s =
      parse({"--quick", "--vary=dram.enabled=false,true",
             "--vary=dram.capacity_mb=1,32", "--metric=writes"});
  ASSERT_EQ(s.cells.size(), 4u);
  EXPECT_EQ(bench::run_key(s.cells[0]), bench::run_key(s.cells[1]));
  EXPECT_EQ(harness::differing_metrics(bench::run_cell(s, s.cells[0]),
                                       bench::run_cell(s, s.cells[1])),
            "");
  EXPECT_NE(bench::run_key(s.cells[0]), bench::run_key(s.cells[2]));
  EXPECT_NE(bench::run_key(s.cells[2]), bench::run_key(s.cells[3]));

  // The scheme and the profile edits are part of the key.
  const bench::Sweep w =
      parse({"--quick", "--vary=workload.burstiness=0,0.5",
             "--vary=workload.content=mutate,zipf", "--vary=scheme=dcw,tetris",
             "--metric=writes"});
  std::set<std::string> keys;
  for (const bench::Cell& c : w.cells) keys.insert(bench::run_key(c));
  EXPECT_EQ(keys.size(), w.cells.size());
}

// The row of results/fig10.txt (fig10_write_units at its full 5000 writes
// per workload, seed 42) for workload `w`: one value per paper scheme.
std::vector<std::string> fig10_row(const std::string& w) {
  std::ifstream in(std::string(TW_SOURCE_DIR) + "/results/fig10.txt");
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string bar, name, v;
    if (!(fields >> bar >> name) || name != w) continue;
    std::vector<std::string> out;
    while (fields >> bar >> v) out.push_back(v);
    return out;
  }
  return {};
}

TEST(Sweep, PlanCellEqualsFigure10) {
  const bench::Sweep s =
      parse({"--plan", "--ops=5000", "--vary=workload=ferret,vips",
             "--vary=scheme=paper", "--metric=write_units"});
  ASSERT_EQ(s.cells.size(), 10u);
  for (const bench::Cell& c : s.cells) {
    const std::vector<std::string> row = fig10_row(s.axes[0].values[c.at[0]]);
    ASSERT_EQ(row.size(), 5u);
    EXPECT_EQ(fixed(bench::run_cell(s, c).write_units, 2), row[c.at[1]]);
  }
}

class SweepCli : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(SweepCli, BadAxisValueExits2NamingIt) {
  // The same message a bad --pcm.channels=3 flag gets.
  EXPECT_EXIT(parse({"--vary=pcm.channels=1,3", "--metric=ipc"}),
              ::testing::ExitedWithCode(2),
              "--pcm.channels=3: .*power of two");
  EXPECT_EXIT(parse({"--vary=scheme=tetris,tetirs", "--metric=ipc"}),
              ::testing::ExitedWithCode(2), "--scheme=tetirs: expected");
  EXPECT_EXIT(parse({"--vary=pcm.chanels=1", "--metric=ipc"}),
              ::testing::ExitedWithCode(2), "unknown key 'pcm.chanels'");
  EXPECT_EXIT(parse({"--vary=pcm.banks=4", "--metric=ipcc"}),
              ::testing::ExitedWithCode(2), "unknown metric 'ipcc'");
  // A gate must pin every axis that has more than one value.
  EXPECT_EXIT(parse({"--vary=pcm.banks=4,8", "--vary=scheme=dcw,tetris",
                     "--metric=ipc", "--gate=g=ipc[scheme=tetris]"}),
              ::testing::ExitedWithCode(2), "name a value of axis pcm.banks");
}

TEST_F(SweepCli, IncompleteCellExits1NamingIt) {
  // A 50 ms SET pulse cannot retire the budget within max_sim_time.
  EXPECT_EXIT(std::exit(with_argv({"--quick", "--pcm.t_set_ns=50000000",
                                    "--vary=scheme=dcw", "--metric=ipc"},
                                   bench::sweep_main)),
              ::testing::ExitedWithCode(1),
              "incomplete run .*: ferret/dcw scheme=dcw");
}

TEST(Sweep, GatesPassAndFailOnKnownCells) {
  const bench::Sweep s = parse(
      {"--vary=workload=vips", "--vary=palp.enabled=false,true",
       "--metric=ipc",
       "--gate=ratio=ipc[palp.enabled=true]/[palp.enabled=false]>=0.99",
       "--gate=cut=1-writes[palp.enabled=true]/[palp.enabled=false]>0.2~5",
       "--gate=raw=ipc[palp.enabled=true]"});
  ASSERT_EQ(s.gates.size(), 3u);
  std::vector<harness::RunMetrics> runs(2);
  runs[0].ipc = 1.0;
  runs[0].writes = 100;
  runs[1].ipc = 1.25;
  runs[1].writes = 70;
  const auto value = [&](std::size_t g) {
    return bench::gate_value(s.gates[g], runs);
  };
  const auto passes = [&](std::size_t g) {
    return bench::gate_passes(s.gates[g], value(g));
  };
  EXPECT_DOUBLE_EQ(value(0), 1.25);
  EXPECT_NEAR(value(1), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(value(2), 1.25);
  EXPECT_TRUE(passes(0) && passes(1) && passes(2));
  EXPECT_EQ(s.gates[1].band, 5.0);

  runs[1].ipc = 0.5;
  runs[1].writes = 90;
  EXPECT_FALSE(passes(0));
  EXPECT_FALSE(passes(1));
  EXPECT_TRUE(passes(2));  // no bound
  // A zero divisor reads 0, as the retired ablation binaries did.
  runs[0].ipc = 0.0;
  EXPECT_EQ(value(0), 0.0);
}

TEST(Sweep, FiguresNameIncompleteCells) {
  harness::SystemConfig cfg;
  cfg.cores = 1;
  cfg.max_sim_time = ns(500);
  const harness::Matrix m = harness::run_matrix(
      [&cfg](const workload::WorkloadProfile&) { return cfg; },
      {workload::profile_by_name("canneal")},
      {schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris}, 1);
  std::ostringstream err;
  EXPECT_EQ(bench::report_incomplete(m, err), 2u);
  EXPECT_NE(err.str().find("canneal/dcw"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("canneal/tetris"), std::string::npos);
}

}  // namespace
}  // namespace tw
