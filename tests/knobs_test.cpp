// The knob table (tw/harness/knobs.hpp) and its consumers: config-file
// validation, table-driven round-trip / config_hash coverage of every row,
// old-flag aliases, pinned dump text, and the bench binaries' strict
// command line (bench::Options).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/knobs.hpp"

namespace tw {
namespace {

using harness::Knob;
using harness::Setting;
using harness::SystemConfig;

SystemConfig parse(const std::string& text) {
  std::istringstream in(text);
  return harness::parse_system_config(in);
}

std::string dump(const SystemConfig& cfg) {
  std::ostringstream out;
  harness::write_system_config(cfg, out);
  return out.str();
}

// Expects `text` to be rejected with a message containing every needle.
void expect_config_error(const std::string& text,
                         const std::vector<std::string>& needles) {
  try {
    parse(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    for (const std::string& n : needles) {
      EXPECT_NE(std::string(e.what()).find(n), std::string::npos)
          << "'" << n << "' not in: " << e.what();
    }
  }
}

// ------------------------------------------------- validation on load --

TEST(ConfigValidation, NonPowerOfTwoSubarraysIsConfigError) {
  // Used to parse, then abort the run with an uncaught ContractViolation.
  expect_config_error("sys.cores = 2\npcm.subarrays = 3\n",
                      {"line 2", "pcm.subarrays", "power of two"});
}

TEST(ConfigValidation, NegativeIntegerRejected) {
  // std::stoull used to accept the minus and store 4294967295.
  expect_config_error("sys.cores = -1\n", {"line 1", "sys.cores", "-1"});
}

TEST(ConfigValidation, IntegerTooLargeForFieldRejected) {
  // Used to wrap to 0 in the u32 field.
  expect_config_error("pcm.banks = 4294967296\n",
                      {"line 1", "pcm.banks", "4294967295"});
  EXPECT_EQ(parse("sys.instructions = 4294967296\n").instructions_per_core,
            u64{4294967296});
}

TEST(ConfigValidation, SignsAndTrailingJunkRejected) {
  for (const char* v : {"+8", "8 banks", "0x8", "8.0", ""}) {
    SCOPED_TRACE(v);
    expect_config_error(std::string("pcm.banks = ") + v + "\n",
                        {"pcm.banks"});
  }
  expect_config_error("core.peak_ipc = nan\n", {"core.peak_ipc"});
  expect_config_error("dram.capacity_mb = 0.0000001\n",
                      {"dram.capacity_mb", "whole number of bytes"});
}

TEST(ConfigValidation, BlamesTheSettingThatBrokeTheConfig) {
  // Line 1 is fine on its own; line 2 makes the drain watermark reach the
  // queue size, so line 2 is named.
  expect_config_error(
      "controller.drain_low = 20\ncontroller.write_queue = 16\n",
      {"line 2", "controller.write_queue", "watermark"});
  // An intermediate inconsistency that a later line repairs is fine.
  const SystemConfig ok =
      parse("controller.drain_low = 40\ncontroller.write_queue = 64\n");
  EXPECT_EQ(ok.controller.write_queue_entries, 64u);
}

TEST(ConfigValidation, LibraryChecksRunOnLoad) {
  expect_config_error("pcm.t_set_ns = 10\n", {"pcm.t_set_ns", "RESET <= SET"});
  expect_config_error("dram.enabled = true\ndram.ways = 0\n",
                      {"line 2", "dram.ways"});
  expect_config_error("palp.enabled = true\ncontroller.write_pausing = true\n",
                      {"line 2", "PALP"});
  expect_config_error("fault.set_fail_prob = 1.5\n", {"fault", "[0, 1]"});
  expect_config_error("core.mlp = 0\n", {"core.mlp", "MLP"});
}

TEST(ConfigValidation, ZeroCoresAndOversizedLinesRejected) {
  // Both used to pass every check, then abort the run with an uncaught
  // ContractViolation (the generator's core count, the line's unit count).
  expect_config_error("sys.cores = 0\n", {"line 1", "sys.cores", ">= 1"});
  expect_config_error("pcm.line_bytes = 512\n",
                      {"line 1", "pcm.line_bytes", "at most 32", "256 B"});
  EXPECT_EQ(parse("pcm.line_bytes = 256\n").pcm.geometry.units_per_line(),
            pcm::kMaxUnitsPerLine);
}

TEST(ConfigFile, WriteBatchKeyRemoved) {
  // batch.max_lines is the one key for the multi-line batch size.
  expect_config_error("controller.write_batch = 4\n",
                      {"line 1", "unknown key", "controller.write_batch"});
  EXPECT_EQ(dump(SystemConfig{}).find("write_batch"), std::string::npos);
}

// ------------------------------------------------ table-driven rows --

bool numeric(const Knob& k) {
  return k.type == "N" || k.type == "ns" || k.type == "MB" || k.type == "ps";
}

// Candidate non-default values for a row, tried in order.
std::vector<std::string> candidates(const Knob& k, const SystemConfig& base) {
  if (k.type == "bool") return {"true", "false"};
  if (numeric(k)) {
    const u64 d = std::stoull(k.get(base));
    return {std::to_string(2 * d), std::to_string(d / 2),
            std::to_string(d + 1), "1", "2", "3"};
  }
  if (k.type == "X") {
    const double d = std::stod(k.get(base));
    std::vector<std::string> out;
    for (const double v : {d * 2, d / 2, d + 0.25, 0.5, 0.25, 1.0}) {
      std::ostringstream os;
      os << v;
      out.push_back(os.str());
    }
    return out;
  }
  return split(k.type, '|');  // enum or preset spellings
}

// Table II with every dump group switched on.
SystemConfig all_groups_on() {
  SystemConfig cfg;
  const std::vector<Setting> on = {
      {"palp.enabled", "true", "test"},
      {"dram.enabled", "true", "test"},
      {"encode.kind", "flip", "test"},
      {"fault.profile", "light", "test"},
  };
  harness::apply_settings(cfg, on);
  return cfg;
}

// Sets `key` to the first candidate that is valid on `base` and changes
// it; then checks the hash moved and dump -> parse restores it.
bool check_row(const Knob& k, const SystemConfig& base) {
  const u64 base_hash = harness::config_hash(base);
  for (const std::string& v : candidates(k, base)) {
    SystemConfig cfg = base;
    const std::vector<Setting> s = {{std::string(k.key), v, "test"}};
    try {
      harness::apply_settings(cfg, s);
    } catch (const std::runtime_error&) {
      continue;  // not a valid value for this row
    }
    if (k.get ? k.get(cfg) == k.get(base)
              : harness::config_hash(cfg) == base_hash) {
      continue;  // not a change
    }
    SCOPED_TRACE("value " + v);
    // sys.sim_threads never changes results, so config_hash excludes it.
    if (k.key == "sys.sim_threads") {
      EXPECT_EQ(harness::config_hash(cfg), base_hash);
    } else {
      EXPECT_NE(harness::config_hash(cfg), base_hash);
    }
    const SystemConfig back = parse(dump(cfg));
    EXPECT_EQ(harness::config_hash(back), harness::config_hash(cfg));
    EXPECT_EQ(dump(back), dump(cfg));
    return true;
  }
  return false;
}

TEST(KnobTable, EveryRowRoundTripsAndMovesTheHash) {
  ASSERT_GE(harness::knob_table().size(), 60u);
  for (const Knob& k : harness::knob_table()) {
    SCOPED_TRACE(std::string(k.key));
    // Table II is the fallback for rows no value of which is valid with
    // every group on (write pausing excludes PALP).
    EXPECT_TRUE(check_row(k, all_groups_on()) || check_row(k, SystemConfig{}))
        << "no valid non-default value";
  }
}

TEST(KnobTable, KeysAreUniqueAndDocumented) {
  for (const Knob& k : harness::knob_table()) {
    EXPECT_FALSE(k.help.empty()) << k.key;
    EXPECT_FALSE(k.type.empty()) << k.key;
    EXPECT_EQ(harness::find_knob(k.key), &k) << "duplicate " << k.key;
  }
  std::ostringstream help;
  harness::print_knob_help(help);
  for (const Knob& k : harness::knob_table()) {
    EXPECT_NE(help.str().find("--" + std::string(k.key) + "="),
              std::string::npos)
        << k.key;
  }
}

TEST(KnobTable, DoublesRoundTripExactly) {
  SystemConfig cfg = all_groups_on();
  cfg.core.peak_ipc = 1.0 / 3.0;
  cfg.fault.set_fail_prob = 1.234567891e-5;
  cfg.dram.capacity_bytes = u64{256} << 10;  // dram.capacity_mb = 0.25
  const SystemConfig back = parse(dump(cfg));
  EXPECT_EQ(back.core.peak_ipc, cfg.core.peak_ipc);
  EXPECT_EQ(back.fault.set_fail_prob, cfg.fault.set_fail_prob);
  EXPECT_EQ(back.dram.capacity_bytes, cfg.dram.capacity_bytes);
}

// Fields of a group that is off: a dump omits the group, so the hash must
// ignore them too, or dump -> parse would change it.
TEST(KnobTable, OffGroupFieldsLeaveHashAndDumpAlone) {
  const std::vector<std::vector<Setting>> changes = {
      {{"palp.write_ways", "4", "test"}},
      {{"palp.max_rww_reads", "1", "test"}},
      {{"fault.max_retries", "7", "test"}},
      {{"fault.retry_widening", "1.5", "test"}},
      {{"fault.retry_fail_damping", "0.25", "test"}},
      {{"fault.worn_fail_prob", "0.125", "test"}},
      // Brown-out needs all three of period, duration and factor < 1.
      {{"fault.brownout_period_ns", "1000", "test"}},
      {{"fault.brownout_duration_ns", "100", "test"}},
      {{"fault.brownout_budget_factor", "0.5", "test"}},
      {{"fault.brownout_period_ns", "1000", "test"},
       {"fault.brownout_duration_ns", "100", "test"}},
      {{"fault.brownout_period_ns", "1000", "test"},
       {"fault.brownout_budget_factor", "0.5", "test"}},
      {{"fault.brownout_duration_ns", "100", "test"},
       {"fault.brownout_budget_factor", "0.5", "test"}},
  };
  const SystemConfig base;
  for (const std::vector<Setting>& change : changes) {
    SCOPED_TRACE(change.back().key);
    SystemConfig cfg;
    harness::apply_settings(cfg, change);
    ASSERT_FALSE(cfg.controller.palp.enabled);
    ASSERT_FALSE(cfg.fault.enabled());
    for (const Setting& s : change) {
      const Knob* k = harness::find_knob(s.key);
      ASSERT_NE(k, nullptr);
      ASSERT_NE(k->get(cfg), k->get(base)) << "not a change";
    }
    EXPECT_EQ(harness::config_hash(cfg), harness::config_hash(base));
    const SystemConfig back = parse(dump(cfg));
    EXPECT_EQ(harness::config_hash(back), harness::config_hash(cfg));
    EXPECT_EQ(dump(back), dump(cfg));
  }
}

// ----------------------------------------------------------- aliases --

SystemConfig from_flags(const std::string& flags) {
  std::vector<Setting> s;
  std::istringstream in(flags);
  for (std::string arg; in >> arg;) {
    EXPECT_TRUE(harness::expand_flag(arg, s)) << arg;
  }
  SystemConfig cfg;
  harness::apply_settings(cfg, s);
  return cfg;
}

TEST(KnobAliases, EveryOldFlagMatchesItsKeyForm) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"--subarrays=4", "--pcm.subarrays=4"},
      {"--channels=4", "--pcm.channels=4"},
      {"--interleave=row", "--pcm.channel_interleave=row"},
      {"--palp", "--palp.enabled=true"},
      // PALP's fields count only while PALP is on.
      {"--palp --palp-ways=4", "--palp.enabled=true --palp.write_ways=4"},
      {"--palp --palp-rww=1", "--palp.enabled=true --palp.max_rww_reads=1"},
      {"--dram", "--dram.enabled=true"},
      {"--dram-mb=8", "--dram.enabled=true --dram.capacity_mb=8"},
      {"--dram-policy=mac", "--dram.enabled=true --dram.policy=mac"},
      {"--encoder=wire", "--encode.kind=wire"},
      {"--batch-lines=4", "--batch.max_lines=4"},
      {"--fault-profile=heavy", "--fault.profile=heavy"},
      {"--sim-threads=2", "--sys.sim_threads=2"},
      {"--cores=8", "--sys.cores=8"},
      {"--instr=1000", "--sys.instructions=1000"},
      {"--seed=9", "--sys.seed=9"},
  };
  std::size_t flags = 0;
  for (const Knob& k : harness::knob_table()) flags += k.flag.empty() ? 0 : 1;
  EXPECT_EQ(pairs.size(), flags) << "an old flag is missing from this list";
  for (const auto& [alias, keys] : pairs) {
    SCOPED_TRACE(alias);
    const SystemConfig a = from_flags(alias);
    const SystemConfig b = from_flags(keys);
    EXPECT_EQ(harness::config_hash(a), harness::config_hash(b));
    EXPECT_EQ(dump(a), dump(b));
    if (alias != "--sim-threads=2") {
      EXPECT_NE(harness::config_hash(a), harness::config_hash(SystemConfig{}));
    }
  }
}

TEST(KnobAliases, ValueShapeIsChecked) {
  std::vector<Setting> s;
  EXPECT_THROW(harness::expand_flag("--palp=yes", s), std::invalid_argument);
  EXPECT_THROW(harness::expand_flag("--channels", s), std::invalid_argument);
  EXPECT_THROW(harness::expand_flag("--pcm.channels", s),
               std::invalid_argument);
  EXPECT_FALSE(harness::expand_flag("--chanels=8", s));
  EXPECT_FALSE(harness::expand_flag("pcm.channels=8", s));
  EXPECT_TRUE(s.empty());
}

// --------------------------------------------------------- dump pins --

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// The dump text of the shipped configs and of one config with every group
// on, pinned before the knob table replaced the hand-written writer.
TEST(ConfigDump, MatchesPinnedText) {
  const std::string src = TW_SOURCE_DIR;
  const std::pair<std::string, std::string> cases[] = {
      {src + "/configs/table2.cfg", "table2"},
      {src + "/configs/mobile.cfg", "mobile"},
      {src + "/configs/server_256b.cfg", "server_256b"},
      {src + "/tests/config_dumps/all_features.cfg", "all_features"},
  };
  for (const auto& [cfg_path, name] : cases) {
    SCOPED_TRACE(name);
    const SystemConfig cfg = harness::load_system_config(cfg_path);
    EXPECT_EQ(dump(cfg),
              read_file(src + "/tests/config_dumps/" + name + ".dump"));
  }
}

// ------------------------------------------------ bench command line --

// Runs bench::Options::parse on a command line (argv[0] supplied).
bench::Options parse_cli(std::vector<std::string> args,
                         std::initializer_list<bench::ExtraFlag> extra = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return bench::Options::parse(static_cast<int>(argv.size()), argv.data(),
                               extra);
}

class BenchCli : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(BenchCli, MisspelledFlagExits2) {
  EXPECT_EXIT(parse_cli({"--quick", "--chanels=8"}),
              ::testing::ExitedWithCode(2), "--chanels=8: unknown flag");
}

TEST_F(BenchCli, NonNumericOpsExits2) {
  EXPECT_EXIT(parse_cli({"--quick", "--ops=abc"}),
              ::testing::ExitedWithCode(2), "--ops=abc");
  EXPECT_EXIT(parse_cli({"--seed=-3"}), ::testing::ExitedWithCode(2),
              "--seed=-3");
}

TEST_F(BenchCli, InconsistentKnobExits2NamingTheFlag) {
  EXPECT_EXIT(parse_cli({"--channels=3"}), ::testing::ExitedWithCode(2),
              "--channels=3: .*power of two");
  EXPECT_EXIT(parse_cli({"--dram-mb=0"}), ::testing::ExitedWithCode(2),
              "--dram-mb=0: .*too small");
  EXPECT_EXIT(parse_cli({"--palp=on"}), ::testing::ExitedWithCode(2),
              "--palp=on: takes no value");
}

TEST_F(BenchCli, ZeroCoresAndOversizedLinesExit2NamingTheFlag) {
  EXPECT_EXIT(parse_cli({"--sys.cores=0"}), ::testing::ExitedWithCode(2),
              "--sys.cores=0: sys.cores must be >= 1");
  EXPECT_EXIT(parse_cli({"--cores=0"}), ::testing::ExitedWithCode(2),
              "--cores=0: sys.cores must be >= 1");
  EXPECT_EXIT(parse_cli({"--pcm.line_bytes=512"}),
              ::testing::ExitedWithCode(2),
              "--pcm.line_bytes=512: .*at most 32 data units \\(256 B");
}

TEST_F(BenchCli, OpsWinsOverQuickInEitherOrder) {
  EXPECT_EQ(parse_cli({"--quick"}).target_ops_per_core, 400u);
  EXPECT_EQ(parse_cli({"--ops=1000", "--quick"}).target_ops_per_core, 1000u);
  EXPECT_EQ(parse_cli({"--quick", "--ops=1000"}).target_ops_per_core, 1000u);
}

TEST_F(BenchCli, DeclaredExtraFlagsOnly) {
  const bench::Options o = parse_cli(
      {"--trace-overhead"}, {{"trace-overhead", "measure tracing cost"}});
  EXPECT_TRUE(o.has("trace-overhead"));
  EXPECT_FALSE(o.has("reference"));
  EXPECT_EXIT(parse_cli({"--trace-overhead"}), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST_F(BenchCli, KeyFlagsAndOldFlagsBuildTheSameConfig) {
  const auto& profile = workload::parsec_profiles().front();
  const bench::Options a =
      parse_cli({"--quick", "--pcm.channels=4", "--sys.sim_threads=2"});
  const bench::Options b =
      parse_cli({"--quick", "--channels=4", "--sim-threads=2"});
  const SystemConfig ca = bench::system_config(profile, a);
  const SystemConfig cb = bench::system_config(profile, b);
  EXPECT_EQ(ca.pcm.geometry.channels, 4u);
  EXPECT_EQ(ca.sim_threads, 2u);
  EXPECT_EQ(dump(ca), dump(cb));
  // The --ops budget and seed are set first; knob overrides win.
  const bench::Options c = parse_cli({"--seed=5", "--sys.seed=6"});
  EXPECT_EQ(bench::system_config(profile, c).seed, 6u);
  EXPECT_EQ(bench::system_config(profile, parse_cli({"--seed=5"})).seed, 5u);
}

}  // namespace
}  // namespace tw
