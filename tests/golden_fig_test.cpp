// Golden-figure regression: a fast, deterministic slice of the figure
// matrix (two write-heavy PARSEC profiles x the five paper schemes), plus
// a few address-remapping cells (stuck-bank redirect, Start-Gap wear
// leveling with batching or write pausing) that the frozen reference
// controller cannot model, diffed scalar-by-scalar against the committed
// results/golden_figs.json.
//
// Every metric the figures are built from is a pure function of the seed,
// so integer scalars must match exactly and doubles to 1e-9 relative —
// any drift means a behavioral change that must be acknowledged by
// regenerating the goldens:
//
//   TW_REGEN_GOLDEN=1 ctest --test-dir build -R Golden
//
// (see EXPERIMENTS.md "Golden figures" for when regeneration is
// legitimate). The file lives in results/ next to the committed figure
// outputs; TW_GOLDEN_DIR is injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tw/fault/fault.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/pcm/params.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

constexpr const char* kGoldenFile = TW_GOLDEN_DIR "/golden_figs.json";

harness::SystemConfig golden_config() {
  harness::SystemConfig cfg;
  cfg.cores = 2;
  cfg.instructions_per_core = 50'000;
  cfg.seed = 42;
  return cfg;
}

const std::vector<schemes::SchemeKind>& golden_schemes() {
  static const std::vector<schemes::SchemeKind> kKinds = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
      schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
      schemes::SchemeKind::kTetris};
  return kKinds;
}

const std::vector<std::string>& golden_workloads() {
  static const std::vector<std::string> kNames = {"vips", "ferret"};
  return kNames;
}

/// The scalars a figure cell contributes, keyed "workload.scheme.metric".
void collect(const harness::RunMetrics& m, const std::string& prefix,
             std::map<std::string, double>& flat) {
  flat[prefix + ".writes"] = static_cast<double>(m.writes);
  flat[prefix + ".reads"] = static_cast<double>(m.reads);
  flat[prefix + ".sim_events"] = static_cast<double>(m.sim_events);
  flat[prefix + ".runtime_ns"] = m.runtime_ns;
  flat[prefix + ".ipc"] = m.ipc;
  flat[prefix + ".read_latency_ns"] = m.read_latency_ns;
  flat[prefix + ".write_latency_ns"] = m.write_latency_ns;
  flat[prefix + ".write_service_ns"] = m.write_service_ns;
  flat[prefix + ".write_units"] = m.write_units;
  flat[prefix + ".write_energy_pj"] = m.write_energy_pj;
  flat[prefix + ".bits_per_write"] = static_cast<double>(m.bits_per_write);
  // Scheduler counters: they move when dispatch decisions change even if
  // the figure scalars happen not to.
  flat[prefix + ".gap_moves"] = static_cast<double>(m.gap_moves);
  flat[prefix + ".write_pauses"] = static_cast<double>(m.write_pauses);
  flat[prefix + ".stuck_remaps"] = static_cast<double>(m.stuck_remaps);
  flat[prefix + ".dispatch_rounds"] = static_cast<double>(m.dispatch_rounds);
  flat[prefix + ".writes_batched"] = static_cast<double>(m.writes_batched);
}

/// Integer-valued keys compared exactly; the rest at 1e-9 relative.
bool exact_key(const std::string& key) {
  for (const char* suffix :
       {".writes", ".reads", ".sim_events", ".gap_moves", ".write_pauses",
        ".stuck_remaps", ".dispatch_rounds", ".writes_batched"}) {
    if (key.ends_with(suffix)) return true;
  }
  return false;
}

/// One address-remapping cell: a golden_config() variant, keyed
/// "<label>/<workload>.<scheme>.<metric>".
struct RemapCell {
  const char* label;
  const char* workload;
  schemes::SchemeKind kind;
  void (*tweak)(harness::SystemConfig&);
};

void stuck_bank(harness::SystemConfig& c) {
  c.fault = fault::profile_config(fault::FaultProfile::kStuckBank);
}
void wear_leveling(harness::SystemConfig& c) {
  c.controller.wear_leveling = true;
  // A short interval so a golden-sized run moves the gap many times.
  c.controller.start_gap.gap_write_interval = 4;
}

const std::vector<RemapCell>& remap_cells() {
  static const std::vector<RemapCell> kCells = {
      {"stuck-bank", "vips", schemes::SchemeKind::kDcw, stuck_bank},
      {"stuck-bank", "vips", schemes::SchemeKind::kTetris, stuck_bank},
      {"stuck-bank+wl", "vips", schemes::SchemeKind::kTetris,
       [](harness::SystemConfig& c) {
         stuck_bank(c);
         wear_leveling(c);
       }},
      {"wl+batch4", "vips", schemes::SchemeKind::kTetris,
       [](harness::SystemConfig& c) {
         wear_leveling(c);
         c.batch.max_lines = 4;
       }},
      {"wl+pause", "canneal", schemes::SchemeKind::kTetris,
       [](harness::SystemConfig& c) {
         wear_leveling(c);
         c.controller.write_pausing = true;
         // Read-dominant canneal only drains writes (and so only pauses
         // them) once the strict write queue fills.
         c.instructions_per_core = 1'000'000;
       }},
  };
  return kCells;
}

std::map<std::string, double> run_golden_matrix() {
  // Both tests consume the same matrix; run it once.
  static const std::map<std::string, double> kCached = [] {
    std::map<std::string, double> flat;
    for (const auto& wname : golden_workloads()) {
      const auto& w = workload::profile_by_name(wname);
      for (const auto kind : golden_schemes()) {
        const auto m = harness::run_system(golden_config(), w, kind);
        EXPECT_TRUE(m.completed) << wname;
        collect(m, wname + "." + std::string(schemes::scheme_name(kind)),
                flat);
      }
    }
    for (const RemapCell& cell : remap_cells()) {
      harness::SystemConfig cfg = golden_config();
      cell.tweak(cfg);
      const auto m = harness::run_system(
          cfg, workload::profile_by_name(cell.workload), cell.kind);
      EXPECT_TRUE(m.completed) << cell.label;
      collect(m,
              std::string(cell.label) + "/" + cell.workload + "." +
                  std::string(schemes::scheme_name(cell.kind)),
              flat);
    }
    return flat;
  }();
  return kCached;
}

/// Minimal writer/reader for the flat {"key": value, ...} JSON object the
/// goldens use — full 17-digit round-trip precision.
void write_golden(const std::map<std::string, double>& flat,
                  const char* path = kGoldenFile) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : flat) {
    out.precision(17);
    out << "  \"" << key << "\": " << value
        << (++i == flat.size() ? "\n" : ",\n");
  }
  out << "}\n";
}

std::map<std::string, double> read_golden(const char* path = kGoldenFile) {
  std::map<std::string, double> flat;
  std::ifstream in(path);
  if (!in.is_open()) return flat;
  std::string line;
  while (std::getline(in, line)) {
    const auto open = line.find('"');
    if (open == std::string::npos) continue;
    const auto close = line.find('"', open + 1);
    const auto colon = line.find(':', close);
    if (close == std::string::npos || colon == std::string::npos) continue;
    const std::string key = line.substr(open + 1, close - open - 1);
    flat[key] = std::stod(line.substr(colon + 1));
  }
  return flat;
}

/// Diff measured scalars against the committed baseline (integer keys
/// exact, doubles at 1e-9 relative). Every measured key must be in the
/// baseline; callers that measure the whole matrix also check sizes.
void expect_matches_golden(const std::map<std::string, double>& measured,
                           const std::map<std::string, double>& golden) {
  for (const auto& [key, got] : measured) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "scalar missing from baseline: " << key;
    const double want = it->second;
    if (exact_key(key)) {
      EXPECT_EQ(got, want) << key;
    } else if (want == 0.0) {
      EXPECT_EQ(got, 0.0) << key;
    } else {
      EXPECT_LE(std::abs(got - want), 1e-9 * std::abs(want)) << key;
    }
  }
}

TEST(GoldenFigures, KeyScalarsMatchCommittedBaseline) {
  const auto measured = run_golden_matrix();
  ASSERT_FALSE(measured.empty());

  if (std::getenv("TW_REGEN_GOLDEN") != nullptr) {
    write_golden(measured);
    GTEST_SKIP() << "golden baseline regenerated at " << kGoldenFile;
  }

  const auto golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing " << kGoldenFile
      << " — regenerate with TW_REGEN_GOLDEN=1";
  ASSERT_EQ(measured.size(), golden.size());
  expect_matches_golden(measured, golden);
}

/// channels=1 must be a pure passthrough of the single-controller path:
/// running the golden matrix with the channel topology explicitly
/// configured (any interleave mode — it is ignored at one channel) has
/// to reproduce the committed goldens scalar for scalar.
class GoldenChannelsOne
    : public ::testing::TestWithParam<pcm::ChannelInterleave> {};

TEST_P(GoldenChannelsOne, BitIdenticalToSingleControllerPath) {
  if (std::getenv("TW_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regeneration run";
  }
  const auto golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing " << kGoldenFile
      << " — regenerate with TW_REGEN_GOLDEN=1";

  std::map<std::string, double> measured;
  for (const auto& wname : golden_workloads()) {
    const auto& w = workload::profile_by_name(wname);
    for (const auto kind : golden_schemes()) {
      harness::SystemConfig cfg = golden_config();
      cfg.pcm.geometry.channels = 1;
      cfg.pcm.geometry.channel_interleave = GetParam();
      const auto m = harness::run_system(cfg, w, kind);
      EXPECT_TRUE(m.completed) << wname;
      collect(m, wname + "." + std::string(schemes::scheme_name(kind)),
              measured);
    }
  }
  expect_matches_golden(measured, golden);
}

INSTANTIATE_TEST_SUITE_P(AllInterleaves, GoldenChannelsOne,
                         ::testing::Values(pcm::ChannelInterleave::kLine,
                                           pcm::ChannelInterleave::kBank,
                                           pcm::ChannelInterleave::kRow),
                         [](const auto& param_info) {
                           return std::string(pcm::channel_interleave_name(
                               param_info.param));
                         });

TEST(GoldenFigures, TetrisRanksFirstOnIpc) {
  // The fig13 headline, on the same reduced matrix: Tetris's IPC geomean
  // beats every other scheme's (regenerating goldens can't hide a ranking
  // regression, because this check never reads the file).
  const auto measured = run_golden_matrix();
  std::map<std::string, double> geomean;
  for (const auto kind : golden_schemes()) {
    const std::string scheme(schemes::scheme_name(kind));
    double log_sum = 0.0;
    for (const auto& wname : golden_workloads()) {
      const double ipc = measured.at(wname + "." + scheme + ".ipc");
      ASSERT_GT(ipc, 0.0);
      log_sum += std::log(ipc);
    }
    geomean[scheme] =
        std::exp(log_sum / static_cast<double>(golden_workloads().size()));
  }
  const double tetris = geomean.at("tetris");
  for (const auto& [scheme, g] : geomean) {
    if (scheme == "tetris") continue;
    EXPECT_GT(tetris, g) << "tetris IPC geomean beaten by " << scheme;
  }
}

// -- Axis cells -------------------------------------------------------------
//
// One cell per axis of the request payload, the stored line and the
// sharded XBar path (line width, channel count and interleave, DRAM tier
// and policy, faults + PALP, encoders, batching), plus one cell with all
// of them on, in results/golden_axes.json keyed "<label>.<metric>". Each
// records every kMetrics entry and a hash of its Chrome trace with every
// category on, the kernel's included, so a change to the payload copies,
// the line store or the domain schedule that moves a single event or
// trace byte fails here. All
// values are compared exactly; regenerate like golden_figs.json.

constexpr const char* kAxesFile = TW_GOLDEN_DIR "/golden_axes.json";

struct AxisCell {
  const char* label;
  const char* workload;
  void (*tweak)(harness::SystemConfig&);
  workload::ContentClass content = workload::ContentClass::kMutate;
};

const std::vector<AxisCell>& axis_cells() {
  static const std::vector<AxisCell> kCells = {
      {"8ch-line-batch4", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 8;
         c.instructions_per_core = 100'000;
         c.pcm.geometry.channels = 8;
         c.pcm.geometry.channel_interleave = pcm::ChannelInterleave::kLine;
         c.batch.max_lines = 4;
       }},
      {"2ch-dram-mac8mb", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 4;
         c.instructions_per_core = 200'000;
         c.pcm.geometry.channels = 2;
         c.dram.enabled = true;
         c.dram.capacity_bytes = u64{8} * 1024 * 1024;
         c.dram.policy = mem::DramPolicy::kMac;
       }},
      // Only evictions reach PCM as writes: the 8 MB tier absorbs every
      // write of a run this short, the 32 KB one forces writebacks.
      {"2ch-dram-mac32kb", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 4;
         c.instructions_per_core = 100'000;
         c.pcm.geometry.channels = 2;
         c.dram.enabled = true;
         c.dram.capacity_bytes = u64{32} * 1024;
         c.dram.policy = mem::DramPolicy::kMac;
       }},
      {"4ch-light-faults-palp4", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 4;
         c.instructions_per_core = 100'000;
         c.pcm.geometry.channels = 4;
         c.pcm.geometry.subarrays_per_bank = 4;
         c.controller.palp.enabled = true;
         c.fault = fault::profile_config(fault::FaultProfile::kLight);
       }},
      {"wire-batch4", "vips",
       [](harness::SystemConfig& c) {
         c.encode.kind = encode::EncoderKind::kWire;
         c.batch.max_lines = 4;
       }},
      {"2ch-line", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 4;
         c.instructions_per_core = 100'000;
         c.pcm.geometry.channels = 2;
         c.pcm.geometry.channel_interleave = pcm::ChannelInterleave::kLine;
       }},
      // Small enough that LRU evictions write back within the run.
      {"1ch-dram-lru32kb", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 4;
         c.instructions_per_core = 100'000;
         c.dram.enabled = true;
         c.dram.capacity_bytes = u64{32} * 1024;
         c.dram.policy = mem::DramPolicy::kLru;
       }},
      // Compressible content, so coset tags and don't-care cells cross
      // the stored line's record.
      {"coset", "vips",
       [](harness::SystemConfig& c) {
         c.encode.kind = encode::EncoderKind::kCoset;
       },
       workload::ContentClass::kCompressible},
      // Every axis at once, apart from Start-Gap (approximate across
      // channels) and write pausing (PALP excludes it).
      {"4ch-all-on", "vips",
       [](harness::SystemConfig& c) {
         c.cores = 4;
         c.instructions_per_core = 100'000;
         c.pcm.geometry.channels = 4;
         c.pcm.geometry.subarrays_per_bank = 4;
         c.controller.palp.enabled = true;
         c.dram.enabled = true;
         c.dram.capacity_bytes = u64{32} * 1024;
         c.dram.policy = mem::DramPolicy::kMac;
         c.fault = fault::profile_config(fault::FaultProfile::kLight);
         c.encode.kind = encode::EncoderKind::kCoset;
         c.batch.max_lines = 4;
       },
       workload::ContentClass::kCompressible},
      {"server-256b", "vips",
       [](harness::SystemConfig& c) {
         const harness::SystemConfig file = harness::load_system_config(
             TW_GOLDEN_DIR "/../configs/server_256b.cfg");
         const u64 instructions = c.instructions_per_core;
         c = file;
         c.seed = 42;
         c.instructions_per_core = instructions;
         // Moves the gap within a run this short (the file's 128 does not).
         c.controller.start_gap.gap_write_interval = 4;
       }},
  };
  return kCells;
}

/// FNV-1a over `bytes`, cut to 53 bits so the JSON double holds it exactly.
double hash53(const std::string& bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char ch : bytes) {
    h = (h ^ static_cast<u8>(ch)) * 0x100000001b3ull;
  }
  return static_cast<double>(h & ((u64{1} << 53) - 1));
}

std::map<std::string, double> run_axis_cells() {
  std::map<std::string, double> flat;
  for (const AxisCell& cell : axis_cells()) {
    harness::SystemConfig cfg = golden_config();
    cell.tweak(cfg);
    const std::string path = testing::TempDir() + "tw_golden_axes_" +
                             cell.label + ".json";
    cfg.trace.chrome_path = path;
    cfg.trace.categories = trace::kAllCategories;
    cfg.trace.ring_capacity = u64{1} << 18;
    workload::WorkloadProfile profile =
        workload::profile_by_name(cell.workload);
    profile.content = cell.content;
    const auto m =
        harness::run_system(cfg, profile, schemes::SchemeKind::kTetris);
    EXPECT_TRUE(m.completed) << cell.label;
    EXPECT_GT(m.trace_records, 0u) << cell.label;
    EXPECT_EQ(m.trace_dropped, 0u) << cell.label;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    // The manifest (tool version, git sha, config hash) trails the
    // events; only the events are the cell's behaviour.
    const auto manifest = bytes.rfind("\n],\"displayTimeUnit\"");
    EXPECT_NE(manifest, std::string::npos) << cell.label;
    const std::string prefix = std::string(cell.label) + ".";
    for (const harness::MetricDef& d : harness::kMetrics) {
      flat[prefix + std::string(d.name)] = d.get(m);
    }
    flat[prefix + "trace_hash53"] = hash53(bytes.substr(0, manifest));
  }
  return flat;
}

TEST(GoldenAxes, CellsMatchCommittedBaseline) {
  const auto measured = run_axis_cells();
  if (std::getenv("TW_REGEN_GOLDEN") != nullptr) {
    write_golden(measured, kAxesFile);
    GTEST_SKIP() << "golden baseline regenerated at " << kAxesFile;
  }
  const auto golden = read_golden(kAxesFile);
  ASSERT_FALSE(golden.empty())
      << "missing " << kAxesFile << " — regenerate with TW_REGEN_GOLDEN=1";
  ASSERT_EQ(measured.size(), golden.size());
  for (const auto& [key, got] : measured) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "scalar missing from baseline: " << key;
    EXPECT_EQ(got, it->second) << key;
  }
}

}  // namespace
}  // namespace tw
