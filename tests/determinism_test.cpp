// Determinism: a run must be a pure function of its seed.
//
// The calendar-queue kernel breaks ties by (tick, priority, insertion
// order) and parallel_for only distributes independent (workload, scheme)
// cells, so identical seeds must produce bit-identical metrics — both
// across repeated runs and across thread counts. Any drift here means
// scheduling nondeterminism leaked into the statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "tw/common/parallel.hpp"
#include "tw/common/simd.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

harness::SystemConfig small_config(u64 seed) {
  harness::SystemConfig cfg;
  cfg.cores = 2;
  // Enough traffic for a few hundred line writes on the write-heavy
  // profiles below; still well under a second per cell.
  cfg.instructions_per_core = 60'000;
  cfg.seed = seed;
  return cfg;
}

/// Run a small fig13-style matrix (2 write-heavy workloads x {DCW,
/// Tetris}, plus zero-rich canneal when `with_biased`) with the given
/// parallel_for thread count and return the flattened cells.
std::vector<harness::RunMetrics> run_small_matrix(u32 threads, u64 seed,
                                                  u32 batch_max_lines = 0,
                                                  bool with_biased = false) {
  std::vector<const workload::WorkloadProfile*> workloads = {
      &workload::profile_by_name("vips"),
      &workload::profile_by_name("ferret")};
  // Read-dominant canneal needs more instructions for its few hundred
  // writes to include full-line rewrites, whose bit counts depend on the
  // first-touch content (a mutation keeps its counts whatever the content).
  const auto* canneal = &workload::profile_by_name("canneal");
  if (with_biased) workloads.push_back(canneal);
  const std::vector<schemes::SchemeKind> kinds = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris};
  std::vector<harness::RunMetrics> cells(workloads.size() * kinds.size());
  parallel_for(
      cells.size(),
      [&](std::size_t i) {
        const auto& w = *workloads[i / kinds.size()];
        harness::SystemConfig cfg = small_config(seed);
        cfg.batch.max_lines = batch_max_lines;
        if (&w == canneal) cfg.instructions_per_core = 1'000'000;
        cells[i] = harness::run_system(cfg, w, kinds[i % kinds.size()]);
      },
      threads);
  return cells;
}

void expect_identical(const harness::RunMetrics& a,
                      const harness::RunMetrics& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.completed, b.completed);
  // Exact equality on doubles is intentional: determinism means the same
  // arithmetic in the same order, not merely close results.
  EXPECT_EQ(a.read_latency_ns, b.read_latency_ns);
  EXPECT_EQ(a.write_latency_ns, b.write_latency_ns);
  EXPECT_EQ(a.write_service_ns, b.write_service_ns);
  EXPECT_EQ(a.write_units, b.write_units);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.write_energy_pj, b.write_energy_pj);
  EXPECT_EQ(a.read_energy_pj, b.read_energy_pj);
  EXPECT_EQ(a.bits_per_write, b.bits_per_write);
  EXPECT_EQ(a.read_p99_ns, b.read_p99_ns);
  EXPECT_EQ(a.write_p99_ns, b.write_p99_ns);
  EXPECT_EQ(a.write_pauses, b.write_pauses);
  EXPECT_EQ(a.gap_moves, b.gap_moves);
  EXPECT_EQ(a.writes_batched, b.writes_batched);
  EXPECT_EQ(a.batch_lines, b.batch_lines);
  EXPECT_EQ(a.batch_occupancy, b.batch_occupancy);
  // Controller queue statistics: peaks and per-round counts depend on the
  // exact interleaving of enqueues and dispatches, so any scheduling
  // nondeterminism surfaces here first.
  EXPECT_EQ(a.reads_forwarded, b.reads_forwarded);
  EXPECT_EQ(a.writes_coalesced, b.writes_coalesced);
  EXPECT_EQ(a.read_q_peak, b.read_q_peak);
  EXPECT_EQ(a.write_q_peak, b.write_q_peak);
  EXPECT_EQ(a.dispatch_rounds, b.dispatch_rounds);
  EXPECT_EQ(a.row_hits, b.row_hits);
  // PALP overlap counters (zero whenever PALP is off/degenerate).
  EXPECT_EQ(a.palp_overlapped_reads, b.palp_overlapped_reads);
  EXPECT_EQ(a.palp_pump_stalls, b.palp_pump_stalls);
  EXPECT_EQ(a.palp_write_overlaps, b.palp_write_overlaps);
  // DRAM front tier counters (zero whenever the tier is off).
  EXPECT_EQ(a.dram_hits, b.dram_hits);
  EXPECT_EQ(a.dram_misses, b.dram_misses);
  EXPECT_EQ(a.dram_writebacks, b.dram_writebacks);
  EXPECT_EQ(a.dram_clean_evicts, b.dram_clean_evicts);
}

TEST(Determinism, SameSeedSameStats) {
  const auto first = run_small_matrix(1, 42);
  const auto second = run_small_matrix(1, 42);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(first[i].workload + "/" + first[i].scheme);
    // Guard against vacuous passes: every cell must see real traffic.
    EXPECT_TRUE(first[i].completed);
    EXPECT_GT(first[i].writes, 0u);
    EXPECT_GT(first[i].reads, 0u);
    EXPECT_GT(first[i].dispatch_rounds, 0u);
    EXPECT_GT(first[i].write_q_peak, 0u);
    expect_identical(first[i], second[i]);
  }
}

TEST(Determinism, ThreadCountInvariant) {
  const auto serial = run_small_matrix(1, 42);
  const auto threaded = run_small_matrix(4, 42);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].workload + "/" + serial[i].scheme);
    expect_identical(serial[i], threaded[i]);
  }
}

TEST(Determinism, SimdLevelInvariantAcrossBatchModes) {
  // The TW_SIMD kernels are bit-identical by contract
  // (tests/simd_packer_test.cpp proves it at the kernel and pack level);
  // this closes the loop at the system level: full runs under the scalar
  // fallback and under AVX2 must produce identical metrics, at both
  // batch.max_lines = 1 (per-line packing) and 4 (multi-line Tetris),
  // and regardless of thread count. Zero-rich canneal adds cells that
  // pack over ones-biased first-touch content.
  if (!simd::avx2_supported()) GTEST_SKIP() << "AVX2 not supported";
  const simd::Level saved = simd::active_level();
  for (const u32 max_lines : {1u, 4u}) {
    SCOPED_TRACE("batch.max_lines=" + std::to_string(max_lines));
    simd::set_level(simd::Level::kScalar);
    const auto scalar = run_small_matrix(1, 42, max_lines, true);
    simd::set_level(simd::Level::kAvx2);
    const auto avx2 = run_small_matrix(4, 42, max_lines, true);
    simd::set_level(saved);
    ASSERT_EQ(scalar.size(), avx2.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      SCOPED_TRACE(scalar[i].workload + "/" + scalar[i].scheme);
      EXPECT_TRUE(scalar[i].completed);
      EXPECT_GT(scalar[i].writes, 0u);
      expect_identical(scalar[i], avx2[i]);
    }
  }
  // The K=4 runs must actually take the multi-line path somewhere.
  simd::set_level(saved);
  const auto batched = run_small_matrix(1, 42, 4);
  bool any_batched = false;
  for (const auto& m : batched) {
    if (m.writes_batched > 0) any_batched = true;
  }
  EXPECT_TRUE(any_batched);
}

/// One vips/Tetris cell at the given channel count, pool-thread cap and
/// (optionally) Chrome trace path.
harness::RunMetrics run_channel_cell(u32 channels, u32 sim_threads, u64 seed,
                                     const std::string& trace_path = "") {
  harness::SystemConfig cfg = small_config(seed);
  cfg.pcm.geometry.channels = channels;
  cfg.sim_threads = sim_threads;
  cfg.trace.chrome_path = trace_path;
  return harness::run_system(cfg, workload::profile_by_name("vips"),
                             schemes::SchemeKind::kTetris);
}

TEST(Determinism, ChannelPhaseThreadCountInvariant) {
  // sys.sim_threads never reaches the results (the sharded engine runs
  // every channel on the calling thread): same seed => bit-identical
  // RunMetrics at every (channels, sim_threads) point.
  for (const u32 channels : {1u, 2u, 8u}) {
    SCOPED_TRACE("channels=" + std::to_string(channels));
    std::vector<harness::RunMetrics> runs;
    for (const u32 threads : {1u, 2u, 8u}) {
      runs.push_back(run_channel_cell(channels, threads, 42));
    }
    EXPECT_TRUE(runs[0].completed);
    EXPECT_GT(runs[0].writes, 0u);
    EXPECT_GT(runs[0].reads, 0u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE("sim_threads index " + std::to_string(i));
      expect_identical(runs[0], runs[i]);
    }
  }
}

TEST(Determinism, ChannelsActuallyShard) {
  // Guard against a vacuous pass of the invariance test: adding channels
  // must change behavior (more write bandwidth => shorter runtime), i.e.
  // the multi-channel path is really being exercised.
  const auto one = run_channel_cell(1, 1, 42);
  const auto eight = run_channel_cell(8, 1, 42);
  ASSERT_TRUE(one.completed);
  ASSERT_TRUE(eight.completed);
  EXPECT_LT(eight.runtime_ns, one.runtime_ns);
}

TEST(Determinism, TraceBytesInvariantAcrossThreadsAndChannels) {
  // Stronger than metric equality: the collected trace (ring creation
  // order + stable in-ring order + manifest, which deliberately excludes
  // sim_threads from config_hash) must serialize to identical bytes at
  // every sim_threads value.
  for (const u32 channels : {1u, 8u}) {
    SCOPED_TRACE("channels=" + std::to_string(channels));
    std::string baseline;
    for (const u32 threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("sim_threads=" + std::to_string(threads));
      const std::string path = testing::TempDir() + "tw_det_trace_c" +
                               std::to_string(channels) + "_t" +
                               std::to_string(threads) + ".json";
      const auto m = run_channel_cell(channels, threads, 42, path);
      EXPECT_TRUE(m.completed);
      EXPECT_GT(m.trace_records, 0u);
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.is_open()) << path;
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      std::remove(path.c_str());
      ASSERT_FALSE(bytes.empty());
      if (baseline.empty()) {
        baseline = bytes;
      } else {
        EXPECT_EQ(baseline, bytes)
            << "trace bytes drifted with sim_threads";
      }
    }
  }
}

/// One vips/Tetris cell with PALP on at the given partition and channel
/// counts (and optional Chrome trace path).
harness::RunMetrics run_palp_cell(u32 partitions, u32 channels,
                                  u32 sim_threads, u64 seed,
                                  const std::string& trace_path = "") {
  harness::SystemConfig cfg = small_config(seed);
  cfg.pcm.geometry.subarrays_per_bank = partitions;
  cfg.pcm.geometry.channels = channels;
  cfg.controller.palp.enabled = true;
  cfg.sim_threads = sim_threads;
  cfg.trace.chrome_path = trace_path;
  return harness::run_system(cfg, workload::profile_by_name("vips"),
                             schemes::SchemeKind::kTetris);
}

TEST(Determinism, PalpThreadCountInvariant) {
  // PALP admission decisions depend on in-flight state (pump load, rww
  // reads), the kind of bookkeeping where scheduling nondeterminism would
  // leak first. Same seed => bit-identical metrics at every
  // (partitions, channels, sim_threads) point.
  for (const u32 partitions : {1u, 4u}) {
    for (const u32 channels : {1u, 8u}) {
      SCOPED_TRACE("partitions=" + std::to_string(partitions) +
                   " channels=" + std::to_string(channels));
      std::vector<harness::RunMetrics> runs;
      for (const u32 threads : {1u, 4u}) {
        runs.push_back(run_palp_cell(partitions, channels, threads, 42));
      }
      EXPECT_TRUE(runs[0].completed);
      EXPECT_GT(runs[0].writes, 0u);
      EXPECT_GT(runs[0].reads, 0u);
      if (partitions == 1) {
        // Degenerate geometry: PALP is inert and its counters stay zero.
        EXPECT_EQ(runs[0].palp_overlapped_reads, 0u);
        EXPECT_EQ(runs[0].palp_pump_stalls, 0u);
        EXPECT_EQ(runs[0].palp_write_overlaps, 0u);
      }
      for (std::size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE("sim_threads index " + std::to_string(i));
        expect_identical(runs[0], runs[i]);
      }
    }
  }
  // Guard against a vacuous pass: at 4 partitions PALP must actually
  // overlap something.
  const auto active = run_palp_cell(4, 1, 1, 42);
  EXPECT_GT(active.palp_overlapped_reads + active.palp_write_overlaps, 0u);
}

TEST(Determinism, PalpTraceBytesInvariant) {
  // The palp trace category rides in the same rings as everything else,
  // so the byte-identity promise must hold with PALP emitting spans too.
  for (const u32 partitions : {1u, 4u}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    std::string baseline;
    for (const u32 threads : {1u, 4u}) {
      SCOPED_TRACE("sim_threads=" + std::to_string(threads));
      const std::string path = testing::TempDir() + "tw_palp_trace_p" +
                               std::to_string(partitions) + "_t" +
                               std::to_string(threads) + ".json";
      const auto m = run_palp_cell(partitions, 1, threads, 42, path);
      EXPECT_TRUE(m.completed);
      EXPECT_GT(m.trace_records, 0u);
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.is_open()) << path;
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      std::remove(path.c_str());
      ASSERT_FALSE(bytes.empty());
      if (baseline.empty()) {
        baseline = bytes;
      } else {
        EXPECT_EQ(baseline, bytes)
            << "palp trace bytes drifted with the pool-thread count";
      }
    }
  }
}

TEST(Determinism, DifferentSeedsActuallyDiffer) {
  // Guards against the trivial failure mode where the seed is ignored and
  // the two tests above pass vacuously.
  const auto a = run_small_matrix(1, 42);
  const auto b = run_small_matrix(1, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sim_events != b[i].sim_events ||
        a[i].runtime_ns != b[i].runtime_ns) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace tw
