// micro_packer: packing-hot-path throughput baseline + differential.
//
// Measures the Tetris analysis pipeline the SIMD layer accelerates —
// read-stage SET/RESET counting (Alg. 1) feeding the first-fit-decreasing
// packer (Alg. 2) — against the frozen pre-SIMD implementation kept in
// tests/reference_packer.hpp (the committed baseline, same role the
// frozen scheduler oracle plays for micro_mem --reference). Three rows:
//
//   reference  frozen seed path (plan_unit loop + AoS insertion sort +
//              checked linear scans); its throughput is the baseline the
//              ">= 2x packing path" target is measured against
//   scalar     shipped SoA pipeline, TW_SIMD=scalar (the fallback; gated
//              to stay >= 0.95x of the reference)
//   avx2       shipped pipeline at the best supported ISA level
//
// and three workloads: single lines at the default 8-unit geometry
// (glue-bound; SIMD is expected to roughly tie), single lines at the
// 32-unit / 256 B geometry (count+scan bound; the >= 2x target), and the
// multi-line BatchPacker joint schedule (K=8) that only the shipped path
// provides — its reference comparator is the frozen per-line serial pack
// of the same lines, which is exactly what the pre-batching controller
// issued. Every row checksums its full schedule stream; any divergence
// between the reference and either shipped ISA level fails the run (an
// always-on three-way differential). --json writes the BENCH_packer.json
// baseline gated by cmake/check_bench.py (events_per_sec = 32-unit
// single-line count+pack/s at the best level; sim_writes_per_sec = batch
// lines/s). A last printed row times Tetris plan_write with its schedule
// self-check on (the TW_VERIFY=1 path); it is informational only, with
// no JSON field or gate.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "reference_packer.hpp"
#include "tw/common/rng.hpp"
#include "tw/common/simd.hpp"
#include "tw/core/batch_packer.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/packer.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/params.hpp"

using namespace tw;

namespace {

/// `lines` view consecutive records of `records`, laid out like the
/// DataStore's arena.
struct LinePairs {
  std::vector<std::byte> records;
  std::vector<pcm::LineBuf> lines;
  std::vector<pcm::LogicalLine> datas;
};

LinePairs make_pairs(u32 units, std::size_t n, u64 seed) {
  Rng rng(seed);
  LinePairs w;
  const std::size_t stride = pcm::line_record_bytes(units);
  w.records.assign(n * stride, std::byte{0});
  w.lines.reserve(n);
  w.datas.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    pcm::LineBuf line(w.records.data() + t * stride, units);
    pcm::LogicalLine data(units);
    for (u32 i = 0; i < units; ++i) {
      line.set_cell(i, rng.next());
      line.set_flip(i, rng.chance(0.5));
      // Partially-correlated new data: realistic mixed densities instead
      // of 50% flips everywhere.
      data.set_word(i, rng.chance(0.3)
                           ? rng.next()
                           : (line.cell(i) ^
                              (rng.next() & rng.next() & rng.next())));
    }
    w.lines.push_back(line);
    w.datas.push_back(std::move(data));
  }
  return w;
}

/// Fingerprint of a pack result: any divergence in counts, placements or
/// fit accounting changes it.
u64 fingerprint(const core::PackResult& r) {
  u64 h = 0x9E3779B97F4A7C15ull;
  auto mix = [&h](u64 v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(r.result);
  mix(r.subresult);
  mix(r.fit_checks);
  for (const auto& s : r.write1_queue) {
    mix((static_cast<u64>(s.unit) << 32) | s.write_unit);
    mix((static_cast<u64>(s.current) << 32) | s.passes);
  }
  for (const auto& s : r.write0_queue) {
    mix((static_cast<u64>(s.unit) << 32) | s.sub_slot);
    mix((static_cast<u64>(s.current) << 32) | s.passes);
  }
  return h;
}

struct PathResult {
  double ops_per_sec = 0.0;
  u64 checksum = 0;
};

/// Single-line packing path: read stage + pack per line, `reps` timed
/// sweeps plus one untimed sweep that checksums every schedule (so the
/// differential covers the full workload without diluting the measured
/// path with hashing). `reference` selects the frozen pre-SIMD
/// implementation.
PathResult run_single(const LinePairs& w, const core::PackerConfig& pcfg,
                      u32 bits, u32 reps, bool reference) {
  PathResult res;
  u64 sink = 0;
  bench::WallTimer timer;
  for (u32 rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < w.lines.size(); ++i) {
      const core::ReadStageResult read =
          reference ? testref::reference_read_stage(w.lines[i], w.datas[i],
                                                    bits)
                    : core::read_stage(w.lines[i], w.datas[i], bits);
      const core::PackResult r = reference
                                     ? testref::reference_pack(read.counts,
                                                               pcfg)
                                     : core::pack(read.counts, pcfg);
      sink += r.result + r.subresult;
    }
  }
  const double secs = timer.elapsed_ms() / 1000.0;
  res.ops_per_sec = static_cast<double>(w.lines.size()) * reps /
                    (secs > 0 ? secs : 1e-9);
  if (sink == 0) std::cerr << "(empty schedules)\n";  // keep `sink` live
  for (std::size_t i = 0; i < w.lines.size(); ++i) {
    const core::ReadStageResult read =
        reference
            ? testref::reference_read_stage(w.lines[i], w.datas[i], bits)
            : core::read_stage(w.lines[i], w.datas[i], bits);
    const core::PackResult r =
        reference ? testref::reference_pack(read.counts, pcfg)
                  : core::pack(read.counts, pcfg);
    // Order-dependent chain (not XOR: identical lines must not cancel).
    res.checksum = res.checksum * 1099511628211ull ^ fingerprint(r);
  }
  return res;
}

/// Multi-line packing path: BatchPacker joint schedules of `k` lines.
/// Shipped path only — the frozen reference has no batch stage (the
/// pre-batching controller packed each line separately; run_single on the
/// same pairs is its lines/s comparator).
PathResult run_batch(const LinePairs& w, const pcm::PcmConfig& cfg,
                     const core::PackerConfig& pcfg, u32 k, u32 reps) {
  const core::BatchPacker bp(cfg, core::BatchPackerOptions{});
  PathResult res;
  u64 sink = 0;
  bench::WallTimer timer;
  u64 batches = 0;
  for (u32 rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i + k <= w.lines.size(); i += k) {
      // pack_lines takes mutable pointers (the scheme-side caller applies
      // plans through them) but only reads the lines, so the measured
      // input stays identical across reps.
      pcm::LineBuf views[16];
      pcm::LineBuf* ptrs[16];
      for (u32 j = 0; j < k; ++j) {
        views[j] = w.lines[i + j];
        ptrs[j] = &views[j];
      }
      const core::BatchPackOutcome out = bp.pack_lines(
          {ptrs, k}, {w.datas.data() + i, k}, pcfg);
      sink += out.pack.result + out.pack.subresult;
      ++batches;
    }
  }
  const double secs = timer.elapsed_ms() / 1000.0;
  res.ops_per_sec =
      static_cast<double>(batches) * k / (secs > 0 ? secs : 1e-9);
  if (sink == 0) std::cerr << "(empty batch schedules)\n";
  for (std::size_t i = 0; i + k <= w.lines.size(); i += k) {
    pcm::LineBuf views[16];
    pcm::LineBuf* ptrs[16];
    for (u32 j = 0; j < k; ++j) {
      views[j] = w.lines[i + j];
      ptrs[j] = &views[j];
    }
    const core::BatchPackOutcome out =
        bp.pack_lines({ptrs, k}, {w.datas.data() + i, k}, pcfg);
    res.checksum = res.checksum * 1099511628211ull ^ fingerprint(out.pack);
  }
  return res;
}

/// Tetris plan_write lines/s with the schedule self-check on, over one
/// sweep of `w` (each write plans against a fresh copy of its line).
double run_self_check(const LinePairs& w, const pcm::PcmConfig& cfg) {
  core::TetrisOptions opts;
  opts.self_check = true;
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, cfg, opts);
  u64 sink = 0;
  bench::WallTimer timer;
  for (std::size_t i = 0; i < w.lines.size(); ++i) {
    pcm::LineImage copy(w.lines[i]);
    pcm::LineBuf work = copy.view();
    sink += scheme->plan_write(work, w.datas[i]).latency;
  }
  const double secs = timer.elapsed_ms() / 1000.0;
  if (sink == 0) std::cerr << "(zero-latency plans)\n";
  return static_cast<double>(w.lines.size()) / (secs > 0 ? secs : 1e-9);
}

core::PackerConfig packer_config(const pcm::PcmConfig& cfg) {
  core::PackerConfig pcfg;
  pcfg.k = cfg.k();
  pcfg.l = cfg.l();
  pcfg.budget = cfg.bank_power_budget();
  return pcfg;
}

std::string hex16(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options o = bench::Options::parse(argc, argv);
  const pcm::PcmConfig cfg;  // Table II device (8 x 64-bit units)
  pcm::PcmConfig cfg_wide = cfg;  // 256 B line stress geometry
  cfg_wide.geometry.cache_line_bytes = 256;
  const core::PackerConfig pcfg = packer_config(cfg);
  const core::PackerConfig pcfg_wide = packer_config(cfg_wide);
  const u32 bits = cfg.geometry.data_unit_bits;

  const std::size_t trials = o.quick ? 4'000 : 20'000;
  const u32 reps = o.quick ? 4 : 10;
  const u32 batch_k = 8;
  const LinePairs w = make_pairs(cfg.geometry.units_per_line(), trials,
                                 o.seed);
  const LinePairs w_wide = make_pairs(cfg_wide.geometry.units_per_line(),
                                      trials / 4, o.seed + 1);

  std::cout << "micro_packer: count+pack throughput (" << trials
            << " lines x " << reps << " reps, budget " << pcfg.budget
            << ", batch K=" << batch_k << ")\n"
            << "============================================================"
               "\n";

  const simd::Level restore = simd::active_level();
  struct Row {
    const char* name;
    bool reference;
    simd::Level level;
    PathResult single;
    PathResult wide;
    PathResult batch;
  };
  std::vector<Row> rows;
  rows.push_back({"reference", true, simd::Level::kScalar, {}, {}, {}});
  rows.push_back({"scalar", false, simd::Level::kScalar, {}, {}, {}});
  if (simd::avx2_supported()) {
    rows.push_back({"avx2", false, simd::Level::kAvx2, {}, {}, {}});
  }

  for (auto& row : rows) {
    simd::set_level(row.level);
    row.single = run_single(w, pcfg, bits, reps, row.reference);
    row.wide = run_single(w_wide, pcfg_wide, bits, reps, row.reference);
    if (!row.reference) {
      row.batch = run_batch(w, cfg, pcfg, batch_k, reps);
    }
  }
  simd::set_level(restore);

  AsciiTable t;
  t.set_header({"path", "8u packs/s", "32u packs/s", "batch(K=8) lines/s",
                "checksum(8u^32u)"});
  for (const auto& row : rows) {
    t.add_row({row.name, fixed(row.single.ops_per_sec, 0),
               fixed(row.wide.ops_per_sec, 0),
               row.reference ? std::string("per-line (=8u)")
                             : fixed(row.batch.ops_per_sec, 0),
               hex16(row.single.checksum ^ row.wide.checksum)});
  }
  t.print(std::cout);

  // Always-on three-way differential: the frozen reference and both
  // shipped ISA levels must produce bit-identical schedules everywhere.
  const Row& ref = rows.front();
  bool identical = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    identical = identical && rows[i].single.checksum == ref.single.checksum &&
                rows[i].wide.checksum == ref.wide.checksum &&
                rows[i].batch.checksum == rows[1].batch.checksum;
  }
  if (!identical) {
    std::cerr << "FAIL: packing paths diverged (reference vs shipped "
                 "scalar/avx2)\n";
    return 1;
  }

  const Row& best = rows.back();
  const double speed_8u = best.single.ops_per_sec / ref.single.ops_per_sec;
  const double speed_32u = best.wide.ops_per_sec / ref.wide.ops_per_sec;
  const double scalar_8u =
      rows[1].single.ops_per_sec / ref.single.ops_per_sec;
  const double scalar_32u = rows[1].wide.ops_per_sec / ref.wide.ops_per_sec;
  const double batch_vs_ref =
      best.batch.ops_per_sec / ref.single.ops_per_sec;
  std::cout << "\nspeedup vs frozen reference: 8u " << fixed(speed_8u, 2)
            << "x, 32u " << fixed(speed_32u, 2) << "x (target >= 2x), batch "
            << fixed(batch_vs_ref, 2)
            << "x lines/s; scalar fallback 8u " << fixed(scalar_8u, 2)
            << "x, 32u " << fixed(scalar_32u, 2)
            << "x (floor 0.95x); bit-identical schedules\n";
  std::cout << "tetris plan_write with self-check (TW_VERIFY=1 path): "
            << fixed(run_self_check(w, cfg), 0) << " lines/s\n";

  if (!o.json_path.empty()) {
    bench::BenchBaseline b;
    b.bench = "micro_packer";
    b.config = std::string("count+pack vs frozen reference, level=") +
               simd::level_name(restore) + ", speedup_32u=" +
               std::string(fixed(speed_32u, 2)) + "x, speedup_8u=" +
               std::string(fixed(speed_8u, 2)) + "x, scalar_32u=" +
               std::string(fixed(scalar_32u, 2)) + "x, batch K=" +
               std::to_string(batch_k);
    b.wall_ms = 0.0;  // per-path timing is in the columns above
    b.events_per_sec = best.wide.ops_per_sec;
    b.sim_writes_per_sec = best.batch.ops_per_sec;
    bench::write_bench_json(o.json_path, b);
  }
  return 0;
}
