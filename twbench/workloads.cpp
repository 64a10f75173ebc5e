#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "tw/workload/profiles.hpp"

namespace twbench {

namespace {

using tw::schemes::SchemeKind;
using tw::harness::RunMetrics;

/// Instruction budget giving about `ops` memory requests per core; the
/// same rule and clamps as the figure binaries (bench/bench_util.hpp).
tw::u64 instructions_for(const tw::workload::WorkloadProfile& p,
                         double ops) {
  const auto wanted =
      static_cast<tw::u64>(ops * 1000.0 / p.mem_ops_per_kilo());
  return std::min<tw::u64>(std::max<tw::u64>(wanted, 20'000), 60'000'000);
}

/// Requests per core of a figure-binary run (bench::Options default).
constexpr double kFigureOps = 1500;

/// Table II defaults at figure size: 4 cores, 1 channel.
Cell table2_cell(const tw::workload::WorkloadProfile& p, SchemeKind kind,
                 std::uint64_t seed) {
  Cell c;
  c.cfg.instructions_per_core = instructions_for(p, kFigureOps);
  c.cfg.seed = seed;
  c.profile = p;
  c.kind = kind;
  return c;
}

/// Paper averages, normalized to DCW, for fnw, 2stage, 3stage, tetris —
/// the values bench/fig1{1,2,3,4}_*.cpp compare against.
struct PaperFigure {
  bool higher_is_better;
  double (*metric)(const RunMetrics&);
  double paper[4];
};

const PaperFigure kPaperFigures[] = {
    {false, [](const RunMetrics& m) { return m.read_latency_ns; },
     {0.61, 0.50, 0.44, 0.35}},
    {false, [](const RunMetrics& m) { return m.write_latency_ns; },
     {0.75, 0.67, 0.65, 0.60}},
    {true, [](const RunMetrics& m) { return m.ipc; }, {1.4, 1.6, 1.8, 2.0}},
    {false, [](const RunMetrics& m) { return m.runtime_ns; },
     {0.76, 0.66, 0.61, 0.54}},
};

}  // namespace

const std::vector<SchemeKind> kPaperColumns = {
    SchemeKind::kDcw, SchemeKind::kFlipNWrite, SchemeKind::kTwoStage,
    SchemeKind::kThreeStage, SchemeKind::kTetris};

std::vector<Cell> paper_matrix_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (const auto& p : tw::workload::parsec_profiles()) {
    for (const SchemeKind kind : kPaperColumns) {
      cells.push_back(table2_cell(p, kind, seed));
    }
  }
  return cells;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  Workload w;
  if (name == "paper_matrix") {
    // The figure set users run: reads and writes mixed, every scheme.
    w.cells = paper_matrix_cells(seed);
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      if (w.cells[i].kind == SchemeKind::kTetris) w.tetris.push_back(i);
    }
    w.paper_matrix = true;
  } else if (name == "write_storm_8ch") {
    // Write-saturated traffic through the sharded engine, XBar credit
    // backpressure and batched Tetris packing. Four short cells on seeds
    // derived from the run's seed, rather than one long one: the host
    // time of each is measured best-of-passes, which a busy shared host
    // disturbs less for short cells, and the simulated figures average
    // over four traffic draws.
    const auto& vips = tw::workload::profile_by_name("vips");
    for (std::uint64_t k = 0; k < 4; ++k) {
      Cell c = table2_cell(vips, SchemeKind::kTetris, seed * 4 + k);
      c.cfg.instructions_per_core = instructions_for(vips, kFigureOps / 4);
      c.cfg.cores = 32;
      c.cfg.pcm.geometry.channels = 8;
      c.cfg.pcm.geometry.channel_interleave =
          tw::pcm::ChannelInterleave::kLine;
      c.cfg.batch.max_lines = 4;
      c.cfg.sim_threads = 2;
      w.tetris.push_back(w.cells.size());
      w.cells.push_back(std::move(c));
    }
  } else if (name == "read_wear_leveled") {
    // Read-dominant traffic through the controller's exact-dispatch
    // fallback (Start-Gap and write pausing on).
    // At figure size a ~150 ms fixed cost of the wear-leveling path hides
    // the per-event dispatch cost, so each core issues 20x as many
    // requests.
    const auto& canneal = tw::workload::profile_by_name("canneal");
    Cell c = table2_cell(canneal, SchemeKind::kTetris, seed);
    c.cfg.instructions_per_core = instructions_for(canneal, 20 * kFigureOps);
    c.cfg.controller.wear_leveling = true;
    c.cfg.controller.write_pausing = true;
    w.cells.push_back(std::move(c));
    w.tetris.push_back(0);
  } else {
    return std::nullopt;
  }
  w.name = std::string(name);
  return w;
}

tw::harness::Matrix as_matrix(const std::vector<Cell>& cells,
                              const std::vector<RunMetrics>& runs) {
  tw::harness::Matrix m;
  m.kinds = kPaperColumns;
  const std::size_t cols = kPaperColumns.size();
  for (std::size_t r = 0; r + cols <= cells.size(); r += cols) {
    m.workloads.push_back(cells[r].profile);
    m.cells.emplace_back(runs.begin() + static_cast<std::ptrdiff_t>(r),
                         runs.begin() + static_cast<std::ptrdiff_t>(r + cols));
  }
  return m;
}

bool Fidelity::misranks(std::size_t cell) const {
  return std::find(misranked.begin(), misranked.end(),
                   cell % kPaperColumns.size()) != misranked.end();
}

Fidelity paper_fidelity(const tw::harness::Matrix& m) {
  Fidelity f;
  double err = 0.0;
  std::size_t n = 0;
  for (const PaperFigure& fig : kPaperFigures) {
    const std::vector<double> geo =
        tw::harness::normalized_values(m, fig.metric, 0).back();
    for (std::size_t s = 1; s < geo.size(); ++s) {
      const double paper = fig.paper[s - 1];
      err += std::fabs(geo[s] / paper - 1.0);
      ++n;
      if (s < 2) continue;
      // The figure binaries' shape rule: adjacent columns must keep the
      // paper's order (ties in the paper constrain nothing).
      const double paper_prev = fig.paper[s - 2];
      const bool misranked =
          fig.higher_is_better
              ? (geo[s] > geo[s - 1]) != (paper > paper_prev)
              : paper != paper_prev &&
                    (geo[s] < geo[s - 1]) != (paper < paper_prev);
      if (misranked &&
          std::find(f.misranked.begin(), f.misranked.end(), s) ==
              f.misranked.end()) {
        f.misranked.push_back(s);
      }
    }
  }
  f.err_pct = 100.0 * err / static_cast<double>(n);
  return f;
}

}  // namespace twbench
