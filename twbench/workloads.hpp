#pragma once
// The benchmark's three workloads and the paper-fidelity check.
//
// Every workload is closed-loop: each simulated core issues its next
// request only after the memory front accepted the previous one, with at
// most core.mlp reads outstanding (the library's cpu::Core model).

#include <optional>
#include <string_view>
#include <vector>

#include "cell.hpp"
#include "tw/harness/figure.hpp"

namespace twbench {

struct Workload {
  std::string name;
  /// Cells of one timed pass, run one after another.
  std::vector<Cell> cells;
  /// Indices into `cells` of the Tetris cells whose simulated IPC and
  /// latencies are reported (geomean when there are several).
  std::vector<std::size_t> tetris;
  /// True when `cells` are paper_matrix_cells(): the scheme ranking is
  /// then checked on every pass and the fidelity figure comes free.
  bool paper_matrix = false;
};

inline constexpr std::string_view kWorkloadNames[] = {
    "paper_matrix", "write_storm_8ch", "read_wear_leveled"};

/// Build the named workload for `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed);

/// The paper matrix: the 8 PARSEC profiles × kPaperColumns at Table II
/// defaults (4 cores, 1 channel) and figure size, row by row.
std::vector<Cell> paper_matrix_cells(std::uint64_t seed);

/// Scheme columns of the paper matrix: the DCW baseline, then fnw,
/// 2stage, 3stage, tetris.
extern const std::vector<tw::schemes::SchemeKind> kPaperColumns;

/// Matrix view of consecutive rows of kPaperColumns results.
tw::harness::Matrix as_matrix(const std::vector<Cell>& cells,
                              const std::vector<tw::harness::RunMetrics>& runs);

struct Fidelity {
  /// Mean |measured / paper − 1| over the 16 scheme × figure geomeans of
  /// Figs. 11–14, in percent.
  double err_pct = 0.0;
  /// Columns (1..4) whose place in some figure's ranking disagrees with
  /// the paper's.
  std::vector<std::size_t> misranked;

  /// Whether matrix cell `cell` (row-major) sits in a misranked column.
  bool misranks(std::size_t cell) const;
};

Fidelity paper_fidelity(const tw::harness::Matrix& m);

}  // namespace twbench
