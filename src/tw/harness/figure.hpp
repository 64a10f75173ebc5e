#pragma once
// Figure harness: sweep (workload x scheme) cells in parallel, normalize
// against the DCW baseline, and render the paper-style tables.

#include <functional>
#include <ostream>
#include <vector>

#include "tw/common/table.hpp"
#include "tw/harness/experiment.hpp"

namespace tw::harness {

/// Result matrix: rows = workloads, columns = schemes (same order as the
/// inputs to run_matrix).
struct Matrix {
  std::vector<workload::WorkloadProfile> workloads;
  std::vector<schemes::SchemeKind> kinds;
  std::vector<std::vector<RunMetrics>> cells;  ///< [workload][scheme]

  const RunMetrics& at(std::size_t w, std::size_t s) const {
    return cells[w][s];
  }
};

/// The configuration a matrix runs one workload's cells under.
using ConfigFn = std::function<SystemConfig(const workload::WorkloadProfile&)>;

/// Run every (workload, scheme) cell under config(workload). Cells are
/// independent simulations and run across a thread pool; results are
/// deterministic regardless of the thread count.
Matrix run_matrix(const ConfigFn& config,
                  const std::vector<workload::WorkloadProfile>& workloads,
                  const std::vector<schemes::SchemeKind>& kinds,
                  std::size_t threads = 0);

/// Extract one scalar metric from a run.
using MetricFn = std::function<double(const RunMetrics&)>;

/// Render the value normalized to column `baseline_col` per workload
/// (the paper's Figures 11/12/14 style), with a geometric-mean row.
AsciiTable normalized_table(const Matrix& m, const MetricFn& metric,
                            std::size_t baseline_col, int decimals = 3);

/// Per-workload ratio of metric to baseline column; row-major workloads,
/// plus the geometric mean over workloads as the last entry.
std::vector<std::vector<double>> normalized_values(const Matrix& m,
                                                   const MetricFn& metric,
                                                   std::size_t baseline_col);

/// Write the full raw matrix as CSV (one row per cell).
void write_csv(const Matrix& m, std::ostream& out);

}  // namespace tw::harness
