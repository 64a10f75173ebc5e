#pragma once
// One simulated cell (system config × workload profile × scheme), built
// the way harness::run_system builds it but with the set-up and the
// simulation timed apart, and optionally with the layer probes in place.

#include <string>
#include <vector>

#include "span.hpp"
#include "tw/harness/experiment.hpp"

namespace twbench {

struct Cell {
  tw::harness::SystemConfig cfg;
  tw::workload::WorkloadProfile profile;
  tw::schemes::SchemeKind kind = tw::schemes::SchemeKind::kTetris;
};

/// "profile/scheme", for messages.
std::string cell_label(const Cell& cell);

/// Layer figures of one probed cell.
struct CellLayers {
  std::vector<ThreadSpans> raw;  ///< every span recorded, per thread
  Reduction spans;               ///< `raw` reduced
  std::uint64_t enqueue_accepted = 0;
  std::uint64_t scheme_lines = 0;
};

struct CellRun {
  tw::harness::RunMetrics m;
  double write_units_total = 0.0;  ///< serial write units over all lines
  double setup_s = 0.0;  ///< host time building the system
  double timed_s = 0.0;  ///< host time from cores' start to quiescence
  CellLayers layers;     ///< zero unless run with a recorder
};

/// Run `cell`. With `rec` null the assembly is bare (no probes); with a
/// recorder, every layer seam is probed and the spans move into
/// CellRun::layers (the recorder is drained).
CellRun run_cell(const Cell& cell, SpanRecorder* rec);

/// Names of the RunMetrics fields on which `a` and `b` differ (exact
/// comparison, NaN equal to NaN). Empty when they agree everywhere.
std::vector<std::string> metric_diffs(const tw::harness::RunMetrics& a,
                                      const tw::harness::RunMetrics& b);

}  // namespace twbench
