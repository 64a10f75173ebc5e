#include "tw/harness/figure.hpp"

#include <cmath>

#include "tw/common/assert.hpp"
#include "tw/common/csv.hpp"
#include "tw/common/parallel.hpp"
#include "tw/common/strings.hpp"

namespace tw::harness {

Matrix run_matrix(const ConfigFn& config,
                  const std::vector<workload::WorkloadProfile>& workloads,
                  const std::vector<schemes::SchemeKind>& kinds,
                  std::size_t threads) {
  Matrix m;
  m.workloads = workloads;
  m.kinds = kinds;
  m.cells.assign(workloads.size(),
                 std::vector<RunMetrics>(kinds.size()));

  const std::size_t total = workloads.size() * kinds.size();
  parallel_for(
      total,
      [&](std::size_t i) {
        const std::size_t w = i / kinds.size();
        const std::size_t s = i % kinds.size();
        m.cells[w][s] =
            run_system(config(workloads[w]), workloads[w], kinds[s]);
      },
      threads);
  return m;
}

std::vector<std::vector<double>> normalized_values(
    const Matrix& m, const MetricFn& metric, std::size_t baseline_col) {
  TW_EXPECTS(baseline_col < m.kinds.size());
  std::vector<std::vector<double>> out;
  std::vector<double> geo(m.kinds.size(), 0.0);
  for (std::size_t w = 0; w < m.workloads.size(); ++w) {
    const double base = metric(m.at(w, baseline_col));
    std::vector<double> row(m.kinds.size(), 0.0);
    for (std::size_t s = 0; s < m.kinds.size(); ++s) {
      const double v = metric(m.at(w, s));
      row[s] = base == 0.0 ? 0.0 : v / base;
      geo[s] += std::log(row[s] > 0.0 ? row[s] : 1e-12);
    }
    out.push_back(std::move(row));
  }
  for (auto& g : geo)
    g = std::exp(g / static_cast<double>(m.workloads.size()));
  out.push_back(std::move(geo));
  return out;
}

AsciiTable normalized_table(const Matrix& m, const MetricFn& metric,
                            std::size_t baseline_col, int decimals) {
  const auto values = normalized_values(m, metric, baseline_col);
  AsciiTable t;
  std::vector<std::string> header = {"workload"};
  for (const auto kind : m.kinds)
    header.emplace_back(schemes::scheme_name(kind));
  t.set_header(std::move(header));
  for (std::size_t w = 0; w < m.workloads.size(); ++w) {
    std::vector<std::string> row = {m.workloads[w].name};
    for (std::size_t s = 0; s < m.kinds.size(); ++s) {
      row.push_back(fixed(values[w][s], decimals));
    }
    t.add_row(std::move(row));
  }
  t.add_separator();
  std::vector<std::string> gm = {"geomean"};
  for (std::size_t s = 0; s < m.kinds.size(); ++s) {
    gm.push_back(fixed(values.back()[s], decimals));
  }
  t.add_row(std::move(gm));
  return t;
}

void write_csv(const Matrix& m, std::ostream& out) {
  CsvWriter csv(out);
  std::vector<std::string> header = {"workload", "scheme"};
  for (const MetricDef& d : kMetrics) {
    if (d.csv) header.emplace_back(d.name);
  }
  csv.header(header);
  for (const auto& row : m.cells) {
    for (const RunMetrics& r : row) {
      std::vector<std::string> cells = {r.workload, r.scheme};
      for (const MetricDef& d : kMetrics) {
        if (d.csv) cells.push_back(fixed(d.get(r), d.decimals));
      }
      csv.row(cells);
    }
  }
}

}  // namespace tw::harness
