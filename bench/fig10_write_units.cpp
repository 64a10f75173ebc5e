// Figure 10 reproduction: the average number of sequentially executed
// write units per cache-line write, per scheme and workload.
//
// Paper: DCW baseline 8; Flip-N-Write 4; 2-Stage-Write 3;
// Three-Stage-Write 2.5; Tetris Write 1.06-1.46 depending on workload
// (worst for dedup/vips with many bit operations).

#include <iostream>

#include "bench_util.hpp"

using namespace tw;

int main(int argc, char** argv) {
  const bench::Options o = bench::Options::parse(argc, argv);
  const u64 writes_per_workload = o.quick ? 800 : 5'000;

  std::cout << "Figure 10: average number of write units per cache-line "
               "write\n"
            << "==========================================================="
               "\n"
            << "(paper: dcw 8, fnw 4, 2stage 3, 3stage 2.5, tetris "
               "1.06-1.46)\n\n";

  const auto kinds = bench::paper_columns();
  AsciiTable t;
  {
    std::vector<std::string> header = {"workload"};
    for (const auto k : kinds) header.emplace_back(schemes::scheme_name(k));
    t.set_header(std::move(header));
  }

  std::vector<stats::Accumulator> per_scheme(kinds.size());
  double tetris_min = 1e9, tetris_max = 0;
  for (const auto& p : workload::parsec_profiles()) {
    // Each scheme replays the same write stream against its own copy of
    // memory, so the data is identical.
    std::vector<std::string> row = {p.name};
    for (std::size_t s = 0; s < kinds.size(); ++s) {
      const double units =
          bench::plan_stream(bench::system_config(p, o), p, kinds[s],
                             writes_per_workload)
              .write_units;
      per_scheme[s].add(units);
      row.push_back(fixed(units, 2));
      if (kinds[s] == schemes::SchemeKind::kTetris) {
        tetris_min = std::min(tetris_min, units);
        tetris_max = std::max(tetris_max, units);
      }
    }
    t.add_row(std::move(row));
  }
  t.add_separator();
  {
    std::vector<std::string> avg = {"average"};
    for (auto& acc : per_scheme) avg.push_back(fixed(acc.mean(), 2));
    t.add_row(std::move(avg));
    t.add_row({"paper", "8.00", "4.00", "3.00", "2.50", "1.06-1.46"});
  }
  t.print(std::cout);

  std::cout << "\ntetris range across workloads: [" << fixed(tetris_min, 2)
            << ", " << fixed(tetris_max, 2) << "] (paper: [1.06, 1.46])\n";
  const bool ok = per_scheme[4].mean() < per_scheme[3].mean() &&
                  per_scheme[3].mean() < per_scheme[2].mean() &&
                  per_scheme[2].mean() < per_scheme[1].mean() &&
                  per_scheme[1].mean() < per_scheme[0].mean() &&
                  tetris_min > 0.8 && tetris_max < 2.0;
  std::cout << (ok ? "shape: OK — ranking and Tetris range match\n"
                   : "shape: MISMATCH\n");
  return ok ? 0 : 1;
}
