// report_all: run the full (workload x scheme) matrix ONCE and print
// every system figure from it (Figures 11-14), optionally dumping the raw
// CSV and per-figure SVGs — the one-command reproduction of the paper's
// evaluation section.
//
//   $ ./report_all [--quick] [--ops=N] [--seed=N] [--csv=DIR_PREFIX]
//                  [--svg=DIR_PREFIX]

#include <fstream>
#include <iostream>

#include "bench_util.hpp"

using namespace tw;

int main(int argc, char** argv) {
  const bench::Options o = bench::Options::parse(argc, argv);

  std::cout << "Tetris Write — full evaluation report\n"
            << "======================================\n"
            << "config: " << pcm::table2_config().describe() << "\n\n";

  const harness::Matrix m = bench::run_paper_matrix(o);
  if (bench::report_incomplete(m, std::cerr) > 0) return 1;

  bool all_ok = true;
  for (std::size_t i = 0; i < bench::kSystemFigures.size(); ++i) {
    const bench::SystemFigure& f = bench::kSystemFigures[i];
    std::cout << f.title << "\n";
    all_ok = bench::print_figure(m, f, std::cout) && all_ok;
    if (!o.svg_path.empty()) {
      const std::string path =
          o.svg_path + "_fig" + std::to_string(11 + i) + ".svg";
      bench::write_svg(m, harness::normalized_values(m, f.metric, 0),
                       f.title, f.y_label, path);
      std::cout << "(wrote " << path << ")\n";
    }
    std::cout << "\n";
  }

  if (!o.csv_path.empty()) {
    std::ofstream out(o.csv_path);
    harness::write_csv(m, out);
    std::cout << "(raw matrix written to " << o.csv_path << ")\n";
  }
  std::cout << (all_ok
                    ? "shape: OK — every figure's scheme ranking matches "
                      "the paper\n"
                    : "shape: MISMATCH\n");
  return all_ok ? 0 : 1;
}
