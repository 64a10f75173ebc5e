// Figure 14 reproduction: application running time, normalized to the
// DCW baseline.
//
// Paper averages: Tetris -46%; FNW / 2-Stage / Three-Stage trail Tetris
// by 22% / 12% / 7%, i.e. roughly 0.76 / 0.66 / 0.61 vs Tetris 0.54.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  return tw::bench::system_figure(
      argc, argv, tw::bench::kSystemFigures[3],
      "paper: fnw 0.76, 2stage 0.66, 3stage 0.61, tetris 0.54");
}
