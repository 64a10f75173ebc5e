// Figure 12 reproduction: average memory write latency (queueing +
// service), normalized to the DCW baseline.
//
// Paper averages: Tetris -40%; Tetris beats FNW / 2-Stage / Three-Stage
// by a further 15% / 7% / 5%, putting them at roughly 0.75 / 0.67 / 0.65.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  return tw::bench::system_figure(
      argc, argv, tw::bench::kSystemFigures[1],
      "paper: fnw 0.75, 2stage 0.67, 3stage 0.65, tetris 0.60");
}
