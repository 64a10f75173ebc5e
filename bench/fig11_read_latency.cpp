// Figure 11 reproduction: average memory read latency, normalized to the
// DCW baseline, per scheme and workload.
//
// Paper averages: FNW -39%, 2-Stage -50%, Three-Stage -56%, Tetris -65%.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  return tw::bench::system_figure(
      argc, argv, tw::bench::kSystemFigures[0],
      "paper: fnw 0.61, 2stage 0.50, 3stage 0.44, tetris 0.35");
}
