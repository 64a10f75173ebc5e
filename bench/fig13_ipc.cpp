// Figure 13 reproduction: IPC improvement over the DCW baseline (Eq. 6).
//
// Paper averages: FNW 1.4x, 2-Stage 1.6x, Three-Stage 1.8x, Tetris 2.0x.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  return tw::bench::system_figure(
      argc, argv, tw::bench::kSystemFigures[2],
      "paper: fnw 1.4x, 2stage 1.6x, 3stage 1.8x, tetris 2.0x");
}
