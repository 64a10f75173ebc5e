// tw_sweep: the ablation studies as one parallel sweep over knob-table
// keys (see sweep.hpp for the flags, EXPERIMENTS.md for every study's
// command line and takeaway).
//
//   $ ./tw_sweep --quick --vary=pcm.banks=2,4,8,16,32
//       --vary=scheme=paper --metric=read_latency_ns --normalize=scheme=dcw

#include "sweep.hpp"

int main(int argc, char** argv) { return tw::bench::sweep_main(argc, argv); }
