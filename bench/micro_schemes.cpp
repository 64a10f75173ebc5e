// Microbenchmark: plan_write throughput of Tetris with its schedule
// self-check on (the TW_VERIFY=1 path), which no gated benchmark times.
// The schemes' production paths are timed by twbench's
// scheme.ns_per_line, the scalar/AVX2 and multi-line packing paths by
// micro_packer.

#include <benchmark/benchmark.h>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"

namespace {

using namespace tw;

void BM_TetrisSelfCheck(benchmark::State& s) {
  // A random 64 B line and a next value ~10 bits per word away.
  pcm::LineBuf line{8};
  pcm::LogicalLine next{8};
  Rng rng(42);
  for (u32 i = 0; i < 8; ++i) line.set_cell(i, rng.next());
  for (u32 i = 0; i < 8; ++i) {
    u64 w = line.logical(i);
    for (u32 b = 0; b < 10; ++b) {
      w = with_bit(w, static_cast<u32>(rng.below(64)), rng.chance(0.7));
    }
    next.set_word(i, w);
  }
  core::TetrisOptions opts;
  opts.self_check = true;
  const auto scheme = core::make_scheme(schemes::SchemeKind::kTetris,
                                        pcm::table2_config(), opts);
  for (auto _ : s) {
    pcm::LineBuf work = line;  // plan_write mutates; copy per iteration
    benchmark::DoNotOptimize(scheme->plan_write(work, next));
  }
}

BENCHMARK(BM_TetrisSelfCheck);

}  // namespace
