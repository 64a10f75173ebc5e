// Memory-controller scheduling microbenchmark.
//
// Drives one controller in a closed loop: a pre-generated request ring
// keeps both queues saturated (refilling on the space callback), so the
// measured rate is dominated by the controller's scheduling decisions —
// queue scans, candidate selection, drain bookkeeping — rather than by
// request supply (the traffic is generated outside the timed region).
// The matrix covers queue depths 4/16/64 under a read-dominant (80/20,
// opportunistic drain) and a write-dominant (20/80, strict drain) mix.
//
// Prints scheduling decisions (issued commands) per second for each cell
// and (with --json) records the aggregate baseline to BENCH_mem.json so
// the CI bench-smoke job can flag controller-throughput regressions.
//
// --reference benches the frozen linear-scan oracle
// (tests/reference_controller.hpp) instead of the production controller:
// the differential test proves the two perform identical scheduling work,
// so the pair of runs is a controlled A/B of the bank-indexed fast path.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "reference_controller.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/mem/controller.hpp"
#include "tw/mem/start_gap.hpp"
#include "tw/sim/simulator.hpp"

namespace {

using namespace tw;

struct MixResult {
  u64 decisions = 0;  ///< commands issued (reads + writes serviced)
  u64 reads = 0;
  u64 writes = 0;
  double wall_ms = 0.0;
};

/// Run one (queue depth, write fraction) cell until `target` requests
/// complete. Requests come from a pre-built ring (a pure function of the
/// seed), replayed sticky-on-rejection so backpressure never desyncs the
/// stream — and so generation cost stays out of the timed region.
template <class ControllerT>
MixResult run_mix(u32 depth, double write_frac, bool strict_drain,
                  u64 target, u64 seed) {
  const pcm::PcmConfig pc = pcm::table2_config();
  const auto scheme = core::make_scheme(schemes::SchemeKind::kDcw, pc);
  sim::Simulator sim;
  stats::Registry reg;

  mem::ControllerConfig cc;
  cc.read_queue_entries = depth;
  cc.write_queue_entries = depth;
  cc.drain_low_watermark = depth / 2;
  cc.drain = strict_drain ? mem::ControllerConfig::DrainPolicy::kStrict
                          : mem::ControllerConfig::DrainPolicy::kOpportunistic;
  // Coalescing/forwarding off: merged requests would bypass scheduling,
  // which is exactly the path under measurement.
  cc.write_coalescing = false;
  cc.read_forwarding = false;
  ControllerT ctl(sim, pc, cc, *scheme, reg, seed);

  const u32 units = pc.geometry.units_per_line();
  const u64 lines = 4096;  // spreads over all banks, many rows per bank
  Rng rng(seed);
  std::vector<mem::MemoryRequest> ring(1u << 14);
  for (mem::MemoryRequest& r : ring) {
    r.addr = rng.below(lines) * pc.geometry.cache_line_bytes;
    if (rng.chance(write_frac)) {
      r.type = mem::ReqType::kWrite;
      r.data = pcm::LogicalLine(units);
      for (u32 i = 0; i < units; ++i) r.data.set_word(i, rng.next());
    } else {
      r.type = mem::ReqType::kRead;
    }
  }

  u64 completed = 0;
  u64 pos = 0;
  bool stop = false;
  auto pump = [&] {
    while (!stop) {
      // Sticky: `pos` only advances past an accepted request.
      if (!ctl.enqueue(ring[pos & (ring.size() - 1)])) break;
      ++pos;
    }
  };
  ctl.set_space_callback(pump);
  ctl.set_read_callback([&](const mem::MemoryRequest&) {
    if (++completed >= target) stop = true;
  });
  ctl.set_write_callback([&](const mem::MemoryRequest&) {
    if (++completed >= target) stop = true;
  });

  const tw::bench::WallTimer timer;
  pump();
  sim.run();

  MixResult res;
  res.reads = reg.counter("mem.reads").value();
  res.writes = reg.counter("mem.writes").value();
  res.decisions = res.reads + res.writes;
  res.wall_ms = timer.elapsed_ms();
  return res;
}

/// Single-component micro timings: Start-Gap map and data-store touch.
void run_component_micros() {
  {
    mem::StartGapConfig cfg;
    cfg.region_lines = 1 << 16;
    mem::StartGapLeveler lev(cfg);
    const u64 iters = 2'000'000;
    u64 sink = 0;
    const tw::bench::WallTimer t;
    for (u64 l = 0; l < iters; ++l) sink += lev.map(l & 0xFFFF);
    const double ms = t.elapsed_ms();
    std::printf("start-gap map:        %7.1f ns/op  (sink %llx)\n",
                ms * 1e6 / static_cast<double>(iters),
                static_cast<unsigned long long>(sink & 0xF));
  }
  {
    mem::DataStore store(8, 1, 0.35);
    const u64 iters = 200'000;
    u64 sink = 0;
    const tw::bench::WallTimer t;
    for (u64 i = 0; i < iters; ++i) sink += store.line(i * 64).cell(0);
    const double ms = t.elapsed_ms();
    std::printf("data-store touch:     %7.1f ns/op  (sink %llx)\n",
                ms * 1e6 / static_cast<double>(iters),
                static_cast<unsigned long long>(sink & 0xF));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const tw::bench::Options o = tw::bench::Options::parse(
      argc, argv,
      {{"reference", "bench the frozen linear-scan reference controller"}});
  const bool reference = o.has("reference");
  const u64 target = o.quick ? 30'000 : 120'000;

  std::printf("micro_mem: controller scheduling throughput%s\n",
              reference ? " (reference linear-scan controller)" : "");
  std::printf("===========================================\n");
  std::printf("(%llu completions per cell, DCW scheme, queues saturated)\n\n",
              static_cast<unsigned long long>(target));

  struct Cell {
    const char* name;
    double write_frac;
    bool strict;
  };
  const Cell mixes[] = {
      {"read-dominant  80r/20w opportunistic", 0.2, false},
      {"write-dominant 20r/80w strict-drain ", 0.8, true},
  };
  const u32 depths[] = {4, 16, 64};

  u64 total_decisions = 0;
  double total_ms = 0.0;
  for (const Cell& mix : mixes) {
    for (const u32 depth : depths) {
      const MixResult r =
          reference
              ? run_mix<mem::ref::ReferenceController>(
                    depth, mix.write_frac, mix.strict, target, o.seed)
              : run_mix<mem::Controller>(depth, mix.write_frac, mix.strict,
                                         target, o.seed);
      const double dps =
          static_cast<double>(r.decisions) / (r.wall_ms / 1000.0);
      std::printf("%s  depth %2u: %8.1f ms  %12.0f decisions/sec\n",
                  mix.name, depth, r.wall_ms, dps);
      total_decisions += r.decisions;
      total_ms += r.wall_ms;
    }
  }
  const double agg =
      static_cast<double>(total_decisions) / (total_ms / 1000.0);
  std::printf("\naggregate:          %10.1f ms  %12.0f decisions/sec\n",
              total_ms, agg);

  std::printf("\ncomponent micros:\n");
  run_component_micros();

  if (!o.json_path.empty()) {
    tw::bench::BenchBaseline b;
    b.bench = "micro_mem";
    b.config = std::string(o.quick ? "quick" : "full") +
               " completions=" + std::to_string(target) +
               " depths=4/16/64 mixes=r80/w80 seed=" +
               std::to_string(o.seed) +
               (reference ? " controller=reference" : " controller=indexed");
    b.wall_ms = total_ms;
    b.events_per_sec = agg;  // scheduling decisions per second
    b.sim_writes_per_sec = 0.0;
    tw::bench::write_bench_json(o.json_path, b);
  }
  return 0;
}
