// Pure event-loop microbenchmark for the simulation kernel.
//
// Measures raw schedule/fire throughput of tw::sim::Simulator with no
// memory system attached, in two flavors:
//
//   * noop chains    — 64 concurrent self-rescheduling chains whose
//     callbacks capture only a pointer-sized context (the cheapest event
//     the kernel ever sees: pure queue + dispatch cost);
//   * capture chains — the same chains but each callback carries a 40-byte
//     payload it folds into a sink, exercising the inline-callback
//     small-buffer move/invoke path the memory controller relies on;
//   * sparse chains  — two chains 100-900 ns apart that peek next_tick()
//     before each reschedule: the shape of an idle channel domain, whose
//     wheel is mostly empty buckets between events.
//
// Prints events/sec for all three and (with --json) records the combined
// noop + capture baseline to BENCH_kernel.json so future PRs can track
// the kernel's throughput trajectory. The sparse flavor is printed only.

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench_util.hpp"
#include "tw/common/rng.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/trace/emit.hpp"
#include "tw/trace/tracer.hpp"

namespace {

using namespace tw;

struct ChainState {
  sim::Simulator* sim = nullptr;
  SplitMix64 rng{0};
  u64 remaining = 0;  ///< events this chain still has to fire
  u64 fired = 0;
};

/// Run `chains` self-rescheduling no-op chains until `total_events` fired.
u64 run_noop_chains(u64 total_events, u32 chains, u64 seed) {
  sim::Simulator sim;
  std::vector<ChainState> states(chains);
  const u64 per_chain = total_events / chains;
  for (u32 c = 0; c < chains; ++c) {
    states[c].sim = &sim;
    states[c].rng = SplitMix64(seed + c);
    states[c].remaining = per_chain;
  }
  struct Step {
    ChainState* s;
    void operator()() const {
      if (--s->remaining == 0) return;
      ++s->fired;
      s->sim->schedule_in(1 + (s->rng.next() & 0x3FF), Step{s});
    }
  };
  for (u32 c = 0; c < chains; ++c) {
    sim.schedule_in(1 + (states[c].rng.next() & 0x3FF), Step{&states[c]});
  }
  sim.run();
  return sim.executed();
}

/// Same chains, but every event carries a 40-byte payload.
u64 run_capture_chains(u64 total_events, u32 chains, u64 seed,
                       u64* sink_out) {
  sim::Simulator sim;
  std::vector<ChainState> states(chains);
  const u64 per_chain = total_events / chains;
  u64 sink = 0;
  for (u32 c = 0; c < chains; ++c) {
    states[c].sim = &sim;
    states[c].rng = SplitMix64(seed * 33 + c);
    states[c].remaining = per_chain;
  }
  struct Step {
    ChainState* s;
    u64* sink;
    std::array<u64, 3> payload;  // 40 B capture total: exercises the SBO
    void operator()() const {
      *sink += payload[0] ^ payload[1] ^ payload[2];
      if (--s->remaining == 0) return;
      Step next{s, sink, {s->rng.next(), payload[0] + 1, payload[1] + 1}};
      s->sim->schedule_in(1 + (s->rng.next() & 0x3FF), next);
    }
  };
  for (u32 c = 0; c < chains; ++c) {
    Step first{&states[c], &sink,
               {states[c].rng.next(), states[c].rng.next(), u64{c}}};
    sim.schedule_in(1 + (states[c].rng.next() & 0x3FF), first);
  }
  sim.run();
  *sink_out = sink;
  return sim.executed();
}

/// Two chains with 100-900 ns delays; each event peeks next_tick() before
/// rescheduling, as the sharded engine peeks an idle channel's kernel.
u64 run_sparse_chains(u64 total_events, u64 seed, u64* sink_out) {
  constexpr u32 kChains = 2;
  sim::Simulator sim;
  std::vector<ChainState> states(kChains);
  u64 sink = 0;
  for (u32 c = 0; c < kChains; ++c) {
    states[c].sim = &sim;
    states[c].rng = SplitMix64(seed * 77 + c);
    states[c].remaining = total_events / kChains;
  }
  struct Step {
    ChainState* s;
    u64* sink;
    void operator()() const {
      *sink += s->sim->next_tick();
      if (--s->remaining == 0) return;
      s->sim->schedule_in(100'000 + s->rng.next() % 800'001, Step{s, sink});
    }
  };
  for (u32 c = 0; c < kChains; ++c) {
    sim.schedule_in(100'000 + states[c].rng.next() % 800'001,
                    Step{&states[c], &sink});
  }
  sim.run();
  *sink_out = sink;
  return sim.executed();
}

/// Noop chains whose callbacks additionally execute `checks` disabled
/// trace-category tests, each behind a compiler barrier so the TLS load
/// can't be hoisted out of the loop. Amplifying the per-site check this
/// way lifts its cost far above timer noise; the K=0 vs K=kAmp slope then
/// yields the true per-event price of compiled-in-but-disabled tracing.
u64 run_check_chains(u64 total_events, u32 chains, u64 seed, u32 checks,
                     u64* sink_out) {
  sim::Simulator sim;
  std::vector<ChainState> states(chains);
  const u64 per_chain = total_events / chains;
  u64 sink = 0;
  for (u32 c = 0; c < chains; ++c) {
    states[c].sim = &sim;
    states[c].rng = SplitMix64(seed + c);
    states[c].remaining = per_chain;
  }
  struct Step {
    ChainState* s;
    u64* sink;
    u32 checks;
    void operator()() const {
      u64 hits = 0;
      for (u32 k = 0; k < checks; ++k) {
        __asm__ __volatile__("" ::: "memory");
        hits += trace::on<trace::Category::kKernel>() ? 1u : 0u;
      }
      *sink += hits;
      if (--s->remaining == 0) return;
      s->sim->schedule_in(1 + (s->rng.next() & 0x3FF),
                          Step{s, sink, checks});
    }
  };
  for (u32 c = 0; c < chains; ++c) {
    sim.schedule_in(1 + (states[c].rng.next() & 0x3FF),
                    Step{&states[c], &sink, checks});
  }
  sim.run();
  *sink_out = sink;
  return sim.executed();
}

struct TraceOverhead {
  double disabled_pct = 0.0;  ///< one disabled check per event, vs none
  double enabled_pct = 0.0;   ///< ring attached + kernel category live
};

TraceOverhead measure_trace_overhead(u64 total, u32 chains, u64 seed) {
  constexpr u32 kAmp = 8;
  constexpr int kReps = 3;
  double best0 = 1e300, best_amp = 1e300, best_on = 1e300;
  u64 sink = 0;
  for (int r = 0; r < kReps; ++r) {
    {
      const tw::bench::WallTimer t;
      run_check_chains(total, chains, seed, 0, &sink);
      best0 = std::min(best0, t.elapsed_ms());
    }
    {
      const tw::bench::WallTimer t;
      run_check_chains(total, chains, seed, kAmp, &sink);
      best_amp = std::min(best_amp, t.elapsed_ms());
    }
    {
      // Fully enabled: ring attached, kernel category live, so fire()
      // records every event. Small ring; old records are overwritten.
      trace::Tracer tracer(trace::kAllCategories, 1u << 16);
      trace::Tracer::Attach attach(tracer);
      const tw::bench::WallTimer t;
      run_check_chains(total, chains, seed, 0, &sink);
      best_on = std::min(best_on, t.elapsed_ms());
    }
  }
  TraceOverhead o;
  const double per_check_ms = (best_amp - best0) / kAmp;
  o.disabled_pct = std::max(0.0, per_check_ms / best0 * 100.0);
  o.enabled_pct = std::max(0.0, (best_on - best0) / best0 * 100.0);
  if (sink == u64(-1)) std::printf("(unreachable)\n");  // keep sink live
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const tw::bench::Options o = tw::bench::Options::parse(
      argc, argv,
      {{"trace-overhead", "also measure the disabled-tracing overhead"}});
  const u64 total = o.quick ? 2'000'000 : 8'000'000;
  const u32 chains = 64;

  std::printf("micro_sim: event-loop kernel throughput\n");
  std::printf("=======================================\n");
  std::printf("(%llu events per flavor, %u concurrent chains)\n\n",
              static_cast<unsigned long long>(total), chains);

  tw::bench::WallTimer t_noop;
  const u64 fired_noop = run_noop_chains(total, chains, o.seed);
  const double ms_noop = t_noop.elapsed_ms();

  u64 sink = 0;
  tw::bench::WallTimer t_cap;
  const u64 fired_cap = run_capture_chains(total, chains, o.seed, &sink);
  const double ms_cap = t_cap.elapsed_ms();

  const double eps_noop =
      static_cast<double>(fired_noop) / (ms_noop / 1000.0);
  const double eps_cap = static_cast<double>(fired_cap) / (ms_cap / 1000.0);
  std::printf("noop chains:    %10.1f ms  %12.0f events/sec\n", ms_noop,
              eps_noop);
  std::printf("capture chains: %10.1f ms  %12.0f events/sec  (sink %llx)\n",
              ms_cap, eps_cap, static_cast<unsigned long long>(sink));

  tw::bench::WallTimer t_sparse;
  const u64 fired_sparse = run_sparse_chains(total, o.seed, &sink);
  const double ms_sparse = t_sparse.elapsed_ms();
  std::printf("sparse chains:  %10.1f ms  %12.0f events/sec  (2 chains)\n",
              ms_sparse,
              static_cast<double>(fired_sparse) / (ms_sparse / 1000.0));

  const double total_ms = ms_noop + ms_cap;
  const double eps_all = static_cast<double>(fired_noop + fired_cap) /
                         (total_ms / 1000.0);
  std::printf("combined:       %10.1f ms  %12.0f events/sec  (noop + "
              "capture)\n",
              total_ms, eps_all);

  double overhead_pct = -1.0;
  if (o.has("trace-overhead")) {
    const u64 oh_events = o.quick ? 1'000'000 : 4'000'000;
    std::printf("\ntracing overhead (%llu events/rep, best of 3):\n",
                static_cast<unsigned long long>(oh_events));
    const auto oh = measure_trace_overhead(oh_events, chains, o.seed);
    std::printf("  compiled-in, disabled: %+6.2f%% per emission site\n",
                oh.disabled_pct);
    std::printf("  fully enabled:         %+6.2f%%\n", oh.enabled_pct);
    std::printf("  disabled-path budget:  <2%%  ->  %s\n",
                oh.disabled_pct < 2.0 ? "OK" : "EXCEEDED");
    overhead_pct = oh.disabled_pct;
  }

  if (!o.json_path.empty()) {
    tw::bench::BenchBaseline b;
    b.bench = "micro_sim";
    b.config = std::string(o.quick ? "quick" : "full") +
               " events=" + std::to_string(total) +
               " chains=" + std::to_string(chains) +
               " seed=" + std::to_string(o.seed);
    b.wall_ms = total_ms;
    b.events_per_sec = eps_all;
    b.sim_writes_per_sec = 0.0;  // no memory system in this bench
    b.trace_overhead_pct = overhead_pct;
    tw::bench::write_bench_json(o.json_path, b);
  }
  return 0;
}
