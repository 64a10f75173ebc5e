#include "cell.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <type_traits>

#include "probes.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/stats/registry.hpp"
#include "tw/workload/generator.hpp"

namespace twbench {

namespace {

using tw::u32;
using tw::u64;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The statistics harness::run_system reads after an untraced run, read
/// the same way.
tw::harness::RunMetrics harvest(const Cell& cell, tw::mem::MemorySystem& msys,
                                tw::stats::Registry& reg,
                                const tw::cpu::MultiCore& cpus) {
  tw::harness::RunMetrics m;
  m.workload = cell.profile.name;
  m.scheme = std::string(msys.scheme().name());
  m.completed = cpus.all_finished();
  msys.merge_stats();
  m.read_latency_ns = reg.accumulator("mem.read_latency_ns").mean();
  m.write_latency_ns = reg.accumulator("mem.write_latency_ns").mean();
  m.write_service_ns = reg.accumulator("mem.write_service_ns").mean();
  m.write_units = reg.accumulator("mem.write_units").mean();
  m.read_p99_ns = reg.histogram("mem.read_latency_hist_ns").percentile(0.99);
  m.write_p99_ns =
      reg.histogram("mem.write_latency_hist_ns").percentile(0.99);
  m.reads = reg.counter("mem.reads").value();
  m.writes = reg.counter("mem.writes").value();
  m.sim_events = msys.executed_events();
  m.retired = cpus.total_retired();
  m.ipc = cpus.aggregate_ipc();
  m.runtime_ns = tw::to_ns(cpus.runtime());
  u64 wear_bits = 0;
  u64 wear_writes = 0;
  for (u32 c = 0; c < msys.channels(); ++c) {
    m.write_energy_pj += msys.channel(c).energy().write_energy_pj();
    m.read_energy_pj += msys.channel(c).energy().read_energy_pj();
    const tw::pcm::WearSummary wear = msys.channel(c).wear().summary();
    wear_bits += wear.total_bits;
    wear_writes += wear.total_writes;
    m.read_q_peak =
        std::max<u64>(m.read_q_peak, msys.channel(c).read_queue_peak());
    m.write_q_peak =
        std::max<u64>(m.write_q_peak, msys.channel(c).write_queue_peak());
  }
  m.bits_per_write = wear_writes == 0 ? 0.0
                                      : static_cast<double>(wear_bits) /
                                            static_cast<double>(wear_writes);
  m.write_pauses = reg.counter("mem.write_pauses").value();
  m.gap_moves = reg.counter("mem.gap_moves").value();
  m.writes_batched = reg.counter("mem.writes_batched").value();
  m.batch_lines = reg.accumulator("mem.batch_lines").mean();
  m.batch_occupancy = reg.accumulator("mem.batch_occupancy").mean();
  m.reads_forwarded = reg.counter("mem.reads_forwarded").value();
  m.writes_coalesced = reg.counter("mem.writes_coalesced").value();
  m.dispatch_rounds = reg.counter("mem.dispatch_rounds").value();
  m.row_hits = reg.counter("mem.row_hits").value();
  m.fault_retries = reg.counter("mem.fault_retries").value();
  m.failed_lines = reg.counter("mem.failed_lines").value();
  m.brownout_writes = reg.counter("mem.brownout_writes").value();
  m.stuck_remaps = reg.counter("mem.stuck_remaps").value();
  m.palp_overlapped_reads = reg.counter("mem.palp_overlapped_reads").value();
  m.palp_pump_stalls = reg.counter("mem.palp_pump_stalls").value();
  m.palp_write_overlaps = reg.counter("mem.palp_write_overlaps").value();
  m.dram_hits = reg.counter("mem.dram_hits").value();
  m.dram_misses = reg.counter("mem.dram_misses").value();
  m.dram_writebacks = reg.counter("mem.dram_writebacks").value();
  m.dram_clean_evicts = reg.counter("mem.dram_clean_evicts").value();
  m.enc_writes = reg.counter("mem.enc_writes").value();
  m.enc_coded_units = reg.counter("mem.enc_coded_units").value();
  m.enc_tag_bits = reg.counter("mem.enc_tag_bits").value();
  return m;
}

}  // namespace

std::string cell_label(const Cell& cell) {
  return cell.profile.name + "/" +
         std::string(tw::schemes::scheme_name(cell.kind));
}

CellRun run_cell(const Cell& cell, SpanRecorder* rec) {
  const tw::harness::SystemConfig& cfg = cell.cfg;
  const Clock::time_point t0 = Clock::now();
  tw::sim::Simulator sim;
  tw::stats::Registry reg;

  std::vector<const ProbedScheme*> probed_schemes;
  const tw::mem::SchemeFactory factory =
      [&](u32) -> std::unique_ptr<tw::schemes::WriteScheme> {
    auto scheme = tw::encode::wrap_scheme(
        tw::core::make_scheme(cell.kind, cfg.pcm, cfg.tetris), cfg.encode.kind);
    if (rec == nullptr) return scheme;
    auto probed = std::make_unique<ProbedScheme>(std::move(scheme), *rec);
    probed_schemes.push_back(probed.get());
    return probed;
  };
  tw::mem::ControllerConfig ccfg = cfg.controller;
  if (cfg.batch.max_lines > 0) ccfg.write_batch = cfg.batch.max_lines;
  tw::mem::MemorySystem msys(sim, cfg.pcm, ccfg, factory, reg, cfg.fault,
                             cfg.seed, cell.profile.initial_ones_fraction,
                             cfg.xbar_latency, cfg.sim_threads, cfg.dram);
  tw::workload::TraceGenerator gen(cell.profile, cfg.pcm.geometry, cfg.cores,
                                   cfg.seed * 0x9E3779B9u + 7);

  tw::workload::RequestSource* source = &gen;
  tw::mem::MemoryInterface* front = &msys;
  std::optional<ProbedSource> probed_source;
  std::optional<ProbedMemory> probed_memory;
  if (rec != nullptr) {
    probed_source.emplace(gen, *rec, cfg.cores);
    probed_memory.emplace(msys, *rec, *probed_source);
    source = &*probed_source;
    front = &*probed_memory;
  }
  tw::cpu::MultiCore cpus(sim, cfg.core, cfg.cores, *front, *source,
                          cfg.instructions_per_core);

  // The cores' start issues their first requests, so it belongs to the
  // timed phase together with the run.
  const Clock::time_point t1 = Clock::now();
  cpus.start();
  msys.run(cfg.max_sim_time);
  const Clock::time_point t2 = Clock::now();

  CellRun out;
  out.setup_s = seconds_between(t0, t1);
  out.timed_s = seconds_between(t1, t2);
  out.m = harvest(cell, msys, reg, cpus);
  out.write_units_total = reg.accumulator("mem.write_units").sum();
  if (rec != nullptr) {
    out.layers.raw = rec->take();
    out.layers.spans = reduce(out.layers.raw);
    out.layers.enqueue_accepted = probed_memory->accepted();
    for (const ProbedScheme* s : probed_schemes) {
      out.layers.scheme_lines += s->lines();
    }
  }
  return out;
}

std::vector<std::string> metric_diffs(const tw::harness::RunMetrics& a,
                                      const tw::harness::RunMetrics& b) {
  std::vector<std::string> diffs;
  const auto same = [&](const char* name, const auto& x, const auto& y) {
    bool equal = x == y;
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(x)>>) {
      equal = equal || (std::isnan(x) && std::isnan(y));
    }
    if (!equal) diffs.emplace_back(name);
  };
#define TWBENCH_FIELD(f) same(#f, a.f, b.f)
  TWBENCH_FIELD(workload);
  TWBENCH_FIELD(scheme);
  TWBENCH_FIELD(completed);
  TWBENCH_FIELD(read_latency_ns);
  TWBENCH_FIELD(write_latency_ns);
  TWBENCH_FIELD(write_service_ns);
  TWBENCH_FIELD(write_units);
  TWBENCH_FIELD(ipc);
  TWBENCH_FIELD(runtime_ns);
  TWBENCH_FIELD(reads);
  TWBENCH_FIELD(writes);
  TWBENCH_FIELD(retired);
  TWBENCH_FIELD(sim_events);
  TWBENCH_FIELD(write_energy_pj);
  TWBENCH_FIELD(read_energy_pj);
  TWBENCH_FIELD(bits_per_write);
  TWBENCH_FIELD(read_p99_ns);
  TWBENCH_FIELD(write_p99_ns);
  TWBENCH_FIELD(write_pauses);
  TWBENCH_FIELD(gap_moves);
  TWBENCH_FIELD(writes_batched);
  TWBENCH_FIELD(batch_lines);
  TWBENCH_FIELD(batch_occupancy);
  TWBENCH_FIELD(reads_forwarded);
  TWBENCH_FIELD(writes_coalesced);
  TWBENCH_FIELD(read_q_peak);
  TWBENCH_FIELD(write_q_peak);
  TWBENCH_FIELD(dispatch_rounds);
  TWBENCH_FIELD(row_hits);
  TWBENCH_FIELD(trace_records);
  TWBENCH_FIELD(trace_dropped);
  TWBENCH_FIELD(trace_samples);
  TWBENCH_FIELD(fault_retries);
  TWBENCH_FIELD(failed_lines);
  TWBENCH_FIELD(brownout_writes);
  TWBENCH_FIELD(stuck_remaps);
  TWBENCH_FIELD(palp_overlapped_reads);
  TWBENCH_FIELD(palp_pump_stalls);
  TWBENCH_FIELD(palp_write_overlaps);
  TWBENCH_FIELD(dram_hits);
  TWBENCH_FIELD(dram_misses);
  TWBENCH_FIELD(dram_writebacks);
  TWBENCH_FIELD(dram_clean_evicts);
  TWBENCH_FIELD(enc_writes);
  TWBENCH_FIELD(enc_coded_units);
  TWBENCH_FIELD(enc_tag_bits);
#undef TWBENCH_FIELD
  return diffs;
}

}  // namespace twbench
