#include "tw/harness/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/version.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/stats/registry.hpp"
#include "tw/trace/chrome_sink.hpp"
#include "tw/trace/metrics_sink.hpp"
#include "tw/workload/generator.hpp"

namespace tw::harness {

namespace {

/// splitmix64 step: the standard finalizer used to mix config fields.
u64 mix(u64 h, u64 v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  return h;
}

u64 mix_double(u64 h, double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

/// Per-epoch delta of one stat's running total (a counter's value, an
/// accumulator's sum), summed over every registry in `regs` that holds
/// it. The stats are looked up once, here; a name no registry holds is a
/// misnamed row and fails rather than charting zeros.
std::function<double()> epoch_delta(
    const std::vector<const stats::Registry*>& regs, MetricSource source,
    const std::string& stat) {
  std::vector<const stats::Counter*> counters;
  std::vector<const stats::Accumulator*> accs;
  for (const stats::Registry* r : regs) {
    if (source == MetricSource::kCounter) {
      if (const stats::Counter* c = r->find_counter(stat)) {
        counters.push_back(c);
      }
    } else if (const stats::Accumulator* a = r->find_accumulator(stat)) {
      accs.push_back(a);
    }
  }
  TW_ASSERT(!counters.empty() || !accs.empty());
  return [counters = std::move(counters), accs = std::move(accs),
          prev = 0.0]() mutable {
    double t = 0.0;
    for (const stats::Counter* c : counters) {
      t += static_cast<double>(c->value());
    }
    for (const stats::Accumulator* a : accs) t += a->sum();
    const double d = t - prev;
    prev = t;
    return d;
  };
}

/// Mean of an accumulator's samples added since the previous call (0 when
/// none were).
std::function<double()> epoch_mean(const stats::Accumulator& acc) {
  return [&acc, prev_sum = 0.0, prev_n = 0.0]() mutable {
    const double dn = static_cast<double>(acc.count()) - prev_n;
    const double ds = acc.sum() - prev_sum;
    prev_n = static_cast<double>(acc.count());
    prev_sum = acc.sum();
    return dn <= 0.0 ? 0.0 : ds / dn;
  };
}

/// Register the gauge set on the snapshotter: queue depths and busy banks
/// summed over channels, per-epoch traffic, then bank and Tetris budget
/// utilization for one channel or per-channel write activity for several,
/// and last the `<field>_epoch` gauge of every TW_RUN_METRICS row whose
/// group is active. Sampling runs in the serial front phase, so reading
/// channel state needs no synchronization.
void add_gauges(trace::MetricsSnapshotter& snap, sim::Simulator& sim,
                mem::MemorySystem& msys, stats::Registry& reg,
                const SystemConfig& cfg) {
  const u32 channels = msys.channels();
  // A stat lives in the main registry (the DRAM tiers, and everything at
  // one channel) or in its channel's own.
  std::vector<const stats::Registry*> regs = {&reg};
  for (u32 c = 0; c < channels; ++c) {
    if (const stats::Registry* r = msys.channel_registry(c)) regs.push_back(r);
  }
  snap.add_gauge("read_q_depth", [&msys, channels] {
    u64 d = 0;
    for (u32 c = 0; c < channels; ++c) d += msys.channel(c).read_queue_depth();
    return static_cast<double>(d);
  });
  snap.add_gauge("write_q_depth", [&msys, channels] {
    u64 d = 0;
    for (u32 c = 0; c < channels; ++c) d += msys.channel(c).write_queue_depth();
    return static_cast<double>(d);
  });
  snap.add_gauge("banks_busy", [&msys, &sim, channels] {
    u32 busy = 0;
    for (u32 c = 0; c < channels; ++c) {
      for (const auto& b : msys.channel(c).banks()) {
        if (!b.idle_at(sim.now())) ++busy;
      }
    }
    return static_cast<double>(busy);
  });
  if (channels == 1) {
    // Fraction of the epoch the banks spent busy, averaged over banks.
    const mem::Controller* ctl = &msys.channel(0);
    snap.add_gauge("bank_util",
                   [ctl, &sim, prev = u64{0}, prev_now = Tick{0}]() mutable {
                     u64 total = 0;
                     for (const auto& b : ctl->banks()) total += b.busy_total();
                     const Tick now = sim.now();
                     const u64 dt = (now - prev_now) * ctl->banks().size();
                     const double util =
                         dt == 0 ? 0.0
                                 : static_cast<double>(total - prev) /
                                       static_cast<double>(dt);
                     prev = total;
                     prev_now = now;
                     return util;
                   });
  }
  snap.add_gauge("reads_epoch",
                 epoch_delta(regs, MetricSource::kCounter, "mem.reads"));
  snap.add_gauge("writes_epoch",
                 epoch_delta(regs, MetricSource::kCounter, "mem.writes"));
  snap.add_gauge("write_units_epoch",
                 epoch_delta(regs, MetricSource::kMean, "mem.write_units"));
  if (channels == 1) {
    // Mean packed power-budget utilization of the writes in this epoch
    // (0 when the scheme has no packed schedule, or nothing was written).
    snap.add_gauge("budget_util",
                   epoch_mean(reg.accumulator("mem.power_utilization")));
    // Mean occupancy of the multi-line joint schedules issued this epoch
    // (0 when batching is off or the scheme serializes its batches).
    snap.add_gauge("batch_occupancy",
                   epoch_mean(reg.accumulator("mem.batch_occupancy")));
  } else {
    for (u32 c = 0; c < channels; ++c) {
      snap.add_gauge("ch" + std::to_string(c) + "_writes_epoch",
                     epoch_delta({msys.channel_registry(c)},
                                 MetricSource::kCounter, "mem.writes"));
      snap.add_gauge("ch" + std::to_string(c) + "_write_q_depth", [&msys, c] {
        return static_cast<double>(msys.channel(c).write_queue_depth());
      });
    }
  }
  // Indexed by GaugeGroup. A group's gauges register only while it is
  // active, so runs without it keep their exact column set.
  const bool active[] = {false, cfg.fault.enabled(),
                         msys.channel(0).palp_active(), msys.dram_active(),
                         cfg.encode.enabled()};
#define TW_GAUGE(field, type, init, source, stat, decimals, csv, gauge) \
  if (active[static_cast<int>(GaugeGroup::gauge)]) {                    \
    snap.add_gauge(#field "_epoch",                                     \
                   epoch_delta(regs, MetricSource::source, stat));      \
  }
  TW_RUN_METRICS(TW_GAUGE)
#undef TW_GAUGE
}

/// m.field = the row's registry stat; kComponent rows are left alone.
template <MetricSource S, class T>
void read_stat(stats::Registry& reg, const char* stat, T& out) {
  if constexpr (S == MetricSource::kCounter) {
    out = reg.counter(stat).value();
  } else if constexpr (S == MetricSource::kMean) {
    out = reg.accumulator(stat).mean();
  } else if constexpr (S == MetricSource::kP99) {
    out = reg.histogram(stat).percentile(0.99);
  }
}

}  // namespace

u64 config_hash(const SystemConfig& cfg) {
  u64 h = 0x243F6A8885A308D3ull;  // pi
  // Device.
  h = mix(h, cfg.pcm.timing.t_read);
  h = mix(h, cfg.pcm.timing.t_reset);
  h = mix(h, cfg.pcm.timing.t_set);
  h = mix(h, cfg.pcm.power.reset_current_ratio_l);
  h = mix(h, cfg.pcm.power.chip_budget);
  h = mix(h, cfg.pcm.power.global_charge_pump ? 1 : 0);
  h = mix(h, cfg.pcm.geometry.chips_per_bank);
  h = mix(h, cfg.pcm.geometry.chip_write_bits);
  h = mix(h, cfg.pcm.geometry.data_unit_bits);
  h = mix(h, cfg.pcm.geometry.cache_line_bytes);
  h = mix(h, cfg.pcm.geometry.banks);
  h = mix(h, cfg.pcm.geometry.ranks);
  h = mix(h, cfg.pcm.geometry.subarrays_per_bank);
  h = mix(h, cfg.pcm.geometry.capacity_bytes);
  // Channel topology (sim_threads is deliberately excluded: it never
  // affects results).
  h = mix(h, cfg.pcm.geometry.channels);
  h = mix(h, static_cast<u64>(cfg.pcm.geometry.channel_interleave));
  h = mix(h, cfg.xbar_latency);
  h = mix_double(h, cfg.pcm.energy.set_pj);
  h = mix_double(h, cfg.pcm.energy.reset_pj);
  h = mix_double(h, cfg.pcm.energy.read_bit_pj);
  // Controller.
  h = mix(h, cfg.controller.read_queue_entries);
  h = mix(h, cfg.controller.write_queue_entries);
  h = mix(h, static_cast<u64>(cfg.controller.drain));
  h = mix(h, cfg.controller.drain_low_watermark);
  h = mix(h, cfg.controller.read_bus_time);
  h = mix(h, cfg.controller.forward_latency);
  h = mix(h, (cfg.controller.write_coalescing ? 1 : 0) |
                 (cfg.controller.read_forwarding ? 2 : 0) |
                 (cfg.controller.write_pausing ? 4 : 0) |
                 (cfg.controller.wear_leveling ? 8 : 0));
  h = mix(h, cfg.controller.pause_quantum);
  h = mix(h, cfg.controller.start_gap.region_lines);
  h = mix(h, cfg.controller.start_gap.gap_write_interval);
  h = mix(h, cfg.controller.write_batch);
  h = mix(h, (cfg.controller.palp.enabled ? 1 : 0));
  // A group a dump omits while it is off (PALP, fault injection, the
  // DRAM tier, the encoder) is mixed only while it is on, so a
  // dump -> parse round trip keeps the hash.
  if (cfg.controller.palp.enabled) {
    h = mix(h, cfg.controller.palp.write_ways);
    h = mix(h, cfg.controller.palp.max_rww_reads);
  }
  h = mix(h, cfg.batch.max_lines);
  // Core model.
  h = mix(h, cfg.core.clock_period);
  h = mix_double(h, cfg.core.peak_ipc);
  h = mix(h, cfg.core.mlp);
  // Tetris options.
  h = mix(h, cfg.tetris.analysis_cycles);
  h = mix(h, cfg.tetris.analysis_clock_period);
  h = mix(h, static_cast<u64>(cfg.tetris.pack_order));
  h = mix(h, (cfg.tetris.forbid_self_overlap ? 1 : 0) |
                 (cfg.tetris.respect_gcp_setting ? 2 : 0) |
                 (cfg.tetris.self_check ? 4 : 0));
  // Run shape.
  h = mix(h, cfg.cores);
  h = mix(h, cfg.instructions_per_core);
  h = mix(h, cfg.seed);
  h = mix(h, cfg.max_sim_time);
  // Fault injection.
  if (cfg.fault.enabled()) {
    h = mix(h, 3);
    h = mix_double(h, cfg.fault.set_fail_prob);
    h = mix_double(h, cfg.fault.reset_fail_prob);
    h = mix(h, cfg.fault.max_retries);
    h = mix_double(h, cfg.fault.retry_widening);
    h = mix_double(h, cfg.fault.retry_fail_damping);
    h = mix(h, cfg.fault.wear_knee);
    h = mix_double(h, cfg.fault.worn_fail_prob);
    h = mix(h, cfg.fault.stuck_bank);
    h = mix_double(h, cfg.fault.stuck_bank_prob);
    h = mix(h, cfg.fault.brownout_period);
    h = mix(h, cfg.fault.brownout_duration);
    h = mix_double(h, cfg.fault.brownout_budget_factor);
  }
  // DRAM front tier: mixed only when enabled so every tier-off config
  // keeps the hash it had before the tier existed.
  if (cfg.dram.enabled) {
    h = mix(h, 1);
    h = mix(h, cfg.dram.capacity_bytes);
    h = mix(h, cfg.dram.ways);
    h = mix(h, static_cast<u64>(cfg.dram.policy));
    h = mix(h, cfg.dram.t_row_hit);
    h = mix(h, cfg.dram.t_row_miss);
    h = mix(h, cfg.dram.row_lines);
    h = mix(h, cfg.dram.banks);
    h = mix(h, cfg.dram.pending_limit);
    h = mix(h, cfg.dram.mac_group);
  }
  // Content encoder: mixed only when enabled so every encoder-off config
  // keeps the hash it had before the encoder stage existed.
  if (cfg.encode.enabled()) {
    h = mix(h, 2);
    h = mix(h, static_cast<u64>(cfg.encode.kind));
  }
  return h;
}

std::unique_ptr<mem::MemorySystem> make_memory_system(
    sim::Simulator& sim, const SystemConfig& cfg, schemes::SchemeKind kind,
    stats::Registry& reg, double ones_bias) {
  // The factory gives every channel its own scheme instance (schemes
  // carry mutable planning state); channels == 1 builds exactly one. The
  // configured content encoder wraps each instance as a pre-stage
  // (wrap_scheme is the identity for EncoderKind::kNone).
  const mem::SchemeFactory factory = [&cfg, kind](u32) {
    return encode::wrap_scheme(core::make_scheme(kind, cfg.pcm, cfg.tetris),
                               cfg.encode.kind);
  };
  mem::ControllerConfig ccfg = cfg.controller;
  // batch.max_lines is the canonical multi-line knob: when set it bounds
  // the controller's same-bank write gather (1 = per-line packing).
  if (cfg.batch.max_lines > 0) ccfg.write_batch = cfg.batch.max_lines;
  return std::make_unique<mem::MemorySystem>(
      sim, cfg.pcm, ccfg, factory, reg, cfg.fault, cfg.seed, ones_bias,
      cfg.xbar_latency, cfg.sim_threads, cfg.dram);
}

void harvest(mem::MemorySystem& msys, const cpu::MultiCore& cpus,
             stats::Registry& reg, RunMetrics& m) {
  m.scheme = std::string(msys.scheme().name());
  m.completed = cpus.all_finished();
  msys.merge_stats();
#define TW_HARVEST(field, type, init, source, stat, decimals, csv, gauge) \
  read_stat<MetricSource::source>(reg, stat, m.field);
  TW_RUN_METRICS(TW_HARVEST)
#undef TW_HARVEST
  // The kComponent rows: the cores' and the kernel's totals, and the
  // per-channel device models summed (energy, wear) or maxed (queue
  // peaks).
  m.sim_events = msys.executed_events();
  m.retired = cpus.total_retired();
  m.ipc = cpus.aggregate_ipc();
  m.runtime_ns = to_ns(cpus.runtime());
  u64 wear_bits = 0;
  u64 wear_writes = 0;
  u64 set_bits = 0;
  for (u32 c = 0; c < msys.channels(); ++c) {
    const mem::Controller& ctl = msys.channel(c);
    m.write_energy_pj += ctl.energy().write_energy_pj();
    m.read_energy_pj += ctl.energy().read_energy_pj();
    set_bits += ctl.energy().set_bits();
    const pcm::WearSummary wear = ctl.wear().summary();
    wear_bits += wear.total_bits;
    wear_writes += wear.total_writes;
    m.read_q_peak = std::max<u64>(m.read_q_peak, ctl.read_queue_peak());
    m.write_q_peak = std::max<u64>(m.write_q_peak, ctl.write_queue_peak());
  }
  m.bits_per_write = wear_writes == 0 ? 0.0
                                      : static_cast<double>(wear_bits) /
                                            static_cast<double>(wear_writes);
  m.sets_per_write = wear_writes == 0 ? 0.0
                                      : static_cast<double>(set_bits) /
                                            static_cast<double>(wear_writes);
}

RunMetrics run_system(const SystemConfig& cfg,
                      const workload::WorkloadProfile& profile,
                      schemes::SchemeKind kind) {
  sim::Simulator sim;
  stats::Registry reg;
  const std::unique_ptr<mem::MemorySystem> memory = make_memory_system(
      sim, cfg, kind, reg, profile.initial_ones_fraction);
  mem::MemorySystem& msys = *memory;
  const u32 channels = msys.channels();
  workload::TraceGenerator gen(profile, cfg.pcm.geometry, cfg.cores,
                               cfg.seed * 0x9E3779B9u + 7);
  cpu::MultiCore cpus(sim, cfg.core, cfg.cores, msys, gen,
                      cfg.instructions_per_core);

  // Observability: attach the tracer to this thread for the duration of
  // the run, sample gauges on the metrics epoch, and serialize at the end.
  // Multi-channel runs bind one pre-created ring per simulation domain
  // instead of a plain thread attach, so trace bytes stay identical at
  // every thread count.
  const bool traced = cfg.trace.enabled();
  std::optional<trace::Tracer> tracer;
  std::optional<trace::Tracer::Attach> attach;
  std::optional<trace::MetricsSnapshotter> snapshotter;
  if (traced) {
    tracer.emplace(cfg.trace.categories, cfg.trace.ring_capacity);
    if (channels == 1) {
      attach.emplace(*tracer);
    } else {
      msys.bind_trace(*tracer);
    }
    snapshotter.emplace(sim, reg, cfg.trace.metrics_epoch);
    add_gauges(*snapshotter, sim, msys, reg, cfg);
    snapshotter->start();
  }

  cpus.start();
  msys.run(cfg.max_sim_time);

  RunMetrics m;
  m.workload = profile.name;

  if (traced) {
    if (channels == 1) {
      snapshotter->sample();  // final partial epoch
      attach.reset();         // stop emitting before collection
    } else {
      // Final partial epoch emits into the front domain's ring.
      trace::Tracer::Attach fin(*tracer, *msys.front_ring());
      snapshotter->sample();
    }

    trace::RunManifest manifest;
    manifest.version = kVersionString;
    manifest.git_sha = trace::build_git_sha();
    manifest.scheme = msys.scheme().name();
    manifest.workload = m.workload;
    manifest.config_hash = config_hash(cfg);
    manifest.seed = cfg.seed;
    manifest.counter_names = snapshotter->gauge_names();
    char cats[128];
    trace::append_category_list(tracer->mask(), cats, sizeof(cats));
    manifest.categories = cats;

    const std::vector<trace::TraceRecord> records = tracer->collect();
    if (!cfg.trace.chrome_path.empty()) {
      trace::write_chrome_trace_file(cfg.trace.chrome_path, records,
                                     manifest);
    }
    if (!cfg.trace.metrics_path.empty()) {
      trace::write_metrics_csv_file(cfg.trace.metrics_path, records,
                                    manifest);
    }
    m.trace_records = records.size();
    m.trace_dropped = tracer->total_dropped();
    m.trace_samples = snapshotter->samples_taken();
  }

  harvest(msys, cpus, reg, m);
  return m;
}

}  // namespace tw::harness
