#pragma once
// Full-system experiment runner: builds simulator + scheme + controller +
// cores + workload for one (workload, scheme) cell and runs it to
// completion, returning the metrics the paper's figures are built from.

#include <memory>
#include <string>
#include <string_view>

#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/encode/encoder.hpp"
#include "tw/fault/fault.hpp"
#include "tw/mem/controller.hpp"
#include "tw/mem/dram_tier.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/stats/registry.hpp"
#include "tw/trace/tracer.hpp"
#include "tw/workload/profiles.hpp"

namespace tw::harness {

/// Observability settings for one run. Tracing activates when either
/// output path is set (records are only collected if someone will read
/// them); the category mask further narrows what gets emitted.
struct TraceConfig {
  std::string chrome_path;   ///< Chrome trace_event JSON ("" = off)
  std::string metrics_path;  ///< metrics-snapshot CSV ("" = off)
  u32 categories = trace::kAllCategories;
  /// Metrics sampling epoch (simulated time between snapshots).
  Tick metrics_epoch = us(1);
  /// Per-thread ring capacity in records (rounded up to a power of two);
  /// long runs keep the most recent window.
  u64 ring_capacity = trace::TraceRing::kDefaultCapacity;

  bool enabled() const {
    return !chrome_path.empty() || !metrics_path.empty();
  }
};

/// Multi-line Tetris batch scheduling (our extension beyond the paper):
/// the controller gathers up to max_lines age-ordered same-bank writes
/// per dispatch and the scheme packs all their units into one schedule.
struct BatchConfig {
  /// Upper bound on lines per joint schedule. 0 leaves the controller's
  /// write_batch setting untouched; >= 1 overrides it (1 = per-line
  /// packing, bit-identical to the unbatched controller).
  u32 max_lines = 0;
};

/// Everything configurable about one simulation (Table II defaults).
struct SystemConfig {
  pcm::PcmConfig pcm;                  ///< device + geometry + power
  mem::ControllerConfig controller;    ///< FRFCFS queues + drain policy
  cpu::CoreConfig core;                ///< 2 GHz, peak IPC, MLP window
  core::TetrisOptions tetris;          ///< analysis overhead etc.
  fault::FaultConfig fault;            ///< fault injection (off by default)
  BatchConfig batch;                   ///< multi-line batch packing
  mem::DramConfig dram;                ///< DRAM front tier (off by default)
  encode::EncodeConfig encode;         ///< content encoder (off by default)
  TraceConfig trace;                   ///< structured tracing (off by default)
  u32 cores = 4;
  u64 instructions_per_core = 200'000;
  u64 seed = 42;
  /// XBar hop latency between the CPU front-end and a channel controller;
  /// also the sharded engine's lockstep quantum. Only modeled when
  /// pcm.geometry.channels > 1.
  Tick xbar_latency = ns(20);
  /// Accepted and ignored: the sharded engine runs every channel on the
  /// calling thread. Excluded from config_hash.
  u32 sim_threads = 0;
  /// Safety cap on simulated time; a run that exceeds it is marked
  /// incomplete rather than hanging.
  Tick max_sim_time = ms(10'000);
};

/// Field-mixing hash of everything that shapes a run's behavior (device
/// timing/geometry/power, controller policy, core model, Tetris options,
/// core count, budgets, seed). Stored in trace manifests so a trace file
/// identifies the exact configuration that produced it.
u64 config_hash(const SystemConfig& cfg);

/// Where a TW_RUN_METRICS row's value comes from.
enum class MetricSource {
  kCounter,    ///< the registry counter `stat`
  kMean,       ///< the mean of the registry accumulator `stat`
  kP99,        ///< the 99th percentile of the registry histogram `stat`
  kComponent,  ///< read off a component by harvest() (no registry stat)
};

/// The per-epoch trace gauges a row gets: with tracing on and its group
/// active, `<field>_epoch` charts the row's stat delta per metrics epoch,
/// summed over every channel. kNone rows get no gauge.
enum class GaugeGroup {
  kNone,
  kFault,   ///< a fault model is active
  kPalp,    ///< partition-level parallelism is active
  kDram,    ///< the DRAM front tier is on
  kEncode,  ///< a content encoder is configured
};

/// Every run metric, declared once. Each row generates a RunMetrics
/// field, a kMetrics entry and, for registry sources, its read in
/// harvest() and its trace gauge. Rows run in kMetrics order: the csv
/// rows first, in write_csv's column order.
///   X(field, type, default, MetricSource, stat, decimals, csv, GaugeGroup)
#define TW_RUN_METRICS(X)                                                    \
  X(completed, bool, false, kComponent, "", 0, true, kNone)                  \
  /** mean memory read latency */                                            \
  X(read_latency_ns, double, 0.0, kMean, "mem.read_latency_ns", 2, true,     \
    kNone)                                                                   \
  /** mean write latency (queue + service) */                                \
  X(write_latency_ns, double, 0.0, kMean, "mem.write_latency_ns", 2, true,   \
    kNone)                                                                   \
  /** mean write service time alone */                                       \
  X(write_service_ns, double, 0.0, kMean, "mem.write_service_ns", 2, true,   \
    kNone)                                                                   \
  /** mean serial write units per line */                                    \
  X(write_units, double, 0.0, kMean, "mem.write_units", 3, true, kNone)      \
  /** whole-system IPC */                                                    \
  X(ipc, double, 0.0, kComponent, "", 4, true, kNone)                        \
  /** time to retire all budgets */                                          \
  X(runtime_ns, double, 0.0, kComponent, "", 1, true, kNone)                 \
  X(reads, u64, 0, kCounter, "mem.reads", 0, true, kNone)                    \
  X(writes, u64, 0, kCounter, "mem.writes", 0, true, kNone)                  \
  X(retired, u64, 0, kComponent, "", 0, true, kNone)                         \
  X(write_energy_pj, double, 0.0, kComponent, "", 1, true, kNone)            \
  X(read_energy_pj, double, 0.0, kComponent, "", 1, true, kNone)             \
  /** programmed bits per line write (wear) */                               \
  X(bits_per_write, double, 0.0, kComponent, "", 2, true, kNone)             \
  X(read_p99_ns, double, 0.0, kP99, "mem.read_latency_hist_ns", 1, true,     \
    kNone)                                                                   \
  X(write_p99_ns, double, 0.0, kP99, "mem.write_latency_hist_ns", 1, true,   \
    kNone)                                                                   \
  /** simulator events executed (kernel throughput) */                       \
  X(sim_events, u64, 0, kComponent, "", 0, false, kNone)                     \
  /** SET pulses per line write */                                           \
  X(sets_per_write, double, 0.0, kComponent, "", 2, false, kNone)            \
  /** write-pausing preemptions */                                           \
  X(write_pauses, u64, 0, kCounter, "mem.write_pauses", 0, false, kNone)     \
  /** Start-Gap migration writes */                                          \
  X(gap_moves, u64, 0, kCounter, "mem.gap_moves", 0, false, kNone)           \
  /** writes serviced in multi-line batches */                               \
  X(writes_batched, u64, 0, kCounter, "mem.writes_batched", 0, false, kNone) \
  /** mean lines per multi-line batch issue */                               \
  X(batch_lines, double, 0.0, kMean, "mem.batch_lines", 3, false, kNone)     \
  /** mean budget utilization of joint packs */                              \
  X(batch_occupancy, double, 0.0, kMean, "mem.batch_occupancy", 4, false,    \
    kNone)                                                                   \
  /* Controller queue statistics (thread-count invariant like the rest). */  \
  /** reads served from queued write data */                                 \
  X(reads_forwarded, u64, 0, kCounter, "mem.reads_forwarded", 0, false,      \
    kNone)                                                                   \
  /** writes merged into a queued same-line write */                         \
  X(writes_coalesced, u64, 0, kCounter, "mem.writes_coalesced", 0, false,    \
    kNone)                                                                   \
  /** deepest the read queue ever got (maximum over channels) */             \
  X(read_q_peak, u64, 0, kComponent, "", 0, false, kNone)                    \
  /** deepest the write queue ever got (maximum over channels) */            \
  X(write_q_peak, u64, 0, kComponent, "", 0, false, kNone)                   \
  /** controller scheduling rounds executed */                               \
  X(dispatch_rounds, u64, 0, kCounter, "mem.dispatch_rounds", 0, false,      \
    kNone)                                                                   \
  /** consecutive same-row activations per bank */                           \
  X(row_hits, u64, 0, kCounter, "mem.row_hits", 0, false, kNone)             \
  /* Fault injection (zero when faults were off). */                         \
  /** verify-and-retry attempts run */                                       \
  X(fault_retries, u64, 0, kCounter, "mem.fault_retries", 0, false, kFault)  \
  /** lines still failed after the retry ladder */                           \
  X(failed_lines, u64, 0, kCounter, "mem.failed_lines", 0, false, kFault)    \
  /** writes planned under a shrunken budget */                              \
  X(brownout_writes, u64, 0, kCounter, "mem.brownout_writes", 0, false,      \
    kFault)                                                                  \
  /** services redirected off a stuck bank */                                \
  X(stuck_remaps, u64, 0, kCounter, "mem.stuck_remaps", 0, false, kNone)     \
  /* Partition-level parallelism (zero when PALP was off). */                \
  /** reads issued against a loaded pump */                                  \
  X(palp_overlapped_reads, u64, 0, kCounter, "mem.palp_overlapped_reads", 0, \
    false, kPalp)                                                            \
  /** admissions deferred by the pump budget */                              \
  X(palp_pump_stalls, u64, 0, kCounter, "mem.palp_pump_stalls", 0, false,    \
    kPalp)                                                                   \
  /** writes begun while another was in flight */                            \
  X(palp_write_overlaps, u64, 0, kCounter, "mem.palp_write_overlaps", 0,     \
    false, kPalp)                                                            \
  /* DRAM front tier (zero when the tier was off). */                        \
  /** requests absorbed by the tier */                                       \
  X(dram_hits, u64, 0, kCounter, "mem.dram_hits", 0, false, kDram)           \
  /** requests that went to the PCM path */                                  \
  X(dram_misses, u64, 0, kCounter, "mem.dram_misses", 0, false, kDram)       \
  /** dirty lines written back to PCM */                                     \
  X(dram_writebacks, u64, 0, kCounter, "mem.dram_writebacks", 0, false,      \
    kDram)                                                                   \
  /** clean victims dropped without PCM traffic */                           \
  X(dram_clean_evicts, u64, 0, kCounter, "mem.dram_clean_evicts", 0, false,  \
    kDram)                                                                   \
  /* Content-encoder pre-stage (zero when no encoder was configured). */     \
  /** line writes that went through the encoder */                           \
  X(enc_writes, u64, 0, kCounter, "mem.enc_writes", 0, false, kEncode)       \
  /** units stored under a non-identity code */                              \
  X(enc_coded_units, u64, 0, kCounter, "mem.enc_coded_units", 0, false,      \
    kEncode)                                                                 \
  /** encoder metadata cells pulsed */                                       \
  X(enc_tag_bits, u64, 0, kCounter, "mem.enc_tag_bits", 0, false, kEncode)

/// Metrics of one completed run.
struct RunMetrics {
  std::string workload;
  std::string scheme;
#define TW_FIELD(field, type, init, ...) type field = init;
  TW_RUN_METRICS(TW_FIELD)
#undef TW_FIELD
  // Tracing (zero when the run was untraced; not run metrics, so not in
  // kMetrics).
  u64 trace_records = 0;   ///< records collected into the sinks
  u64 trace_dropped = 0;   ///< records lost to ring wraparound
  u64 trace_samples = 0;   ///< metrics snapshots taken
};

/// One reportable scalar of a RunMetrics: the name tables, CSV headers and
/// `tw_sweep --metric` use, how to read it, and how many decimals print.
struct MetricDef {
  std::string_view name;
  double (*get)(const RunMetrics&);
  int decimals;
  bool csv;  ///< a column of write_csv
};

/// Every metric by name, write_csv's columns first and in its order.
inline constexpr MetricDef kMetrics[] = {
#define TW_METRIC_DEF(field, type, init, source, stat, decimals, csv, gauge) \
  MetricDef{#field,                                                          \
            [](const RunMetrics& r) { return static_cast<double>(r.field); }, \
            decimals, csv},
    TW_RUN_METRICS(TW_METRIC_DEF)
#undef TW_METRIC_DEF
    // Derived from the fields above.
    MetricDef{"energy_per_write_pj",
              [](const RunMetrics& r) {
                return r.writes == 0 ? 0.0
                                     : r.write_energy_pj /
                                           static_cast<double>(r.writes);
              },
              1, false},
    MetricDef{"dram_hit_rate",
              [](const RunMetrics& r) {
                const u64 total = r.dram_hits + r.dram_misses;
                return total == 0 ? 0.0
                                  : static_cast<double>(r.dram_hits) /
                                        static_cast<double>(total);
              },
              4, false},
    MetricDef{"sim_writes_per_sec",
              [](const RunMetrics& r) {
                return r.runtime_ns > 0.0 ? static_cast<double>(r.writes) /
                                                (r.runtime_ns / 1e9)
                                          : 0.0;
              },
              0, false},
};

/// The kMetrics row called `name`, or nullptr.
inline const MetricDef* find_metric(std::string_view name) {
  for (const MetricDef& m : kMetrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// The names of the kMetrics on which `a` and `b` differ, exactly,
/// space-separated ("" when the two runs agree on every one).
inline std::string differing_metrics(const RunMetrics& a,
                                     const RunMetrics& b) {
  std::string out;
  for (const MetricDef& m : kMetrics) {
    if (m.get(a) == m.get(b)) continue;
    if (!out.empty()) out += ' ';
    out += m.name;
  }
  return out;
}

/// The memory side of a run_system cell on `sim`: every channel gets its
/// own `kind` scheme behind the configured content encoder, and
/// batch.max_lines, when set, bounds the controller's write gather.
std::unique_ptr<mem::MemorySystem> make_memory_system(
    sim::Simulator& sim, const SystemConfig& cfg, schemes::SchemeKind kind,
    stats::Registry& reg, double ones_bias);

/// Fill `m`'s scheme and TW_RUN_METRICS fields from a finished run:
/// fold the channel registries into `reg`, read every registry row, then
/// the kComponent rows off `msys` and `cpus`. A stat no component
/// registered reads 0 and is created in `reg`, which is how a misnamed
/// row shows.
void harvest(mem::MemorySystem& msys, const cpu::MultiCore& cpus,
             stats::Registry& reg, RunMetrics& m);

/// Run one cell. Deterministic in (cfg.seed, profile, kind).
RunMetrics run_system(const SystemConfig& cfg,
                      const workload::WorkloadProfile& profile,
                      schemes::SchemeKind kind);

}  // namespace tw::harness
