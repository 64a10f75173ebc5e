#pragma once
// Full-system experiment runner: builds simulator + scheme + controller +
// cores + workload for one (workload, scheme) cell and runs it to
// completion, returning the metrics the paper's figures are built from.

#include <string>
#include <string_view>

#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/encode/encoder.hpp"
#include "tw/fault/fault.hpp"
#include "tw/mem/controller.hpp"
#include "tw/mem/dram_tier.hpp"
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
  /// Pool-thread cap for the parallel channel phase (0 = all available).
  /// Never affects results — same-seed runs are bit-identical at any
  /// value — so it is excluded from config_hash.
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

/// Metrics of one completed run.
struct RunMetrics {
  std::string workload;
  std::string scheme;
  bool completed = false;

  double read_latency_ns = 0.0;   ///< mean memory read latency
  double write_latency_ns = 0.0;  ///< mean write latency (queue + service)
  double write_service_ns = 0.0;  ///< mean write service time alone
  double write_units = 0.0;       ///< mean serial write units per line
  double ipc = 0.0;               ///< whole-system IPC
  double runtime_ns = 0.0;        ///< time to retire all budgets
  u64 reads = 0;
  u64 writes = 0;
  u64 retired = 0;
  u64 sim_events = 0;  ///< simulator events executed (kernel throughput)
  double write_energy_pj = 0.0;
  double read_energy_pj = 0.0;
  double bits_per_write = 0.0;    ///< programmed bits per line write (wear)
  double sets_per_write = 0.0;    ///< SET pulses per line write
  double read_p99_ns = 0.0;
  double write_p99_ns = 0.0;
  u64 write_pauses = 0;   ///< write-pausing preemptions
  u64 gap_moves = 0;      ///< Start-Gap migration writes
  u64 writes_batched = 0; ///< writes serviced in multi-line batches
  double batch_lines = 0.0;      ///< mean lines per multi-line batch issue
  double batch_occupancy = 0.0;  ///< mean budget utilization of joint packs
  // Controller queue statistics (thread-count invariant like the rest).
  u64 reads_forwarded = 0;   ///< reads served from queued write data
  u64 writes_coalesced = 0;  ///< writes merged into a queued same-line write
  u64 read_q_peak = 0;       ///< deepest the read queue ever got
  u64 write_q_peak = 0;      ///< deepest the write queue ever got
  u64 dispatch_rounds = 0;   ///< controller scheduling rounds executed
  u64 row_hits = 0;          ///< consecutive same-row activations per bank
  // Tracing (zero when the run was untraced).
  u64 trace_records = 0;   ///< records collected into the sinks
  u64 trace_dropped = 0;   ///< records lost to ring wraparound
  u64 trace_samples = 0;   ///< metrics snapshots taken
  // Fault injection (zero when faults were off).
  u64 fault_retries = 0;    ///< verify-and-retry attempts run
  u64 failed_lines = 0;     ///< lines still failed after the retry ladder
  u64 brownout_writes = 0;  ///< writes planned under a shrunken budget
  u64 stuck_remaps = 0;     ///< services redirected off a stuck bank
  // Partition-level parallelism (zero when PALP was off).
  u64 palp_overlapped_reads = 0;  ///< reads issued against a loaded pump
  u64 palp_pump_stalls = 0;       ///< admissions deferred by the pump budget
  u64 palp_write_overlaps = 0;    ///< writes begun while another was in flight
  // DRAM front tier (zero when the tier was off).
  u64 dram_hits = 0;          ///< requests absorbed by the tier
  u64 dram_misses = 0;        ///< requests that went to the PCM path
  u64 dram_writebacks = 0;    ///< dirty lines written back to PCM
  u64 dram_clean_evicts = 0;  ///< clean victims dropped without PCM traffic
  // Content-encoder pre-stage (zero when no encoder was configured).
  u64 enc_writes = 0;       ///< line writes that went through the encoder
  u64 enc_coded_units = 0;  ///< units stored under a non-identity code
  u64 enc_tag_bits = 0;     ///< encoder metadata cells pulsed
};

/// One reportable scalar of a RunMetrics: the name tables, CSV headers and
/// `tw_sweep --metric` use, how to read it, and how many decimals print.
struct MetricDef {
  std::string_view name;
  double (*get)(const RunMetrics&);
  int decimals;
  bool csv;  ///< a column of write_csv
};

#define TW_METRIC(field, decimals, csv)                                     \
  MetricDef {                                                               \
    #field, [](const RunMetrics& r) { return static_cast<double>(r.field); }, \
        decimals, csv                                                       \
  }

/// Every metric by name, write_csv's columns first and in its order.
inline constexpr MetricDef kMetrics[] = {
    TW_METRIC(completed, 0, true),
    TW_METRIC(read_latency_ns, 2, true),
    TW_METRIC(write_latency_ns, 2, true),
    TW_METRIC(write_service_ns, 2, true),
    TW_METRIC(write_units, 3, true),
    TW_METRIC(ipc, 4, true),
    TW_METRIC(runtime_ns, 1, true),
    TW_METRIC(reads, 0, true),
    TW_METRIC(writes, 0, true),
    TW_METRIC(retired, 0, true),
    TW_METRIC(write_energy_pj, 1, true),
    TW_METRIC(read_energy_pj, 1, true),
    TW_METRIC(bits_per_write, 2, true),
    TW_METRIC(read_p99_ns, 1, true),
    TW_METRIC(write_p99_ns, 1, true),
    TW_METRIC(sim_events, 0, false),
    TW_METRIC(sets_per_write, 2, false),
    TW_METRIC(write_pauses, 0, false),
    TW_METRIC(gap_moves, 0, false),
    TW_METRIC(writes_batched, 0, false),
    TW_METRIC(batch_lines, 3, false),
    TW_METRIC(batch_occupancy, 4, false),
    TW_METRIC(reads_forwarded, 0, false),
    TW_METRIC(writes_coalesced, 0, false),
    TW_METRIC(read_q_peak, 0, false),
    TW_METRIC(write_q_peak, 0, false),
    TW_METRIC(dispatch_rounds, 0, false),
    TW_METRIC(row_hits, 0, false),
    TW_METRIC(fault_retries, 0, false),
    TW_METRIC(failed_lines, 0, false),
    TW_METRIC(brownout_writes, 0, false),
    TW_METRIC(stuck_remaps, 0, false),
    TW_METRIC(palp_overlapped_reads, 0, false),
    TW_METRIC(palp_pump_stalls, 0, false),
    TW_METRIC(palp_write_overlaps, 0, false),
    TW_METRIC(dram_hits, 0, false),
    TW_METRIC(dram_misses, 0, false),
    TW_METRIC(dram_writebacks, 0, false),
    TW_METRIC(dram_clean_evicts, 0, false),
    TW_METRIC(enc_writes, 0, false),
    TW_METRIC(enc_coded_units, 0, false),
    TW_METRIC(enc_tag_bits, 0, false),
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

#undef TW_METRIC

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
    out += (out.empty() ? "" : " ") + std::string(m.name);
  }
  return out;
}

/// Run one cell. Deterministic in (cfg.seed, profile, kind).
RunMetrics run_system(const SystemConfig& cfg,
                      const workload::WorkloadProfile& profile,
                      schemes::SchemeKind kind);

}  // namespace tw::harness
