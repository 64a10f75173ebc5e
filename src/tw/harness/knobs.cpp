#include "tw/harness/knobs.hpp"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "tw/common/strings.hpp"

namespace tw::harness {
namespace {

// The field a row reads and writes, as a generic accessor usable on both
// `SystemConfig&` (set) and `const SystemConfig&` (get).
#define TW_FIELD(path) [](auto& c) -> auto& { return c.path; }

template <class F>
using FieldType = std::remove_cvref_t<decltype(std::declval<F>()(
    std::declval<SystemConfig&>()))>;

[[noreturn]] void reject(std::string_view what, std::string_view value) {
  throw std::invalid_argument(std::string(what) + ", got '" +
                              std::string(value) + "'");
}

double parse_real(std::string_view s) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || ptr != s.data() + s.size() ||
      !std::isfinite(v)) {
    reject("expected a finite number", s);
  }
  return v;
}

// Default stream formatting (what dumps have always used), widened to 17
// significant digits only when six would not read back exactly.
std::string format_real(double v) {
  std::ostringstream os;
  os << v;
  if (parse_real(os.str()) != v) {
    os.str("");
    os << std::setprecision(17) << v;
  }
  return os.str();
}

template <class E>
using Names = std::vector<std::pair<std::string_view, E>>;

template <class E>
std::string spelling(const Names<E>& names) {
  std::string s;
  for (const auto& [name, e] : names) {
    s += (s.empty() ? "" : "|") + std::string(name);
  }
  return s;
}

template <class E>
E lookup(const Names<E>& names, std::string_view v) {
  const std::string s = to_lower(v);
  for (const auto& [name, e] : names) {
    if (name == s) return e;
  }
  reject("expected " + spelling(names), v);
}

/// Unsigned integer field, stored as value * unit (ns -> ps, MB -> bytes).
template <class F>
Knob uint_row(std::string_view key, F field, std::string_view help,
              std::string type = "N", u64 unit = 1) {
  using T = FieldType<F>;
  static_assert(std::is_unsigned_v<T>);
  return {.key = key,
          .type = std::move(type),
          .help = help,
          .set = [field, unit](SystemConfig& c, std::string_view v) {
            const auto n = parse_u64(v);
            if (!n) reject("expected an unsigned integer", v);
            const u64 max = std::numeric_limits<T>::max() / unit;
            if (*n > max) reject("must be <= " + std::to_string(max), v);
            field(c) = static_cast<T>(*n * unit);
          },
          .get = [field, unit](const SystemConfig& c) {
            return std::to_string(field(c) / unit);
          }};
}

template <class F>
Knob ns_row(std::string_view key, F field, std::string_view help) {
  return uint_row(key, field, help, "ns", ns(1));
}

template <class F>
Knob real_row(std::string_view key, F field, std::string_view help) {
  return {.key = key,
          .type = "X",
          .help = help,
          .set = [field](SystemConfig& c, std::string_view v) {
            field(c) = parse_real(v);
          },
          .get = [field](const SystemConfig& c) {
            return format_real(field(c));
          }};
}

/// Byte-count field set in MB. A fraction is accepted when it names a
/// whole number of bytes (0.25 = 256 KB).
template <class F>
Knob mb_row(std::string_view key, F field, std::string_view help) {
  constexpr double kMb = 1 << 20;
  return {.key = key,
          .type = "MB",
          .help = help,
          .set = [field](SystemConfig& c, std::string_view v) {
            const double bytes = parse_real(v) * kMb;
            if (bytes < 0.0 || bytes != std::floor(bytes) ||
                bytes >= 0x1p64) {
              reject("expected a size in MB that is a whole number of bytes",
                     v);
            }
            field(c) = static_cast<u64>(bytes);
          },
          .get = [field](const SystemConfig& c) {
            return format_real(static_cast<double>(field(c)) / kMb);
          }};
}

/// Named values; the first name of a value is the one written out.
template <class F, class E = FieldType<F>>
Knob enum_row(std::string_view key, F field, Names<E> names,
              std::string_view help) {
  return {.key = key,
          .type = spelling(names),
          .help = help,
          .set = [field, names](SystemConfig& c, std::string_view v) {
            field(c) = lookup(names, v);
          },
          .get = [field, names](const SystemConfig& c) {
            for (const auto& [name, e] : names) {
              if (e == field(c)) return std::string(name);
            }
            return std::string("?");
          }};
}

template <class F>
Knob bool_row(std::string_view key, F field, std::string_view help) {
  Knob k = enum_row(key, field,
                    Names<bool>{{"true", true}, {"false", false},
                                {"1", true}, {"0", false},
                                {"on", true}, {"off", false},
                                {"yes", true}, {"no", false}},
                    help);
  k.type = "bool";
  return k;
}

/// Write-only row that replaces a whole sub-config with a named preset.
template <class E, class Apply>
Knob preset_row(std::string_view key, Names<E> names, Apply apply,
                std::string_view help) {
  return {.key = key,
          .type = spelling(names),
          .help = help,
          .set = [names, apply](SystemConfig& c, std::string_view v) {
            apply(c, lookup(names, v));
          }};
}

std::vector<Knob> build_table() {
  using Drain = mem::ControllerConfig::DrainPolicy;
  using encode::EncoderKind;
  using fault::FaultProfile;
  using mem::DramPolicy;
  using core::PackOrder;
  using pcm::ChannelInterleave;
  return {
      ns_row("pcm.t_read_ns", TW_FIELD(pcm.timing.t_read),
             "array read latency"),
      ns_row("pcm.t_reset_ns", TW_FIELD(pcm.timing.t_reset),
             "RESET pulse width"),
      ns_row("pcm.t_set_ns", TW_FIELD(pcm.timing.t_set),
             "SET pulse width (Tset/Treset rounds to the paper's K)"),
      uint_row("pcm.chip_budget", TW_FIELD(pcm.power.chip_budget),
               "concurrent SET-equivalent bit writes per chip"),
      uint_row("pcm.reset_current_ratio",
               TW_FIELD(pcm.power.reset_current_ratio_l),
               "Creset/Cset, the paper's L"),
      bool_row("pcm.gcp", TW_FIELD(pcm.power.global_charge_pump),
               "global charge pump: the chips of a bank share current"),
      uint_row("pcm.chips_per_bank", TW_FIELD(pcm.geometry.chips_per_bank),
               "chips forming one bank word"),
      uint_row("pcm.chip_write_bits", TW_FIELD(pcm.geometry.chip_write_bits),
               "write-unit width per chip in bits"),
      uint_row("pcm.line_bytes", TW_FIELD(pcm.geometry.cache_line_bytes),
               "cache line size in bytes (power of two)"),
      uint_row("pcm.banks", TW_FIELD(pcm.geometry.banks),
               "banks per rank (power of two)"),
      uint_row("pcm.subarrays", TW_FIELD(pcm.geometry.subarrays_per_bank),
               "partitions per bank (power of two)").alias("subarrays"),
      uint_row("pcm.channels", TW_FIELD(pcm.geometry.channels),
               "memory channels (power of two)").alias("channels"),
      enum_row("pcm.channel_interleave",
               TW_FIELD(pcm.geometry.channel_interleave),
               Names<ChannelInterleave>{{"line", ChannelInterleave::kLine},
                                        {"bank", ChannelInterleave::kBank},
                                        {"row", ChannelInterleave::kRow}},
               "line-index bits that select the channel").alias("interleave"),
      uint_row("controller.read_queue",
               TW_FIELD(controller.read_queue_entries), "read queue entries"),
      uint_row("controller.write_queue",
               TW_FIELD(controller.write_queue_entries),
               "write queue entries"),
      enum_row("controller.drain", TW_FIELD(controller.drain),
               Names<Drain>{{"strict", Drain::kStrict},
                            {"opportunistic", Drain::kOpportunistic}},
               "drain writes on a full queue, or also when no read waits"),
      uint_row("controller.drain_low",
               TW_FIELD(controller.drain_low_watermark),
               "write-queue level a drain stops at"),
      bool_row("controller.write_coalescing",
               TW_FIELD(controller.write_coalescing),
               "merge queued writes to the same line"),
      bool_row("controller.read_forwarding",
               TW_FIELD(controller.read_forwarding),
               "serve reads from queued write data"),
      bool_row("controller.write_pausing", TW_FIELD(controller.write_pausing),
               "pause an in-service write for an arriving read"),
      bool_row("controller.wear_leveling", TW_FIELD(controller.wear_leveling),
               "Start-Gap wear leveling"),
      uint_row("controller.gap_interval",
               TW_FIELD(controller.start_gap.gap_write_interval),
               "writes between Start-Gap moves"),
      uint_row("controller.gap_region_lines",
               TW_FIELD(controller.start_gap.region_lines),
               "lines per Start-Gap region (even, >= 2)"),
      bool_row("palp.enabled", TW_FIELD(controller.palp.enabled),
               "partition-level parallelism (PALP)").alias("palp", "true"),
      uint_row("palp.write_ways", TW_FIELD(controller.palp.write_ways),
               "partition writes sharing one pump").alias("palp-ways"),
      uint_row("palp.max_rww_reads", TW_FIELD(controller.palp.max_rww_reads),
               "reads per bank while its pump is loaded").alias("palp-rww"),
      bool_row("dram.enabled", TW_FIELD(dram.enabled),
               "DRAM front tier before PCM").alias("dram", "true"),
      mb_row("dram.capacity_mb", TW_FIELD(dram.capacity_bytes),
             "tier capacity in MB (fractions allowed), across all channels")
          .alias("dram-mb", {}, "dram"),
      uint_row("dram.ways", TW_FIELD(dram.ways), "set associativity"),
      enum_row("dram.policy", TW_FIELD(dram.policy),
               Names<DramPolicy>{{"lru", DramPolicy::kLru},
                                 {"mac", DramPolicy::kMac}},
               "replacement policy (mac: PCM-bank-aware writeback groups)")
          .alias("dram-policy", {}, "dram"),
      ns_row("dram.t_row_hit_ns", TW_FIELD(dram.t_row_hit),
             "access on the open row"),
      ns_row("dram.t_row_miss_ns", TW_FIELD(dram.t_row_miss),
             "activate + access on another row"),
      uint_row("dram.row_lines", TW_FIELD(dram.row_lines),
               "lines per DRAM row (power of two)"),
      uint_row("dram.banks", TW_FIELD(dram.banks),
               "DRAM banks per channel (power of two)"),
      uint_row("dram.pending_limit", TW_FIELD(dram.pending_limit),
               "PCM forwards buffered per channel before backpressure"),
      uint_row("dram.mac_group", TW_FIELD(dram.mac_group),
               "dirty ways written back as one group (mac policy)"),
      enum_row("encode.kind", TW_FIELD(encode.kind),
               Names<EncoderKind>{{"none", EncoderKind::kNone},
                                  {"flip", EncoderKind::kFlip},
                                  {"wire", EncoderKind::kWire},
                                  {"coset", EncoderKind::kCoset}},
               "content encoder in front of every scheme").alias("encoder"),
      uint_row("batch.max_lines", TW_FIELD(batch.max_lines),
               "same-bank lines per joint schedule").alias("batch-lines"),
      uint_row("core.clock_ps", TW_FIELD(core.clock_period),
               "core clock period", "ps"),
      real_row("core.peak_ipc", TW_FIELD(core.peak_ipc),
               "instructions per cycle when unstalled"),
      uint_row("core.mlp", TW_FIELD(core.mlp),
               "outstanding read misses per core"),
      uint_row("tetris.analysis_cycles", TW_FIELD(tetris.analysis_cycles),
               "Tetris analysis latency in controller cycles"),
      bool_row("tetris.forbid_self_overlap",
               TW_FIELD(tetris.forbid_self_overlap),
               "keep a unit's write-0 and write-1 in separate windows"),
      enum_row("tetris.pack_order", TW_FIELD(tetris.pack_order),
               Names<PackOrder>{{"ffd", PackOrder::kFirstFitDecreasing},
                                {"ffa", PackOrder::kFirstFitArrival},
                                {"bfd", PackOrder::kBestFitDecreasing}},
               "packing heuristic: first-fit decreasing (the paper), "
               "first-fit arrival order, best-fit decreasing"),
      preset_row("fault.profile",
                 Names<FaultProfile>{{"none", FaultProfile::kNone},
                                     {"light", FaultProfile::kLight},
                                     {"heavy", FaultProfile::kHeavy},
                                     {"stuck-bank", FaultProfile::kStuckBank}},
                 [](SystemConfig& c, FaultProfile p) {
                   c.fault = fault::profile_config(p);
                 },
                 "fault preset; replaces every fault knob set before it")
          .alias("fault-profile"),
      real_row("fault.set_fail_prob", TW_FIELD(fault.set_fail_prob),
               "per-bit SET failure probability"),
      real_row("fault.reset_fail_prob", TW_FIELD(fault.reset_fail_prob),
               "per-bit RESET failure probability"),
      uint_row("fault.max_retries", TW_FIELD(fault.max_retries),
               "verify-and-retry attempts per line"),
      real_row("fault.retry_widening", TW_FIELD(fault.retry_widening),
               "pulse-width multiplier per retry (>= 1)"),
      real_row("fault.retry_fail_damping", TW_FIELD(fault.retry_fail_damping),
               "failure-probability multiplier per retry"),
      uint_row("fault.wear_knee", TW_FIELD(fault.wear_knee),
               "per-cell program count where wear-out starts (0 = off)"),
      real_row("fault.worn_fail_prob", TW_FIELD(fault.worn_fail_prob),
               "failure-probability floor past the wear knee"),
      uint_row("fault.stuck_bank", TW_FIELD(fault.stuck_bank),
               "flat bank stuck from power-on (4294967295 = none)"),
      real_row("fault.stuck_bank_prob", TW_FIELD(fault.stuck_bank_prob),
               "per-bank probability of being stuck at power-on"),
      ns_row("fault.brownout_period_ns", TW_FIELD(fault.brownout_period),
             "brown-out window period (0 = none)"),
      ns_row("fault.brownout_duration_ns", TW_FIELD(fault.brownout_duration),
             "brown-out length at the start of each period"),
      real_row("fault.brownout_budget_factor",
               TW_FIELD(fault.brownout_budget_factor),
               "power budget scale during a brown-out"),
      ns_row("xbar.latency_ns", TW_FIELD(xbar_latency),
             "XBar hop latency, also the sharded engine's lockstep quantum"),
      uint_row("sys.sim_threads", TW_FIELD(sim_threads),
               "accepted and ignored: the sharded engine runs every "
               "channel on the calling thread")
          .alias("sim-threads"),
      uint_row("sys.cores", TW_FIELD(cores), "simulated cores").alias("cores"),
      uint_row("sys.instructions", TW_FIELD(instructions_per_core),
               "instruction budget per core").alias("instr"),
      uint_row("sys.seed", TW_FIELD(seed), "run seed").alias("seed"),
  };
}

#undef TW_FIELD

const Knob* find_flag(std::string_view name) {
  for (const Knob& k : knob_table()) {
    if (!k.flag.empty() && k.flag == name) return &k;
  }
  return nullptr;
}

}  // namespace

Knob Knob::alias(std::string_view name, std::string_view value,
                 std::string_view implies) && {
  flag = name;
  flag_value = value;
  flag_implies = implies;
  return std::move(*this);
}

const std::vector<Knob>& knob_table() {
  static const std::vector<Knob> kTable = build_table();
  return kTable;
}

const Knob* find_knob(std::string_view key) {
  for (const Knob& k : knob_table()) {
    if (k.key == key) return &k;
  }
  return nullptr;
}

bool knob_dumped(const Knob& k, const SystemConfig& cfg) {
  // A feature's section is written out only while the feature is on, so
  // feature-off dumps keep the text they had before the feature existed.
  const std::string_view section = k.key.substr(0, k.key.find('.'));
  if (!k.get) return false;  // presets
  if (k.key == "tetris.pack_order") {
    return cfg.tetris.pack_order != core::PackOrder::kFirstFitDecreasing;
  }
  if (section == "palp") return cfg.controller.palp.enabled;
  if (section == "dram") return cfg.dram.enabled;
  if (section == "encode") return cfg.encode.enabled();
  if (section == "fault") return cfg.fault.enabled();
  return true;
}

bool expand_flag(std::string_view arg, std::vector<Setting>& out) {
  if (!starts_with(arg, "--")) return false;
  const auto eq = arg.find('=');
  const std::string_view name =
      arg.substr(2, eq == std::string_view::npos ? eq : eq - 2);
  const bool has_value = eq != std::string_view::npos;
  const std::string_view value = has_value ? arg.substr(eq + 1) : "";
  const std::string origin(arg);
  if (const Knob* k = find_knob(name)) {
    if (!has_value) {
      throw std::invalid_argument(origin + ": expected --" + origin.substr(2) +
                                  "=" + k->type);
    }
    out.push_back({std::string(k->key), std::string(value), origin});
    return true;
  }
  const Knob* k = find_flag(name);
  if (k == nullptr) return false;
  if (k->flag_value.empty() != has_value) {
    throw std::invalid_argument(origin + (has_value ? ": takes no value"
                                                    : ": expected a value"));
  }
  if (const Knob* implied = find_flag(k->flag_implies)) {
    out.push_back({std::string(implied->key), std::string(implied->flag_value),
                   origin});
  }
  out.push_back({std::string(k->key),
                 std::string(has_value ? value : k->flag_value), origin});
  return true;
}

std::string config_error(const SystemConfig& cfg) {
  if (!cfg.pcm.timing.valid()) return "PCM timing needs 1 ns <= RESET <= SET";
  if (!cfg.pcm.power.valid()) {
    return "PCM power needs a chip budget and a RESET/SET current ratio >= 1";
  }
  if (std::string e = cfg.pcm.geometry.error(); !e.empty()) return e;
  if (!cfg.pcm.energy.valid()) return "PCM energies must be positive";
  if (!cfg.controller.valid()) {
    return "controller: queues need >= 1 entry, the drain low watermark must "
           "sit below the write queue size, Start-Gap needs an even region "
           ">= 2 lines and a gap interval >= 1, and PALP excludes write "
           "pausing";
  }
  if (std::string e = cfg.dram.error(cfg.pcm.geometry); !e.empty()) return e;
  if (!cfg.fault.valid()) {
    return "fault: probabilities must lie in [0, 1] (stuck-bank below 1), "
           "retry widening >= 1, retry damping and brown-out budget factor "
           "in (0, 1], and a brown-out no longer than its period";
  }
  if (!cfg.core.valid()) return "core: need clock, peak IPC and MLP > 0";
  if (cfg.xbar_latency == 0) {
    return "xbar latency must be >= 1 ns (the sharded engine's quantum)";
  }
  return "";
}

void apply_settings(SystemConfig& cfg, std::span<const Setting> settings) {
  const Setting* culprit = nullptr;
  bool valid = config_error(cfg).empty();
  for (const Setting& s : settings) {
    const Knob* k = find_knob(s.key);
    if (k == nullptr) {
      throw std::runtime_error(s.origin + ": unknown key '" + s.key + "'");
    }
    try {
      k->set(cfg, s.value);
    } catch (const std::exception& e) {
      throw std::runtime_error(s.origin + ": " + e.what());
    }
    const bool now_valid = config_error(cfg).empty();
    if (valid && !now_valid) culprit = &s;
    valid = now_valid;
  }
  if (const std::string err = config_error(cfg); !err.empty()) {
    throw std::runtime_error(
        (culprit != nullptr ? culprit->origin : std::string("configuration")) +
        ": " + err);
  }
}

void print_knob_help(std::ostream& out) {
  for (const Knob& k : knob_table()) {
    std::string flag = "  --" + std::string(k.key) + "=" + k.type;
    out << flag << std::string(flag.size() < 40 ? 40 - flag.size() : 1, ' ')
        << k.help;
    if (!k.flag.empty()) {
      out << " [--" << k.flag << (k.flag_value.empty() ? "=" + k.type : "")
          << "]";
    }
    out << "\n";
  }
}

std::optional<u64> parse_u64(std::string_view s) {
  u64 v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace tw::harness
