#pragma once
// Shared plumbing for the figure-reproduction harnesses: CLI flags,
// per-workload instruction budgets, and the standard "system figure"
// runner used by Figures 11-14 (same simulation matrix, different
// metric).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tw/common/strings.hpp"
#include "tw/common/svg.hpp"
#include "tw/core/factory.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/harness/figure.hpp"
#include "tw/harness/knobs.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/stats/accumulator.hpp"
#include "tw/trace/record.hpp"
#include "tw/workload/generator.hpp"

namespace tw::bench {

/// A flag one binary adds to the shared set (micro_sim --trace-overhead,
/// tw_sweep --vary=...).
struct ExtraFlag {
  std::string_view name;  ///< without the leading "--"
  std::string_view help;
  bool takes_value = false;  ///< given as --name=VALUE, possibly repeated
};

/// Command-line options common to all figure binaries. Simulator knobs
/// are not fields here: `--<key>=<value>` for any key of the knob table
/// (tw/harness/knobs.hpp), or one of its old short flags, lands in
/// `overrides`, which system_config() applies on top of Table II.
struct Options {
  u64 target_ops_per_core = 1500;  ///< memory requests per core to aim for
  u64 max_instructions = 60'000'000;
  u64 seed = 42;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  std::string csv_path;     ///< optional CSV dump
  std::string svg_path;     ///< optional SVG figure
  std::string json_path;    ///< optional machine-readable BENCH_*.json
  std::string trace_path;   ///< optional Chrome trace of one traced run
  std::string trace_metrics_path;  ///< optional metrics-snapshot CSV
  u32 trace_categories = trace::kAllCategories;
  bool quick = false;
  /// Knob settings in command-line order, already checked to parse and to
  /// leave Table II consistent.
  std::vector<harness::Setting> overrides;
  /// ExtraFlags that were given, as "name" or "name=value", in order.
  std::vector<std::string> extras;

  bool has(std::string_view flag) const {
    return std::find(extras.begin(), extras.end(), flag) != extras.end();
  }

  /// The values of every --flag=VALUE given, in command-line order.
  std::vector<std::string> values(std::string_view flag) const {
    std::vector<std::string> out;
    const std::string prefix = std::string(flag) + "=";
    for (const std::string& e : extras) {
      if (starts_with(e, prefix)) out.push_back(e.substr(prefix.size()));
    }
    return out;
  }

  /// Unknown flags, malformed values and inconsistent configs print an
  /// error naming the flag and exit 2.
  static Options parse(int argc, char** argv,
                       const std::vector<ExtraFlag>& extra = {}) {
    Options o;
    bool ops_given = false;  // an explicit --ops outranks --quick's default
    const auto fail = [&](const std::string& msg) {
      std::cerr << argv[0] << ": " << msg << " (see --help)\n";
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      const auto declared = [&](const ExtraFlag& f) {
        return f.takes_value ? name == "--" + std::string(f.name) &&
                                   eq != std::string::npos
                             : arg == "--" + std::string(f.name);
      };
      const auto number = [&] {
        const auto n = harness::parse_u64(value);
        if (!n) fail(arg + ": expected an unsigned integer");
        return *n;
      };
      if (arg == "--help" || arg == "-h") {
        std::cout << "flags:\n"
                     "  --quick --ops=N --seed=N --threads=N\n"
                     "  --csv=PATH --svg=PATH --json=PATH --trace=PATH\n"
                     "  --trace-metrics=PATH --trace-categories=LIST\n";
        for (const ExtraFlag& f : extra) {
          std::cout << "  --" << f.name << (f.takes_value ? "=..." : "")
                    << "  " << f.help << "\n";
        }
        std::cout << "simulator knobs (--<key>=<value>, applied in order; "
                     "old flag in brackets):\n";
        harness::print_knob_help(std::cout);
        std::exit(0);
      } else if (arg == "--quick") {
        o.quick = true;
        if (!ops_given) o.target_ops_per_core = 400;
      } else if (name == "--ops") {
        o.target_ops_per_core = number();
        ops_given = true;
      } else if (name == "--seed") {
        o.seed = number();
      } else if (name == "--threads") {
        o.threads = number();
      } else if (name == "--csv") {
        o.csv_path = value;
      } else if (name == "--svg") {
        o.svg_path = value;
      } else if (name == "--json") {
        o.json_path = value;
      } else if (name == "--trace") {
        o.trace_path = value;
      } else if (name == "--trace-metrics") {
        o.trace_metrics_path = value;
      } else if (name == "--trace-categories") {
        try {
          o.trace_categories = trace::parse_categories(value.c_str());
        } catch (const std::invalid_argument& e) {
          fail(arg + ": " + e.what());
        }
      } else if (std::any_of(extra.begin(), extra.end(), declared)) {
        o.extras.push_back(arg.substr(2));
      } else {
        try {
          if (!harness::expand_flag(arg, o.overrides)) {
            fail(arg + ": unknown flag");
          }
        } catch (const std::exception& e) {
          fail(e.what());
        }
      }
    }
    try {
      harness::SystemConfig table2;
      harness::apply_settings(table2, o.overrides);
    } catch (const std::exception& e) {
      fail(e.what());
    }
    return o;
  }
};

/// One machine-readable benchmark baseline record (the BENCH_*.json files
/// at the repo root that track the perf trajectory across PRs).
struct BenchBaseline {
  std::string bench;    ///< e.g. "micro_sim", "fig13"
  std::string config;   ///< human-readable knob summary
  double wall_ms = 0.0;
  double events_per_sec = 0.0;      ///< simulator events executed per second
  double sim_writes_per_sec = 0.0;  ///< line writes serviced per second
  /// Slowdown of the compiled-in-but-disabled tracing path vs. the same
  /// run with emission sites short-circuited (<0 = not measured).
  double trace_overhead_pct = -1.0;
};

inline void write_bench_json(const std::string& path,
                             const BenchBaseline& b) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"" << b.bench << "\",\n"
      << "  \"config\": \"" << b.config << "\",\n"
      << "  \"wall_ms\": " << fixed(b.wall_ms, 2) << ",\n"
      << "  \"events_per_sec\": " << fixed(b.events_per_sec, 1) << ",\n"
      << "  \"sim_writes_per_sec\": " << fixed(b.sim_writes_per_sec, 1);
  if (b.trace_overhead_pct >= 0.0) {
    out << ",\n  \"trace_overhead_pct\": " << fixed(b.trace_overhead_pct, 2);
  }
  out << "\n}\n";
  std::cout << "(benchmark baseline written to " << path << ")\n";
}

/// Monotonic wall-clock stopwatch for the baseline records.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Instruction budget giving ~target_ops memory requests per core.
inline u64 instructions_for(const workload::WorkloadProfile& p,
                            const Options& o) {
  const double per_kilo = p.mem_ops_per_kilo();
  const u64 wanted = static_cast<u64>(
      static_cast<double>(o.target_ops_per_core) * 1000.0 / per_kilo);
  return std::min(std::max<u64>(wanted, 20'000), o.max_instructions);
}

/// The standard Table II system config for one workload under `o`: the
/// --ops budget and seed first, then the command line's knob overrides.
inline harness::SystemConfig system_config(
    const workload::WorkloadProfile& p, const Options& o) {
  harness::SystemConfig cfg;
  cfg.instructions_per_core = instructions_for(p, o);
  cfg.seed = o.seed;
  harness::apply_settings(cfg, o.overrides);
  return cfg;
}

/// The offline write stream: `writes` line writes of `p` from one trace
/// generator, each planned by `kind` (behind cfg's encoder) against the
/// scheme's own memory image, with no controller, queue or core model.
/// Fills writes, the total write_energy_pj and the per-write means
/// write_units, write_service_ns, bits_per_write and sets_per_write.
inline harness::RunMetrics plan_stream(const harness::SystemConfig& cfg,
                                       const workload::WorkloadProfile& p,
                                       schemes::SchemeKind kind, u64 writes) {
  mem::DataStore store(cfg.pcm.geometry.units_per_line(), cfg.seed,
                       p.initial_ones_fraction);
  workload::TraceGenerator gen(p, cfg.pcm.geometry, 1, cfg.seed + 1);
  const auto scheme = encode::wrap_scheme(
      core::make_scheme(kind, cfg.pcm, cfg.tetris), cfg.encode.kind);
  if (scheme->transforms_content()) {
    store.set_decoder(scheme.get(),
                      [](const void* ctx, const pcm::LineBuf& l) {
                        return static_cast<const schemes::WriteScheme*>(ctx)
                            ->decode_stored(l);
                      });
  }
  pcm::EnergyModel energy(cfg.pcm.energy);
  stats::Accumulator units, service, bits, sets;
  for (u64 n = 0; n < writes;) {
    const workload::TraceOp op = gen.next(0);
    if (!op.is_write) continue;
    const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
    pcm::LineBuf line = store.line(op.addr);
    const auto plan = scheme->plan_write(line, next);
    units.add(plan.write_units);
    service.add(to_ns(plan.latency));
    bits.add(static_cast<double>(plan.programmed.total()));
    sets.add(static_cast<double>(plan.programmed.sets));
    energy.add_write(plan.programmed);
    ++n;
  }
  harness::RunMetrics m;
  m.workload = p.name;
  m.scheme = std::string(schemes::scheme_name(kind));
  m.completed = true;
  m.writes = writes;
  m.write_energy_pj = energy.write_energy_pj();
  m.write_units = units.mean();
  m.write_service_ns = service.mean();
  m.bits_per_write = bits.mean();
  m.sets_per_write = sets.mean();
  return m;
}

/// Names, on `err`, every run that stopped at max_sim_time before its
/// cores retired their budgets (`label(i)` is appended for run i); returns
/// how many did. Such a run describes a cut-off system, so no figure may
/// be built from it.
inline std::size_t report_incomplete(
    std::span<const harness::RunMetrics> runs, std::ostream& err,
    const std::function<std::string(std::size_t)>& label = {}) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].completed) continue;
    err << "incomplete run (stopped at max_sim_time): " << runs[i].workload
        << "/" << runs[i].scheme << (label ? label(i) : "") << "\n";
    ++n;
  }
  return n;
}

inline std::size_t report_incomplete(const harness::Matrix& m,
                                     std::ostream& err) {
  std::size_t n = 0;
  for (const auto& row : m.cells) n += report_incomplete(row, err);
  return n;
}

/// The paper's evaluated schemes with the DCW baseline in column 0.
inline std::vector<schemes::SchemeKind> paper_columns() {
  return {schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
          schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
          schemes::SchemeKind::kTetris};
}

/// Run the full-system matrix with per-workload instruction budgets.
inline harness::Matrix run_paper_matrix(const Options& o) {
  return harness::run_matrix(
      [&o](const workload::WorkloadProfile& p) { return system_config(p, o); },
      workload::parsec_profiles(), paper_columns(), o.threads);
}

/// Emit the --json baseline for a full-system matrix run, aggregating
/// simulator events and serviced writes across every cell.
inline void maybe_write_matrix_json(const harness::Matrix& m,
                                    const Options& o, const char* bench,
                                    double wall_ms) {
  if (o.json_path.empty()) return;
  u64 events = 0, writes = 0;
  for (const auto& row : m.cells) {
    for (const auto& cell : row) {
      events += cell.sim_events;
      writes += cell.writes;
    }
  }
  BenchBaseline b;
  b.bench = bench;
  b.config = std::string(o.quick ? "quick" : "full") +
             " ops=" + std::to_string(o.target_ops_per_core) +
             " seed=" + std::to_string(o.seed);
  b.wall_ms = wall_ms;
  const double secs = wall_ms / 1000.0;
  b.events_per_sec = secs > 0.0 ? static_cast<double>(events) / secs : 0.0;
  b.sim_writes_per_sec =
      secs > 0.0 ? static_cast<double>(writes) / secs : 0.0;
  write_bench_json(o.json_path, b);
}

/// When --trace was given, re-run one representative cell (first
/// workload, Tetris) with tracing live and write the Chrome trace (and
/// optionally the metrics CSV). Kept out of the timed matrix so tracing
/// never skews the benchmark numbers.
inline void maybe_trace_run(const Options& o) {
  if (o.trace_path.empty() && o.trace_metrics_path.empty()) return;
  const auto& workloads = workload::parsec_profiles();
  harness::SystemConfig cfg = system_config(workloads[0], o);
  cfg.trace.chrome_path = o.trace_path;
  cfg.trace.metrics_path = o.trace_metrics_path;
  cfg.trace.categories = o.trace_categories;
  const harness::RunMetrics m = harness::run_system(
      cfg, workloads[0], schemes::SchemeKind::kTetris);
  std::cout << "(traced run: " << m.trace_records << " records, "
            << m.trace_samples << " metric samples, " << m.trace_dropped
            << " dropped";
  if (!o.trace_path.empty()) std::cout << " -> " << o.trace_path;
  std::cout << ")\n";
}

/// Render a grouped bar chart of the normalized values to `path`.
inline void write_svg(const harness::Matrix& m,
                      const std::vector<std::vector<double>>& norm,
                      const char* title, const char* y_label,
                      const std::string& path) {
  BarChart chart(title, y_label);
  std::vector<std::string> names;
  for (const auto kind : m.kinds)
    names.emplace_back(schemes::scheme_name(kind));
  chart.set_series(std::move(names));
  for (std::size_t w = 0; w < m.workloads.size(); ++w) {
    chart.add_group(m.workloads[w].name, norm[w]);
  }
  chart.set_reference(1.0);
  std::ofstream out(path);
  chart.render(out);
}

/// Figures 11-14: one metric normalized to DCW, against the paper's
/// averages for fnw, 2stage, 3stage and tetris.
struct SystemFigure {
  const char* title;
  const char* y_label;  ///< report_all's SVG axis
  harness::MetricFn metric;
  std::vector<double> paper;
  bool higher_better = false;  ///< IPC; latencies and runtime improve down
};

inline const std::vector<SystemFigure> kSystemFigures = {
    {"Figure 11: normalized read latency", "normalized to DCW",
     [](const harness::RunMetrics& r) { return r.read_latency_ns; },
     {0.61, 0.50, 0.44, 0.35}},
    {"Figure 12: normalized write latency", "normalized to DCW",
     [](const harness::RunMetrics& r) { return r.write_latency_ns; },
     {0.75, 0.67, 0.65, 0.60}},
    {"Figure 13: IPC improvement", "x over DCW",
     [](const harness::RunMetrics& r) { return r.ipc; },
     {1.4, 1.6, 1.8, 2.0},
     true},
    {"Figure 14: normalized running time", "normalized to DCW",
     [](const harness::RunMetrics& r) { return r.runtime_ns; },
     {0.76, 0.66, 0.61, 0.54}},
};

/// Prints f's normalized table with the paper's averages as its last row.
/// True when the measured geomeans rank adjacent schemes as the paper
/// does wherever the paper ranks them apart.
inline bool print_figure(const harness::Matrix& m, const SystemFigure& f,
                         std::ostream& out) {
  AsciiTable t = harness::normalized_table(m, f.metric, 0);
  std::vector<std::string> paper_row = {"paper avg", "1.000"};
  for (const double v : f.paper) paper_row.push_back(fixed(v, 3));
  t.add_row(std::move(paper_row));
  t.print(out);
  const auto geo = harness::normalized_values(m, f.metric, 0).back();
  const auto improves = [&](double a, double b) {
    return f.higher_better ? a > b : a < b;
  };
  for (std::size_t s = 2; s < m.kinds.size(); ++s) {
    if (f.paper[s - 1] != f.paper[s - 2] &&
        improves(geo[s], geo[s - 1]) !=
            improves(f.paper[s - 1], f.paper[s - 2])) {
      return false;
    }
  }
  return true;
}

/// Shared driver for Figures 11-14: run the matrix, print f's table and
/// the scheme geomeans next to the paper's averages.
inline int system_figure(int argc, char** argv, const SystemFigure& f,
                         const char* paper_citation) {
  const char* unit = f.higher_better ? "x" : "";
  const char* relation =
      f.higher_better ? "improvement over" : "normalized to";
  const Options o = Options::parse(argc, argv);
  std::cout << f.title << "\n"
            << std::string(std::strlen(f.title), '=') << "\n";
  std::cout << "(" << relation << " the DCW baseline; " << paper_citation
            << ")\n\n";

  const WallTimer timer;
  const harness::Matrix m = run_paper_matrix(o);
  const double wall_ms = timer.elapsed_ms();
  if (report_incomplete(m, std::cerr) > 0) return 1;
  const bool shape_ok = print_figure(m, f, std::cout);
  const auto norm = harness::normalized_values(m, f.metric, 0);
  std::cout << "\nmeasured geomean vs paper average:\n";
  for (std::size_t s = 1; s < m.kinds.size(); ++s) {
    std::cout << "  " << pad(schemes::scheme_name(m.kinds[s]), 8) << " "
              << fixed(norm.back()[s], 3) << unit << " (paper "
              << fixed(f.paper[s - 1], 3) << unit << ")\n";
  }
  std::cout << (shape_ok ? "\nshape: OK — scheme ranking matches the paper\n"
                         : "\nshape: MISMATCH in scheme ranking\n");
  if (!o.csv_path.empty()) {
    std::ofstream out(o.csv_path);
    harness::write_csv(m, out);
    std::cout << "(raw results written to " << o.csv_path << ")\n";
  }
  if (!o.svg_path.empty()) {
    write_svg(m, norm, f.title,
              (std::string(relation) + " DCW baseline").c_str(), o.svg_path);
    std::cout << "(figure written to " << o.svg_path << ")\n";
  }
  maybe_write_matrix_json(m, o, f.title, wall_ms);
  maybe_trace_run(o);
  return shape_ok ? 0 : 1;
}

}  // namespace tw::bench
