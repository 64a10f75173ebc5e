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
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tw/common/parallel.hpp"
#include "tw/common/strings.hpp"
#include "tw/common/svg.hpp"
#include "tw/harness/figure.hpp"
#include "tw/harness/knobs.hpp"
#include "tw/trace/record.hpp"

namespace tw::bench {

/// A flag one binary adds to the shared set (micro_sim --trace-overhead).
struct ExtraFlag {
  std::string_view name;  ///< without the leading "--"
  std::string_view help;
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
  std::vector<std::string> extras;  ///< ExtraFlag names that were given

  bool has(std::string_view flag) const {
    return std::find(extras.begin(), extras.end(), flag) != extras.end();
  }

  /// Unknown flags, malformed values and inconsistent configs print an
  /// error naming the flag and exit 2.
  static Options parse(int argc, char** argv,
                       std::initializer_list<ExtraFlag> extra = {}) {
    Options o;
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
        return arg == "--" + std::string(f.name);
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
          std::cout << "  --" << f.name << "  " << f.help << "\n";
        }
        std::cout << "simulator knobs (--<key>=<value>, applied in order; "
                     "old flag in brackets):\n";
        harness::print_knob_help(std::cout);
        std::exit(0);
      } else if (arg == "--quick") {
        o.quick = true;
        o.target_ops_per_core = 400;
      } else if (name == "--ops") {
        o.target_ops_per_core = number();
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

/// The paper's evaluated schemes with the DCW baseline in column 0.
inline std::vector<schemes::SchemeKind> paper_columns() {
  return {schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
          schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
          schemes::SchemeKind::kTetris};
}

/// Run the full-system matrix with per-workload instruction budgets.
inline harness::Matrix run_paper_matrix(const Options& o) {
  const auto& workloads = workload::parsec_profiles();
  const auto kinds = paper_columns();
  harness::Matrix m;
  m.workloads = workloads;
  m.kinds = kinds;
  m.cells.assign(workloads.size(),
                 std::vector<harness::RunMetrics>(kinds.size()));
  const std::size_t total = workloads.size() * kinds.size();
  tw::parallel_for(
      total,
      [&](std::size_t i) {
        const std::size_t w = i / kinds.size();
        const std::size_t s = i % kinds.size();
        m.cells[w][s] = harness::run_system(system_config(workloads[w], o),
                                            workloads[w], kinds[s]);
      },
      o.threads);
  return m;
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

/// Dump the raw matrix to the --csv path if given.
inline void maybe_write_csv(const harness::Matrix& m, const Options& o) {
  if (o.csv_path.empty()) return;
  std::ofstream out(o.csv_path);
  harness::write_csv(m, out);
  std::cout << "(raw results written to " << o.csv_path << ")\n";
}

/// Render a grouped bar chart of the normalized values to --svg if given.
inline void maybe_write_svg(const harness::Matrix& m,
                            const std::vector<std::vector<double>>& norm,
                            const char* title, const char* y_label,
                            const Options& o) {
  if (o.svg_path.empty()) return;
  BarChart chart(title, y_label);
  std::vector<std::string> names;
  for (const auto kind : m.kinds)
    names.emplace_back(schemes::scheme_name(kind));
  chart.set_series(std::move(names));
  for (std::size_t w = 0; w < m.workloads.size(); ++w) {
    chart.add_group(m.workloads[w].name, norm[w]);
  }
  chart.set_reference(1.0);
  std::ofstream out(o.svg_path);
  chart.render(out);
  std::cout << "(figure written to " << o.svg_path << ")\n";
}

/// Whether a figure's metric improves downward (latency, runtime) or
/// upward (IPC).
enum class Better { kLower, kHigher };

/// Shared driver for Figures 11-14: run the matrix, print the normalized
/// table for `metric`, and compare scheme geomeans against the paper's
/// reported averages (columns fnw, 2stage, 3stage, tetris).
inline int system_figure(int argc, char** argv, const char* title,
                         const harness::MetricFn& metric,
                         const std::vector<double>& paper_averages,
                         const char* paper_citation,
                         Better better = Better::kLower) {
  const bool higher = better == Better::kHigher;
  const char* unit = higher ? "x" : "";
  const char* relation = higher ? "improvement over" : "normalized to";
  const Options o = Options::parse(argc, argv);
  std::cout << title << "\n"
            << std::string(std::strlen(title), '=') << "\n";
  std::cout << "(" << relation << " the DCW baseline; " << paper_citation
            << ")\n\n";

  const WallTimer timer;
  const harness::Matrix m = run_paper_matrix(o);
  const double wall_ms = timer.elapsed_ms();
  AsciiTable t = harness::normalized_table(m, metric, 0);
  const auto norm = harness::normalized_values(m, metric, 0);
  std::vector<std::string> paper_row = {"paper avg", "1.000"};
  for (const double v : paper_averages) paper_row.push_back(fixed(v, 3));
  t.add_row(std::move(paper_row));
  t.print(std::cout);

  std::cout << "\nmeasured geomean vs paper average:\n";
  const auto& geo = norm.back();
  const auto improves = [higher](double a, double b) {
    return higher ? a > b : a < b;
  };
  bool shape_ok = true;
  for (std::size_t s = 1; s < m.kinds.size(); ++s) {
    const double paper = paper_averages[s - 1];
    std::cout << "  " << pad(schemes::scheme_name(m.kinds[s]), 8) << " "
              << fixed(geo[s], 3) << unit << " (paper " << fixed(paper, 3)
              << unit << ")\n";
    // Shape check: the ranking between adjacent schemes must match
    // wherever the paper ranks them apart.
    if (s > 1 && paper != paper_averages[s - 2] &&
        improves(geo[s], geo[s - 1]) !=
            improves(paper, paper_averages[s - 2])) {
      shape_ok = false;
    }
  }
  std::cout << (shape_ok ? "\nshape: OK — scheme ranking matches the paper\n"
                         : "\nshape: MISMATCH in scheme ranking\n");
  maybe_write_csv(m, o);
  maybe_write_svg(m, norm, title,
                  (std::string(relation) + " DCW baseline").c_str(), o);
  maybe_write_matrix_json(m, o, title, wall_ms);
  maybe_trace_run(o);
  return shape_ok ? 0 : 1;
}

}  // namespace tw::bench
