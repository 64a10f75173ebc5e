#pragma once
// tw_sweep: one parallel sweep over knob-table keys; every ablation study
// is a command line of it (bench/CMakeLists.txt, EXPERIMENTS.md). It runs
// the outer product of the --vary axes (the last one varies fastest)
// through parallel_for. An axis key is a knob-table key, applied through
// harness::apply_settings, or one of `scheme` ("paper" = the five figure
// columns), `workload` ("all" = PARSEC), `workload.burstiness` and
// `workload.content`; cells not varied over run ferret under Tetris.
// --plan swaps the full-system run for the offline plan_write stream. One
// --metric puts the last axis's values in the columns, several put the
// metrics there. A --gate is a ratio of two cells written to --json: the
// BENCH_{palp,dram,encode,channels}.json baselines.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <map>
#include <optional>
#include <regex>
#include <span>
#include <sstream>

#include "bench_util.hpp"
#include "tw/common/csv.hpp"
#include "tw/common/parallel.hpp"
#include "tw/harness/config_file.hpp"

namespace tw::bench {

struct Axis {
  std::string key;
  std::vector<std::string> values;
};

/// One point of the outer product, ready to run.
struct Cell {
  std::vector<std::size_t> at;  ///< value index per axis
  harness::SystemConfig cfg;
  workload::WorkloadProfile profile;
  schemes::SchemeKind kind = schemes::SchemeKind::kTetris;
};

/// --gate=NAME=[1-]METRIC[SEL][/[SEL]][>X|>=X][~BAND]: the metric of the
/// cell SEL (KEY=VALUE,...) names, or its ratio to the cell the second
/// selector's pairs pick once put over the first's ("1-" takes one minus
/// the ratio; a zero divisor gives 0). BAND is a --json tolerance, in %.
struct Gate {
  std::string name;
  const harness::MetricDef* metric = nullptr;
  bool reduction = false;
  std::size_t num = 0;             ///< cell index
  std::optional<std::size_t> den;  ///< cell index of the divisor
  std::string op;                  ///< "", ">" or ">="
  double bound = 0.0;
  std::optional<double> band;
};

struct Sweep {
  Options opts;
  std::vector<Axis> axes;
  std::vector<const harness::MetricDef*> metrics;
  std::string normalize;  ///< baseline value of the last axis ("" = none)
  std::string mean_axis;  ///< row axis averaged into extra rows ("" = none)
  bool plan = false;
  std::vector<Gate> gates;
  std::vector<Cell> cells;

  /// One --metric: the last axis gives the columns, the others the rows.
  bool axis_columns() const { return metrics.size() == 1; }
  std::size_t row_axes() const { return axes.size() - axis_columns(); }
  /// The position of axis `key`, or axes.size().
  std::size_t axis(std::string_view key) const {
    std::size_t a = 0;
    while (a < axes.size() && axes[a].key != key) ++a;
    return a;
  }
};

namespace sweep_detail {

inline const std::vector<ExtraFlag> kFlags = {
    {"vary", "KEY=V1,V2,... an axis: knob key, scheme, workload[.*]", true},
    {"metric", "NAME[,NAME...] metrics to print (harness::kMetrics)", true},
    {"normalize", "AXIS=VALUE divide by this column (one --metric)", true},
    {"mean", "AXIS add rows averaged over this row axis", true},
    {"gate", "NAME=[1-]METRIC[SEL][/[SEL]][>X|>=X][~BAND] (--json)", true},
    {"plan", "offline plan_write stream of --ops writes per cell"},
};

[[noreturn]] inline void reject(const std::string& what) {
  throw std::invalid_argument(what);
}

/// The index of `v` in `names`, or a throw naming `origin`.
inline std::size_t lookup(const std::vector<std::string>& names,
                          std::string_view v, const std::string& origin) {
  const auto it = std::find(names.begin(), names.end(), v);
  if (it == names.end()) {
    reject(origin + ": expected " + join(names, "|") + ", got '" +
           std::string(v) + "'");
  }
  return static_cast<std::size_t>(it - names.begin());
}

inline double real(std::string_view s, const std::string& origin) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || ptr != s.data() + s.size() ||
      !std::isfinite(v)) {
    reject(origin + ": expected a number, got '" + std::string(s) + "'");
  }
  return v;
}

template <class Range, class Name>
std::vector<std::string> names(const Range& r, Name name) {
  std::vector<std::string> out;
  for (const auto& x : r) out.emplace_back(name(x));
  return out;
}

inline std::vector<std::string> workload_names() {
  return names(workload::parsec_profiles(),
               [](const workload::WorkloadProfile& p) { return p.name; });
}

inline Axis parse_axis(const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    reject("--vary=" + spec + ": expected --vary=KEY=V1,V2,...");
  }
  Axis a{spec.substr(0, eq), {}};
  for (const std::string& v : split(spec.substr(eq + 1), ',')) {
    if (v.empty()) reject("--vary=" + spec + ": empty value");
    std::vector<std::string> all = {v};
    if (a.key == "scheme" && v == "paper") {
      all = names(paper_columns(), schemes::scheme_name);
    } else if (a.key == "workload" && v == "all") {
      all = workload_names();
    }
    a.values.insert(a.values.end(), all.begin(), all.end());
  }
  return a;
}

/// Builds cell `i` of the outer product; throws naming a bad value with
/// the message its --KEY=VALUE flag would get.
inline Cell make_cell(const Sweep& s, std::size_t i) {
  Cell c;
  c.at.assign(s.axes.size(), 0);
  for (std::size_t a = s.axes.size(); a-- > 0;) {
    c.at[a] = i % s.axes[a].values.size();
    i /= s.axes[a].values.size();
  }
  // The workload axis picks the profile that the workload.* axes edit.
  c.profile = workload::profile_by_name("ferret");
  if (const std::size_t w = s.axis("workload"); w < s.axes.size()) {
    const std::string& v = s.axes[w].values[c.at[w]];
    c.profile = workload::parsec_profiles()[lookup(workload_names(), v,
                                                   "--workload=" + v)];
  }
  std::vector<harness::Setting> knobs;
  for (std::size_t a = 0; a < s.axes.size(); ++a) {
    const std::string& key = s.axes[a].key;
    const std::string& v = s.axes[a].values[c.at[a]];
    const std::string origin = "--" + key + "=" + v;
    if (key == "scheme") {
      const auto kinds = core::all_scheme_kinds();
      c.kind = kinds[lookup(names(kinds, schemes::scheme_name), v, origin)];
    } else if (key == "workload.burstiness") {
      c.profile.burstiness = real(v, origin);
      if (c.profile.burstiness < 0.0 || c.profile.burstiness > 1.0) {
        reject(origin + ": burstiness must lie in [0, 1]");
      }
    } else if (key == "workload.content") {
      using workload::ContentClass;
      const ContentClass all[] = {
          ContentClass::kMutate, ContentClass::kCompressible,
          ContentClass::kZipfByte, ContentClass::kAdversarial};
      c.profile.content =
          all[lookup(names(all, workload::content_class_name), v, origin)];
    } else if (harness::find_knob(key) != nullptr) {
      knobs.push_back({key, v, origin});
    } else if (key != "workload") {
      reject("--vary=" + key + "=...: unknown key '" + key + "'");
    }
  }
  c.cfg = system_config(c.profile, s.opts);
  harness::apply_settings(c.cfg, knobs);
  return c;
}

/// The cell index `pairs` (KEY=VALUE, a later pair for a key winning)
/// selects; every axis with more than one value must be named.
inline std::size_t select(const Sweep& s,
                          const std::vector<std::string>& pairs,
                          const std::string& origin) {
  std::size_t cell = 0, named = 0;
  for (const Axis& a : s.axes) {
    std::optional<std::size_t> at;
    for (const std::string& p : pairs) {
      if (!starts_with(p, a.key + "=")) continue;
      at = lookup(a.values, std::string_view(p).substr(a.key.size() + 1),
                  origin);
      ++named;
    }
    if (!at && a.values.size() > 1) {
      reject(origin + ": name a value of axis " + a.key);
    }
    cell = cell * a.values.size() + at.value_or(0);
  }
  if (named != pairs.size()) reject(origin + ": every KEY must be an axis");
  return cell;
}

inline Gate parse_gate(const Sweep& s, const std::string& spec) {
  static const std::regex kGate(
      R"(([\w.]+)=(1-)?(\w+)\[([^\]]*)\](?:/\[([^\]]*)\])?)"
      R"((?:(>=?)([^~]+))?(?:~(.+))?)");
  const std::string origin = "--gate=" + spec;
  std::smatch m;
  if (!std::regex_match(spec, m, kGate)) {
    reject(origin + ": expected NAME=[1-]METRIC[SEL][/[SEL]][>X|>=X][~BAND]");
  }
  Gate g;
  g.name = m[1];
  g.metric = harness::find_metric(m[3].str());
  if (g.metric == nullptr) {
    reject(origin + ": unknown metric '" + m[3].str() + "'");
  }
  g.reduction = m[2].matched;
  std::vector<std::string> pairs = split(m[4].str(), ',');
  g.num = select(s, pairs, origin);
  if (m[5].matched) {
    for (std::string& p : split(m[5].str(), ',')) pairs.push_back(p);
    g.den = select(s, pairs, origin);
  }
  if (m[6].matched) {
    g.op = m[6];
    g.bound = real(m[7].str(), origin);
  }
  if (m[8].matched) g.band = real(m[8].str(), origin);
  return g;
}

inline std::string json_string(std::string_view v) {
  std::ostringstream out;
  out << std::quoted(v);  // escapes '"' and '\\' as JSON does
  return out.str();
}

}  // namespace sweep_detail

/// Parses a tw_sweep command line and builds every cell. A bad flag,
/// axis value or gate exits 2 naming it, as bench flags do.
inline Sweep parse_sweep(int argc, char** argv) {
  using namespace sweep_detail;
  Sweep s;
  s.opts = Options::parse(argc, argv, kFlags);
  s.plan = s.opts.has("plan");
  try {
    for (const std::string& v : s.opts.values("vary")) {
      Axis a = parse_axis(v);
      if (s.axis(a.key) < s.axes.size()) {
        reject("--vary=" + v + ": axis " + a.key + " given twice");
      }
      s.axes.push_back(std::move(a));
    }
    if (s.axes.empty()) reject("give at least one --vary=KEY=V1,V2,...");
    for (const std::string& list : s.opts.values("metric")) {
      for (const std::string& name : split(list, ',')) {
        s.metrics.push_back(harness::find_metric(name));
        if (s.metrics.back() == nullptr) {
          reject("--metric=" + list + ": unknown metric '" + name + "'");
        }
      }
    }
    if (s.metrics.empty()) reject("give at least one --metric=NAME");
    const Axis& last = s.axes.back();
    for (const std::string& v : s.opts.values("normalize")) {
      if (!s.axis_columns() || !starts_with(v, last.key + "=")) {
        reject("--normalize=" + v +
               ": needs one --metric and the last axis, " + last.key);
      }
      s.normalize = v.substr(last.key.size() + 1);
      lookup(last.values, s.normalize, "--normalize=" + v);
    }
    for (const std::string& v : s.opts.values("mean")) {
      if (s.axis(v) >= s.row_axes()) {
        reject("--mean=" + v + ": not a row axis");
      }
      s.mean_axis = v;
    }
    std::size_t n = 1;
    for (const Axis& a : s.axes) n *= a.values.size();
    for (std::size_t i = 0; i < n; ++i) s.cells.push_back(make_cell(s, i));
    for (const std::string& v : s.opts.values("gate")) {
      s.gates.push_back(parse_gate(s, v));
    }
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << " (see --help)\n";
    std::exit(2);
  }
  return s;
}

/// What decides a cell's run: its scheme, its profile and its config as
/// dumped, which leaves out the fields of a feature that is off (the dram
/// study's tier-off cells differ only in dram.capacity_mb/policy).
inline std::string run_key(const Cell& c) {
  std::ostringstream key;
  key << schemes::scheme_name(c.kind) << ' ' << c.profile.name << ' '
      << std::setprecision(17) << c.profile.burstiness << ' '
      << workload::content_class_name(c.profile.content) << '\n';
  harness::write_system_config(c.cfg, key);
  return key.str();
}

/// One cell's metrics: a full-system run, or with --plan the offline
/// stream of --ops writes.
inline harness::RunMetrics run_cell(const Sweep& s, const Cell& c) {
  return s.plan ? plan_stream(c.cfg, c.profile, c.kind,
                              s.opts.target_ops_per_core)
                : harness::run_system(c.cfg, c.profile, c.kind);
}

inline double gate_value(const Gate& g,
                         std::span<const harness::RunMetrics> runs) {
  const double a = g.metric->get(runs[g.num]);
  if (!g.den) return a;
  const double b = g.metric->get(runs[*g.den]);
  if (b == 0.0) return 0.0;
  return g.reduction ? 1.0 - a / b : a / b;
}

inline bool gate_passes(const Gate& g, double v) {
  return g.op.empty() || (g.op == ">" ? v > g.bound : v >= g.bound);
}

/// One row per combination of the row axes, then the --mean rows.
inline AsciiTable sweep_table(const Sweep& s,
                              std::span<const harness::RunMetrics> runs) {
  const Axis& last = s.axes.back();
  const std::size_t width = s.axis_columns() ? last.values.size() : 1;
  struct Row {
    std::vector<std::string> labels;
    std::vector<double> vals;
  };
  std::vector<Row> rows, means;
  for (std::size_t first = 0; first < runs.size(); first += width) {
    Row& row = rows.emplace_back();
    for (std::size_t a = 0; a < s.row_axes(); ++a) {
      row.labels.push_back(s.axes[a].values[s.cells[first].at[a]]);
    }
    for (std::size_t j = first; j < first + width; ++j) {
      for (const auto* m : s.metrics) row.vals.push_back(m->get(runs[j]));
    }
  }
  // Mean rows: one per combination of the other row axes.
  if (const std::size_t a = s.axis(s.mean_axis); a < s.axes.size()) {
    const double n = static_cast<double>(s.axes[a].values.size());
    for (const Row& row : rows) {
      std::vector<std::string> labels = row.labels;
      labels[a] = "mean";
      auto it = std::find_if(means.begin(), means.end(),
                             [&](const Row& m) { return m.labels == labels; });
      if (it == means.end()) {
        it = means.insert(means.end(),
                          Row{labels, std::vector<double>(row.vals.size())});
      }
      for (std::size_t j = 0; j < row.vals.size(); ++j) {
        it->vals[j] += row.vals[j] / n;
      }
    }
  }

  std::vector<std::string> header;
  for (std::size_t a = 0; a < s.row_axes(); ++a) {
    header.push_back(s.axes[a].key);
  }
  for (std::size_t j = 0; j < rows[0].vals.size(); ++j) {
    header.emplace_back(s.axis_columns() ? last.values[j]
                                         : s.metrics[j]->name);
  }
  AsciiTable t;
  t.set_header(std::move(header));
  const std::size_t base = sweep_detail::lookup(
      last.values, s.normalize.empty() ? last.values[0] : s.normalize, "");
  const auto add = [&](const Row& row) {
    std::vector<std::string> out = row.labels;
    const double b = row.vals[base];
    for (std::size_t j = 0; j < row.vals.size(); ++j) {
      out.push_back(s.normalize.empty() || j == base
                        ? fixed(row.vals[j],
                                s.metrics[j % s.metrics.size()]->decimals)
                        : fixed(b == 0.0 ? 0.0 : row.vals[j] / b, 3));
    }
    t.add_row(std::move(out));
  };
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0 && s.row_axes() > 1 &&
        rows[r].labels[0] != rows[r - 1].labels[0]) {
      t.add_separator();
    }
    add(rows[r]);
  }
  if (!means.empty()) t.add_separator();
  for (const Row& m : means) add(m);
  return t;
}

/// tw_sweep's main: run every cell, print the table and gates, write
/// --csv/--json. Exit 1 on an incomplete run or a failed gate.
inline int sweep_main(int argc, char** argv) {
  using sweep_detail::json_string;
  const Sweep s = parse_sweep(argc, argv);
  // Cells with the same run key share one run.
  std::vector<std::size_t> same(s.cells.size()), distinct;
  std::map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const auto [it, fresh] = first.emplace(run_key(s.cells[i]), i);
    same[i] = it->second;
    if (fresh) distinct.push_back(i);
  }
  const WallTimer timer;
  std::vector<harness::RunMetrics> runs(s.cells.size());
  tw::parallel_for(
      distinct.size(),
      [&](std::size_t j) {
        runs[distinct[j]] = run_cell(s, s.cells[distinct[j]]);
      },
      s.opts.threads);
  const double wall_ms = timer.elapsed_ms();
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i] = runs[same[i]];

  // Cell i's axis values, then its metrics at their decimals (--json: at
  // full precision).
  std::vector<std::string> columns;
  for (const Axis& a : s.axes) columns.push_back(a.key);
  for (const auto* m : s.metrics) columns.emplace_back(m->name);
  const auto row = [&](std::size_t i, bool full) {
    std::vector<std::string> out;
    for (std::size_t a = 0; a < s.axes.size(); ++a) {
      out.push_back(s.axes[a].values[s.cells[i].at[a]]);
    }
    for (const auto* m : s.metrics) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", m->get(runs[i]));
      out.push_back(full ? buf : fixed(m->get(runs[i]), m->decimals));
    }
    return out;
  };

  const auto label = [&](std::size_t i) {
    const std::vector<std::string> values = row(i, false);
    std::string out;
    for (std::size_t a = 0; a < s.axes.size(); ++a) {
      out += " " + columns[a] + "=" + values[a];
    }
    return out;
  };
  if (report_incomplete(runs, std::cerr, label) > 0) return 1;

  std::cout << "tw_sweep: " << runs.size() << " cells ("
            << distinct.size() << " distinct runs), "
            << (s.plan ? "offline plan_write stream of "
                       : "full-system runs of ")
            << s.opts.target_ops_per_core
            << (s.plan ? " writes" : " requests per core") << ", seed "
            << s.opts.seed << "\n";
  for (const auto& [key, value] :
       {std::pair{"workload", "ferret"}, std::pair{"scheme", "tetris"}}) {
    if (s.axis(key) == s.axes.size()) {
      std::cout << "(" << key << "=" << value << ")\n";
    }
  }
  if (!s.normalize.empty()) {
    std::cout << "(" << s.metrics[0]->name << " divided by the "
              << s.axes.back().key << "=" << s.normalize
              << " column, which shows the raw value)\n";
  }
  std::cout << "\n";
  sweep_table(s, runs).print(std::cout);

  std::string config = "ops=" + std::to_string(s.opts.target_ops_per_core) +
                       " seed=" + std::to_string(s.opts.seed);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (starts_with(arg, "--json=") || starts_with(arg, "--csv=")) continue;
    config += " " + std::string(arg);
  }
  std::vector<std::string> json = {"\"bench\": \"tw_sweep\"",
                                   "\"config\": " + json_string(config),
                                   "\"wall_ms\": " + fixed(wall_ms, 2)};
  std::vector<std::string> tolerances;
  if (!s.plan) {
    double events = 0.0;
    for (const std::size_t i : distinct) {
      events += static_cast<double>(runs[i].sim_events);
    }
    const double per_sec = events * 1000.0 / std::max(wall_ms, 1e-6);
    json.push_back("\"events_per_sec\": " + fixed(per_sec, 1));
    // Wall-clock throughput keeps the shared-runner noise allowance.
    tolerances.emplace_back("\"events_per_sec\": 15");
  }
  bool ok = true;
  if (!s.gates.empty()) std::cout << "\n";
  for (const Gate& g : s.gates) {
    const double v = gate_value(g, runs);
    const bool pass = gate_passes(g, v);
    ok = ok && pass;
    std::cout << "gate " << g.name << " = " << fixed(v, 3);
    if (!g.op.empty()) {
      std::cout << " (required " << g.op << " " << g.bound << ": "
                << (pass ? "ok" : "FAIL") << ")";
    }
    std::cout << "\n";
    json.push_back(json_string(g.name) + ": " + fixed(v, 3));
    if (g.band) {
      std::ostringstream band;
      band << *g.band;
      tolerances.push_back(json_string(g.name) + ": " + band.str());
    }
  }

  if (!s.opts.csv_path.empty()) {
    std::ofstream out(s.opts.csv_path);
    CsvWriter csv(out);
    csv.header(columns);
    for (std::size_t i = 0; i < runs.size(); ++i) csv.row(row(i, false));
    std::cout << "(raw results written to " << s.opts.csv_path << ")\n";
  }
  if (!s.opts.json_path.empty()) {
    if (!tolerances.empty()) {
      json.push_back("\"tolerances\": {\n    " +
                     join(tolerances, ",\n    ") + "\n  }");
    }
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::vector<std::string> kv = row(i, true);
      for (std::size_t col = 0; col < columns.size(); ++col) {
        kv[col] = json_string(columns[col]) + ": " +
                  (col < s.axes.size() ? json_string(kv[col]) : kv[col]);
      }
      cells.push_back("{" + join(kv, ", ") + "}");
    }
    json.push_back("\"cells\": [\n    " + join(cells, ",\n    ") + "\n  ]");
    std::ofstream(s.opts.json_path)
        << "{\n  " << join(json, ",\n  ") << "\n}\n";
    std::cout << "(benchmark baseline written to " << s.opts.json_path
              << ")\n";
  }
  return ok ? 0 : 1;
}

}  // namespace tw::bench
