// twbench: one command measuring the simulator's host speed, its paper
// fidelity and, in a traced run, where the host time goes by layer.
//
//   twbench --workload paper_matrix|write_storm_8ch|read_wear_leveled
//           [--seed N] [--seconds N] [--trace 0|1] [--spans PATH]
//
// It runs the workload's cells pass after pass for --seconds, checks
// every simulated statistic (completion, failed lines, repeat agreement,
// the paper's scheme ranking, the library's own run_system on one cell,
// and with --trace 1 that probed runs equal unprobed ones), prints each
// metric with its unit, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 all ops passed, 1 some op failed, 2 bad command line.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cell.hpp"
#include "workloads.hpp"

namespace {

using twbench::CellRun;
using twbench::Workload;
using tw::u64;

struct Options {
  std::string workload;
  u64 seed = 42;
  u64 seconds = 10;
  u64 trace = 0;
  std::string spans_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "twbench: " << msg
            << "\nusage: twbench --workload NAME [--seed N] [--seconds N] "
               "[--trace 0|1] [--spans PATH]\n";
  std::exit(2);
}

u64 parse_number(const std::string& flag, const std::string& text, u64 lo,
                 u64 hi) {
  u64 v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    usage_error(flag + " needs a whole number in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
      inline_value = true;
    }
    if (flag == "--help" || flag == "-h") {
      std::cout << "usage: twbench --workload NAME [--seed N] [--seconds N] "
                   "[--trace 0|1] [--spans PATH]\nworkloads:";
      for (const auto name : twbench::kWorkloadNames) std::cout << ' ' << name;
      std::cout << '\n';
      std::exit(0);
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans") {
      usage_error("unknown flag '" + std::string(argv[i]) + "'");
    }
    if (!inline_value) {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      if (std::find(std::begin(twbench::kWorkloadNames),
                    std::end(twbench::kWorkloadNames),
                    value) == std::end(twbench::kWorkloadNames)) {
        usage_error("unknown workload '" + value + "'");
      }
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_number(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      o.seconds = parse_number(flag, value, 1, 3600);
    } else if (flag == "--trace") {
      o.trace = parse_number(flag, value, 0, 1);
    } else {
      if (value.empty()) usage_error("--spans needs a path");
      o.spans_path = value;
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One pass: every cell of the workload once, in order.
struct Pass {
  std::vector<CellRun> runs;
  double setup_s = 0.0;
  double timed_s = 0.0;
  u64 requests = 0;  ///< simulated reads + writes
};

/// Run rounds for about `budget_s` host seconds (at least `min_rounds`),
/// starting a new round only while its expected length still fits. A
/// round runs one pass per entry of `modes` (null = bare assembly), so
/// traced and untraced passes interleave and see the same host phases.
/// Raw spans are dropped once reduced, except the last pass's when
/// `keep_spans` is set. Returns the passes per mode.
std::vector<std::vector<Pass>> run_rounds(
    const Workload& w, const std::vector<twbench::SpanRecorder*>& modes,
    double budget_s, std::size_t min_rounds, bool keep_spans) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<Pass>> passes(modes.size());
  for (std::size_t round = 0;; ++round) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (round >= min_rounds &&
        elapsed * static_cast<double>(round + 1) / static_cast<double>(round) >
            budget_s) {
      break;
    }
    for (std::size_t m = 0; m < modes.size(); ++m) {
      if (!passes[m].empty()) {
        for (CellRun& r : passes[m].back().runs) r.layers.raw.clear();
      }
      Pass p;
      for (const twbench::Cell& cell : w.cells) {
        CellRun r = twbench::run_cell(cell, modes[m]);
        if (!keep_spans) r.layers.raw.clear();
        p.setup_s += r.setup_s;
        p.timed_s += r.timed_s;
        p.requests += r.m.reads + r.m.writes;
        p.runs.push_back(std::move(r));
      }
      passes[m].push_back(std::move(p));
    }
  }
  return passes;
}

/// Host seconds of one pass built from each cell's fastest run. Other
/// tenants slow a shared host by up to a third for seconds at a time;
/// every cell needs only one undisturbed run for this sum to hold still.
double best_pass_s(const std::vector<Pass>& passes) {
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front().runs.size(); ++i) {
    double best = passes.front().runs[i].timed_s;
    for (const Pass& p : passes) best = std::min(best, p.runs[i].timed_s);
    total += best;
  }
  return total;
}

/// Operation accounting: one op is one simulated cell.
struct Tally {
  u64 total = 0;
  u64 failed = 0;

  void op(bool ok, const std::string& what) {
    ++total;
    if (!ok) {
      ++failed;
      std::cerr << "twbench: FAILED " << what << '\n';
    }
  }
};

std::string joined(const std::vector<std::string>& v) {
  std::string s;
  for (const auto& x : v) s += (s.empty() ? "" : ",") + x;
  return s;
}

/// Check every pass against the first pass of `base` (itself included):
/// completion, failed lines, identical statistics and, on the paper
/// matrix, the scheme ranking.
void check_passes(const Workload& w, const std::vector<Pass>& passes,
                  const Pass& base, const char* kind, Tally& tally) {
  for (std::size_t p = 0; p < passes.size(); ++p) {
    twbench::Fidelity fid;
    if (w.paper_matrix) {
      std::vector<tw::harness::RunMetrics> ms;
      for (const CellRun& r : passes[p].runs) ms.push_back(r.m);
      fid = twbench::paper_fidelity(twbench::as_matrix(w.cells, ms));
    }
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const CellRun& r = passes[p].runs[i];
      const auto diffs = twbench::metric_diffs(base.runs[i].m, r.m);
      const bool ok = r.m.completed && r.m.failed_lines == 0 &&
                      diffs.empty() && r.layers.spans.negative == 0 &&
                      !fid.misranks(i);
      tally.op(ok, std::string(kind) + " pass " + std::to_string(p) + " " +
                       twbench::cell_label(w.cells[i]) +
                       (diffs.empty() ? "" : " differs in " + joined(diffs)));
    }
  }
}

/// Geomean of a RunMetrics field over the workload's Tetris cells.
double tetris_geomean(const Workload& w, const Pass& p,
                      double tw::harness::RunMetrics::*field) {
  double s = 0.0;
  for (const std::size_t i : w.tetris) s += std::log(p.runs[i].m.*field);
  return std::exp(s / static_cast<double>(w.tetris.size()));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_spans(const std::string& path, const Workload& w, const Pass& p) {
  std::ofstream out(path);
  out << "cell,thread,site,request,start_ns,end_ns,parent\n";
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    const auto& threads = p.runs[i].layers.raw;
    for (std::size_t t = 0; t < threads.size(); ++t) {
      for (const twbench::Span& s : threads[t].spans) {
        out << twbench::cell_label(w.cells[i]) << ',' << t << ','
            << twbench::site_name(s.site) << ',' << s.request << ','
            << s.start_ns << ',' << s.end_ns << ','
            << (s.parent == twbench::kNoParent ? -1
                                               : static_cast<long>(s.parent))
            << '\n';
      }
    }
  }
  if (!out) {
    std::cerr << "twbench: could not write spans to " << path << '\n';
    std::exit(1);
  }
}

double pass_sum(const Pass& p, double (*f)(const CellRun&)) {
  double s = 0.0;
  for (const CellRun& r : p.runs) s += f(r);
  return s;
}

/// Per-layer metrics from the traced passes (medians over passes; counts
/// are exact and taken from the first).
std::vector<Metric> layer_metrics(const std::vector<Pass>& traced,
                                  const std::vector<Pass>& untraced) {
  using twbench::Layer;
  using twbench::Site;
  const auto self_ms = [](const Pass& p, Layer l) {
    double ns = 0.0;
    for (const CellRun& r : p.runs) {
      ns += static_cast<double>(
          r.layers.spans.self_ns[static_cast<std::size_t>(l)]);
    }
    return ns / 1e6;
  };
  const auto calls = [](const Pass& p, std::initializer_list<Site> sites) {
    double n = 0.0;
    for (const CellRun& r : p.runs) {
      for (const Site s : sites) {
        n += static_cast<double>(
            r.layers.spans.calls[static_cast<std::size_t>(s)]);
      }
    }
    return n;
  };
  const auto engine_ms = [](const Pass& p) {
    double ms = 0.0;
    for (const CellRun& r : p.runs) {
      ms += r.timed_s * 1e3 -
            static_cast<double>(r.layers.spans.main_top_ns) / 1e6;
    }
    return ms;
  };
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const Pass& p : traced) v.push_back(f(p));
    return median(v);
  };

  const Pass& first = traced.front();
  const double requests = static_cast<double>(first.requests);
  const double workload_calls =
      calls(first, {Site::kNext, Site::kMakeWriteData});
  const double enqueue_calls = calls(first, {Site::kEnqueue});
  const double lines = pass_sum(first, [](const CellRun& r) {
    return static_cast<double>(r.layers.scheme_lines);
  });
  const double accepted = pass_sum(first, [](const CellRun& r) {
    return static_cast<double>(r.layers.enqueue_accepted);
  });
  const double events = pass_sum(first, [](const CellRun& r) {
    return static_cast<double>(r.m.sim_events);
  });
  double write_q_peak = 0.0;
  for (const CellRun& r : first.runs) {
    write_q_peak =
        std::max(write_q_peak, static_cast<double>(r.m.write_q_peak));
  }

  const double scheme_ms = med([&](const Pass& p) {
    return self_ms(p, Layer::kScheme);
  });
  const double engine = med(engine_ms);
  return {
      {"workload.self_ms", med([&](const Pass& p) {
         return self_ms(p, Layer::kWorkload);
       }), "ms"},
      {"workload.calls", workload_calls, "count"},
      {"workload.calls_per_req", workload_calls / requests, "calls/req"},
      {"cpu.self_ms",
       med([&](const Pass& p) { return self_ms(p, Layer::kCpu); }), "ms"},
      {"cpu.calls",
       calls(first, {Site::kReadDone, Site::kWriteDone, Site::kSpace}),
       "count"},
      {"mem.enqueue_self_ms",
       med([&](const Pass& p) { return self_ms(p, Layer::kMem); }), "ms"},
      {"mem.enqueue_calls", enqueue_calls, "count"},
      {"mem.accept_ratio", accepted / enqueue_calls, "ratio"},
      {"scheme.self_ms", scheme_ms, "ms"},
      {"scheme.lines", lines, "count"},
      {"scheme.ns_per_line", scheme_ms * 1e6 / lines, "ns"},
      {"engine.self_ms", engine, "ms"},
      {"engine.ns_per_event", engine * 1e6 / events, "ns"},
      {"front.share", med([](const Pass& p) {
         double front_ns = 0.0;
         for (const CellRun& r : p.runs) {
           front_ns += static_cast<double>(r.layers.spans.front_top_ns);
         }
         return front_ns / (p.timed_s * 1e9);
       }), "ratio"},
      {"sim.events", events, "count"},
      {"mem.dispatch_rounds", pass_sum(first, [](const CellRun& r) {
         return static_cast<double>(r.m.dispatch_rounds);
       }), "count"},
      {"mem.reads_forwarded", pass_sum(first, [](const CellRun& r) {
         return static_cast<double>(r.m.reads_forwarded);
       }), "count"},
      {"mem.writes_coalesced", pass_sum(first, [](const CellRun& r) {
         return static_cast<double>(r.m.writes_coalesced);
       }), "count"},
      {"mem.write_q_peak", write_q_peak, "count"},
      {"mem.writes_batched", pass_sum(first, [](const CellRun& r) {
         return static_cast<double>(r.m.writes_batched);
       }), "count"},
      {"mem.write_units", pass_sum(first, [](const CellRun& r) {
         return r.write_units_total;
       }), "count"},
      {"mem.gap_moves", pass_sum(first, [](const CellRun& r) {
         return static_cast<double>(r.m.gap_moves);
       }), "count"},
      {"mem.write_pauses", pass_sum(first, [](const CellRun& r) {
         return static_cast<double>(r.m.write_pauses);
       }), "count"},
      {"trace_overhead_pct",
       (best_pass_s(traced) / best_pass_s(untraced) - 1.0) * 100.0, "%"},
  };
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload w = *twbench::make_workload(o.workload, o.seed);
  const double budget = static_cast<double>(o.seconds);
  const bool traced = o.trace == 1;
  Tally tally;

  // Simulated statistics come from the bare assembly. A traced run
  // interleaves bare and probed passes, so the overhead has a base that
  // saw the same host.
  twbench::SpanRecorder rec;
  std::vector<twbench::SpanRecorder*> modes = {nullptr};
  if (traced) modes.push_back(&rec);
  const std::vector<std::vector<Pass>> rounds =
      run_rounds(w, modes, budget, 3, !o.spans_path.empty());
  const std::vector<Pass>& passes = rounds[0];
  const double rss_mb = peak_rss_mb();
  const Pass& base = passes.front();
  check_passes(w, passes, base, "untraced", tally);

  // The library's own runner must agree with this assembly.
  const auto lib = tw::harness::run_system(w.cells[0].cfg, w.cells[0].profile,
                                           w.cells[0].kind);
  const auto lib_diffs = twbench::metric_diffs(lib, base.runs[0].m);
  tally.op(lib_diffs.empty(),
           "run_system " + twbench::cell_label(w.cells[0]) + " differs in " +
               joined(lib_diffs));

  std::vector<Metric> metrics;
  if (!traced) {
    // The model's error against the paper is a property of the seed, not
    // of the workload: other workloads run the paper matrix once, untimed.
    const std::vector<twbench::Cell> matrix =
        w.paper_matrix ? w.cells : twbench::paper_matrix_cells(o.seed);
    std::vector<tw::harness::RunMetrics> matrix_runs;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      matrix_runs.push_back(w.paper_matrix
                                ? base.runs[i].m
                                : twbench::run_cell(matrix[i], nullptr).m);
    }
    const twbench::Fidelity fid =
        twbench::paper_fidelity(twbench::as_matrix(matrix, matrix_runs));
    if (!w.paper_matrix) {
      for (std::size_t i = 0; i < matrix.size(); ++i) {
        tally.op(matrix_runs[i].completed &&
                     matrix_runs[i].failed_lines == 0 && !fid.misranks(i),
                 "paper matrix " + twbench::cell_label(matrix[i]));
      }
    }
    std::vector<double> setup;
    for (const Pass& p : passes) setup.push_back(p.setup_s);
    using tw::harness::RunMetrics;
    metrics = {
        {"sim_req_per_s",
         static_cast<double>(base.requests) / best_pass_s(passes), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_ipc", tetris_geomean(w, base, &RunMetrics::ipc), "IPC"},
        {"sim_read_latency_ns",
         tetris_geomean(w, base, &RunMetrics::read_latency_ns), "ns"},
        {"sim_write_latency_ns",
         tetris_geomean(w, base, &RunMetrics::write_latency_ns), "ns"},
        {"paper_err_pct", fid.err_pct, "%"},
    };
  } else {
    check_passes(w, rounds[1], base, "traced", tally);
    metrics = layer_metrics(rounds[1], passes);
    if (!o.spans_path.empty()) write_spans(o.spans_path, w, rounds[1].back());
  }
  std::cout << "passes: " << passes.size() << " per mode (requests/pass "
            << base.requests << ")\n";

  std::cout << "workload " << w.name << ", seed " << o.seed << '\n';
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-24s %16llu ops\n  %-24s %16llu ops\n", "ops_total",
              static_cast<unsigned long long>(tally.total), "ops_failed",
              static_cast<unsigned long long>(tally.failed));

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.total);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return tally.failed == 0 ? 0 : 1;
}
