// full_system_sim: the complete pipeline — 4 out-of-order-style cores,
// optional 3-level cache hierarchy, the memory system run_system builds
// (FRFCFS controllers on every channel, optional DRAM tier, fault model
// and content encoder), PCM banks — with a detailed end-of-run report
// (latencies, IPC, bank utilization, energy, wear, queue behaviour).
//
//   $ ./full_system_sim [--workload=NAME] [--scheme=NAME] [--cache]
//                       [--config=FILE] [--dump-config] [--<key>=<value>]
//
// With --cache the workload profile is interpreted as CPU-level access
// rates and filtered through per-core L1/L2/L3 stacks (Table II); without
// it the profile's RPKI/WPKI are memory-level (Table III semantics).
// --config loads an experiment configuration file (config_file.hpp); any
// knob can then be overridden as --<key>=<value> or by its old short flag
// (--instr=N, --cores=N, --seed=N); --dump-config prints the effective
// configuration in config-file format and exits; --help lists the knobs.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "tw/common/strings.hpp"
#include "tw/common/table.hpp"
#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/harness/knobs.hpp"
#include "tw/workload/cache_filtered.hpp"

using namespace tw;

int main(int argc, char** argv) {
  std::string workload_name = "ferret";
  std::string scheme_name = "tetris";
  bool use_cache = false;
  bool dump_config = false;
  harness::SystemConfig sys;
  sys.instructions_per_core = 300'000;
  std::vector<harness::Setting> overrides;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (starts_with(arg, "--config=")) {
        sys = harness::load_system_config(arg.substr(9));
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "flags: --workload=NAME --scheme=NAME --cache "
                     "--config=FILE --dump-config, then knobs:\n";
        harness::print_knob_help(std::cout);
        return 0;
      } else if (starts_with(arg, "--workload=")) {
        workload_name = arg.substr(11);
      } else if (starts_with(arg, "--scheme=")) {
        scheme_name = arg.substr(9);
      } else if (arg == "--cache") {
        use_cache = true;
      } else if (arg == "--dump-config") {
        dump_config = true;
      } else if (!harness::expand_flag(arg, overrides)) {
        throw std::runtime_error(arg + ": unknown flag (see --help)");
      }
    }
    // Knob flags apply after --config wherever it appears.
    harness::apply_settings(sys, overrides);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (dump_config) {
    harness::write_system_config(sys, std::cout);
    return 0;
  }

  const auto kinds = core::all_scheme_kinds();
  const auto kind = std::find_if(kinds.begin(), kinds.end(), [&](auto k) {
    return schemes::scheme_name(k) == scheme_name;
  });
  if (kind == kinds.end()) {
    std::cerr << "error: --scheme=" << scheme_name << ": unknown scheme\n";
    return 2;
  }

  const pcm::PcmConfig pcfg = sys.pcm;
  const u64 instr = sys.instructions_per_core;
  const u32 cores = sys.cores;
  const u64 seed = sys.seed;
  const auto& profile = workload::profile_by_name(workload_name);

  sim::Simulator sim;
  stats::Registry reg;
  const auto msys = harness::make_memory_system(sim, sys, *kind, reg,
                                                profile.initial_ones_fraction);

  std::unique_ptr<workload::RequestSource> source;
  workload::CacheFilteredSource* cached_source = nullptr;
  if (use_cache) {
    // CPU-level profile: scale the memory-level rates up; the caches will
    // filter most accesses back out.
    workload::WorkloadProfile cpu_profile = profile;
    cpu_profile.rpki = std::max(40.0, profile.rpki * 40.0);
    cpu_profile.wpki = std::max(15.0, profile.wpki * 40.0);
    cpu_profile.working_set_lines = 512 * 1024;  // 32 MB: stress L3
    auto src = std::make_unique<workload::CacheFilteredSource>(
        cpu_profile, pcfg.geometry, cache::HierarchyConfig{}, cores, seed);
    cached_source = src.get();
    source = std::move(src);
  } else {
    source = std::make_unique<workload::TraceGenerator>(
        profile, pcfg.geometry, cores, seed);
  }

  cpu::MultiCore cpus(sim, sys.core, cores, *msys, *source, instr);
  cpus.start();
  msys->run(ms(30'000));
  harness::RunMetrics m;
  harness::harvest(*msys, cpus, reg, m);

  std::cout << "full_system_sim: " << workload_name << " under "
            << m.scheme << (use_cache ? " (cache-filtered)" : "") << "\n"
            << pcfg.describe() << "\n\n";

  if (!m.completed) {
    std::cout << "WARNING: simulation hit the time cap before all cores "
                 "retired their budget\n\n";
  }

  u64 lines_written = 0;
  for (u32 c = 0; c < msys->channels(); ++c) {
    lines_written += msys->channel(c).wear().summary().lines_touched;
  }
  AsciiTable t;
  t.set_header({"metric", "value"});
  t.add_row({"instructions retired", std::to_string(m.retired)});
  t.add_row({"runtime", fixed(m.runtime_ns / 1e3, 1) + " us"});
  t.add_row({"aggregate IPC", fixed(m.ipc, 3)});
  t.add_row({"memory reads", std::to_string(m.reads)});
  t.add_row({"memory writes", std::to_string(m.writes)});
  t.add_row({"avg read latency", fixed(m.read_latency_ns, 0) + " ns"});
  t.add_row({"avg write latency", fixed(m.write_latency_ns, 0) + " ns"});
  t.add_row({"p99 read latency", fixed(m.read_p99_ns, 0) + " ns"});
  t.add_row({"avg write units/line", fixed(m.write_units, 2)});
  t.add_row({"reads forwarded", std::to_string(m.reads_forwarded)});
  t.add_row({"writes coalesced", std::to_string(m.writes_coalesced)});
  t.add_row({"silent writes",
             std::to_string(reg.counter("mem.writes_silent").value())});
  t.add_row({"units flipped",
             std::to_string(reg.counter("mem.units_flipped").value())});
  t.add_row({"write energy", fixed(m.write_energy_pj / 1e6, 3) + " uJ"});
  t.add_row({"read energy", fixed(m.read_energy_pj / 1e6, 3) + " uJ"});
  t.add_row({"lines written", std::to_string(lines_written)});
  t.add_row({"bits programmed/write", fixed(m.bits_per_write, 1)});
  t.print(std::cout);

  std::cout << "\nper-bank utilization:\n";
  const Tick rt = std::max<Tick>(cpus.runtime(), 1);
  for (u32 c = 0; c < msys->channels(); ++c) {
    const auto& banks = msys->channel(c).banks();
    const std::string chan =
        msys->channels() == 1 ? "" : "ch" + std::to_string(c) + " ";
    for (std::size_t b = 0; b < banks.size(); ++b) {
      const double util = static_cast<double>(banks[b].busy_total()) /
                          static_cast<double>(rt);
      std::cout << "  " << chan << "bank " << b << " ["
                << ascii_bar(util, 30) << "] " << pct(util) << " ("
                << banks[b].commands() << " cmds)\n";
    }
  }

  if (cached_source != nullptr) {
    std::cout << "\ncache behaviour (core 0):\n";
    const auto& h = cached_source->hierarchy(0);
    std::cout << "  L1D hit rate " << pct(h.l1d().hit_rate()) << ", L2 "
              << pct(h.l2().hit_rate()) << ", L3 "
              << pct(h.l3().hit_rate()) << "\n";
    std::cout << "  effective memory traffic: "
              << fixed(cached_source->effective_mem_per_kilo(0), 2)
              << " requests/kilo-instruction\n";
  }

  std::cout << "\nraw stat registry:\n";
  reg.report(std::cout, "  ");
  return 0;
}
