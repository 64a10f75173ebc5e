// Quickstart: write one cache line through every PCM write scheme and
// compare service plans, then run a short full-system simulation.
//
//   $ ./quickstart
//
// This is the 5-minute tour of the public API:
//   1. pcm::PcmConfig       — device timing/power/geometry (Table II)
//   2. core::make_scheme    — instantiate any write scheme
//   3. WriteScheme::plan_write — one cache-line write service
//   4. harness::run_system  — a full 4-core simulation

#include <iostream>

#include "tw/common/strings.hpp"
#include "tw/common/table.hpp"
#include "tw/core/factory.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/workload/generator.hpp"

using namespace tw;

int main() {
  // 1. Device configuration: the paper's Table II setup.
  const pcm::PcmConfig cfg = pcm::table2_config();
  std::cout << "PCM: " << cfg.describe() << "\n\n";

  // 2. A realistic line write: mutate a line the way the 'ferret'
  //    workload would, then plan the same write under each scheme.
  const auto& profile = workload::profile_by_name("ferret");
  workload::TraceGenerator gen(profile, cfg.geometry, /*cores=*/1,
                               /*seed=*/7);

  // One generated write, replayed against identical memory state for
  // every scheme, so the plans are directly comparable.
  const Addr addr = 0x1000;
  pcm::LogicalLine next(cfg.geometry.units_per_line());
  {
    mem::DataStore store(cfg.geometry.units_per_line(), /*seed=*/1);
    next = gen.make_write_data(addr, store, 0);
  }

  AsciiTable table;
  table.set_header({"scheme", "latency (ns)", "write units",
                    "bits programmed", "flipped units"});
  for (const auto kind : core::all_scheme_kinds()) {
    mem::DataStore store(cfg.geometry.units_per_line(), /*seed=*/1);
    const auto scheme = core::make_scheme(kind, cfg);
    pcm::LineBuf line = store.line(addr);
    const schemes::ServicePlan plan = scheme->plan_write(line, next);

    table.add_row({std::string(scheme->name()),
                   fixed(to_ns(plan.latency), 1),
                   fixed(plan.write_units, 2),
                   std::to_string(plan.programmed.total()),
                   std::to_string(plan.flipped_units)});
  }
  std::cout << "One 64 B cache-line write ('ferret'-like data):\n"
            << table.to_string() << "\n";

  // 3. A short full-system run: 4 cores, FRFCFS controller, PCM banks.
  harness::SystemConfig sys;
  sys.instructions_per_core = 50'000;
  std::cout << "Full-system simulation (ferret, 4 cores, "
            << sys.instructions_per_core << " instructions/core):\n";

  AsciiTable sysres;
  sysres.set_header({"scheme", "read lat (ns)", "write lat (ns)", "IPC",
                     "runtime (us)"});
  for (const auto kind :
       {schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
        schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
        schemes::SchemeKind::kTetris}) {
    const harness::RunMetrics m = harness::run_system(sys, profile, kind);
    sysres.add_row({m.scheme, fixed(m.read_latency_ns, 0),
                    fixed(m.write_latency_ns, 0), fixed(m.ipc, 3),
                    fixed(m.runtime_ns / 1000.0, 1)});
  }
  std::cout << sysres.to_string()
            << "\nTetris Write wins by hiding short RESET pulses in the "
               "interspaces of long SET pulses.\n";
  return 0;
}
