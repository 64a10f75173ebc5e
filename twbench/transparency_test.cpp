// Probe transparency: for every cell of every benchmark workload, plus
// cells that exercise the scheme seams the workloads leave idle (a coset
// encoder, heavy faults with brown-outs, PALP partition batches), the
// probed assembly and the bare one must both reproduce
// harness::run_system's RunMetrics field by field. A probe that dropped
// transforms_content, set_budget_scale, decode_stored or the partition
// overload of plan_write_batch would change the model and fail here; the
// per-cell call counts show each seam was actually crossed.

#include <cstdio>
#include <string>

#include "cell.hpp"
#include "tw/fault/fault.hpp"
#include "tw/workload/profiles.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "transparency_test: FAILED %s\n", what.c_str());
    ++g_failures;
  }
}

std::string joined(const std::vector<std::string>& v) {
  std::string s;
  for (const auto& x : v) s += " " + x;
  return s;
}

/// Returns the probed run so callers can check which seams it crossed.
twbench::CellRun check_cell(const twbench::Cell& cell,
                            const std::string& where) {
  const tw::harness::RunMetrics lib =
      tw::harness::run_system(cell.cfg, cell.profile, cell.kind);
  const twbench::CellRun bare = twbench::run_cell(cell, nullptr);
  twbench::SpanRecorder rec;
  twbench::CellRun probed = twbench::run_cell(cell, &rec);
  const std::string what = where + " " + twbench::cell_label(cell);
  check(lib.completed, what + " completes");
  check(twbench::metric_diffs(lib, bare.m).empty(),
        what + " bare differs:" + joined(twbench::metric_diffs(lib, bare.m)));
  check(twbench::metric_diffs(lib, probed.m).empty(),
        what + " probed differs:" +
            joined(twbench::metric_diffs(lib, probed.m)));
  check(probed.layers.spans.negative == 0, what + " negative self time");
  return probed;
}

std::uint64_t calls(const twbench::CellRun& r, twbench::Site s) {
  return r.layers.spans.calls[static_cast<std::size_t>(s)];
}

twbench::Cell extra_cell(const char* profile) {
  twbench::Cell c;
  c.profile = tw::workload::profile_by_name(profile);
  c.kind = tw::schemes::SchemeKind::kTetris;
  c.cfg.instructions_per_core = 200'000;
  return c;
}

}  // namespace

int main() {
  std::size_t cells = 0;
  for (const auto name : twbench::kWorkloadNames) {
    const twbench::Workload w = *twbench::make_workload(name, 42);
    for (const twbench::Cell& c : w.cells) {
      check_cell(c, std::string(name));
      ++cells;
    }
  }

  twbench::Cell coset = extra_cell("vips");
  coset.cfg.encode.kind = tw::encode::EncoderKind::kCoset;
  const twbench::CellRun coset_run = check_cell(coset, "encoder=coset");
  check(calls(coset_run, twbench::Site::kDecodeStored) > 0,
        "coset cell decodes through the probe");

  twbench::Cell heavy = extra_cell("vips");
  heavy.cfg.fault = tw::fault::profile_config(tw::fault::FaultProfile::kHeavy);
  const twbench::CellRun heavy_run = check_cell(heavy, "fault=heavy");
  check(heavy_run.m.brownout_writes > 0, "heavy cell plans under brown-out");
  check(calls(heavy_run, twbench::Site::kPlanRetry) > 0,
        "heavy cell retries through the probe");

  twbench::Cell palp = extra_cell("canneal");
  palp.cfg.pcm.geometry.subarrays_per_bank = 4;
  palp.cfg.controller.palp.enabled = true;
  palp.cfg.batch.max_lines = 4;
  const twbench::CellRun palp_run = check_cell(palp, "palp");
  check(calls(palp_run, twbench::Site::kPlanWriteBatchPart) > 0,
        "palp cell plans partition batches through the probe");
  cells += 3;

  std::printf("transparency_test: %zu cells, %d failed checks\n", cells,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
