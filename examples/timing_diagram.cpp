// timing_diagram: reproduce the paper's Figure 4 — a chip-level timing
// diagram of one cache-line write under each scheme — as ASCII art, for
// data you control.
//
//   $ ./timing_diagram [seed]
//
// Shows where every data unit's write-1 and write-0 execute under Tetris
// Write (from the real FSM trace) and the stage structure of the
// comparison schemes.

#include <iostream>
#include <string>
#include <vector>

#include "tw/common/rng.hpp"
#include "tw/common/strings.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/fsm.hpp"

using namespace tw;

namespace {

// One column of the diagram per sub-write-unit (Tset/K = 53.75 ns).
std::string bar(Tick start, Tick end, Tick total, Tick col, char ch) {
  std::string s;
  for (Tick t = 0; t < total; t += col) {
    const bool covered = start < t + col && end > t;
    s += covered ? ch : '.';
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const u64 seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  const pcm::PcmConfig cfg = pcm::table2_config();
  Rng rng(seed);

  // Build a workload-like line write: sparse, SET-dominant transitions.
  pcm::LineImage stored(8);
  pcm::LineBuf line = stored.view();
  for (u32 i = 0; i < 8; ++i) line.set_cell(i, rng.next());
  pcm::LogicalLine next = pcm::LogicalLine::from_physical(line);
  for (u32 i = 0; i < 8; ++i) {
    u64 w = next.word(i);
    const u32 flips = 2 + static_cast<u32>(rng.below(14));
    for (u32 b = 0; b < flips; ++b) {
      w = with_bit(w, static_cast<u32>(rng.below(64)), rng.chance(0.7));
    }
    next.set_word(i, w);
  }

  const core::TetrisScheme tetris(cfg);
  const core::TetrisAnalysis a = tetris.analyze(line, next);
  const core::FsmTrace trace =
      core::execute_fsms(a.pack, a.packer_cfg, cfg.timing);

  std::cout << "Tetris Write chip-level timing diagram (Fig. 4 style)\n"
            << "=====================================================\n\n";
  std::cout << "per-unit transition counts (after inversion):\n";
  for (const auto& c : a.read.counts) {
    std::cout << "  unit " << c.unit << ": " << c.n1 << " SET, " << c.n0
              << " RESET  (write-1 current " << c.n1 << ", write-0 current "
              << c.n0 * cfg.l() << ")\n";
  }

  const Tick col = cfg.timing.t_set / a.packer_cfg.k;  // one sub-slot
  const Tick total = std::max<Tick>(trace.schedule_length, col);
  std::cout << "\ntime -> (each column = one sub-write-unit, "
            << fixed(to_ns(col), 2) << " ns; total "
            << fixed(to_ns(trace.schedule_length), 1) << " ns = "
            << fixed(a.pack.write_unit_equiv(a.packer_cfg.k), 2)
            << " write units)\n\n";

  for (u32 u = 0; u < 8; ++u) {
    std::string row1(static_cast<std::size_t>(total / col), '.');
    std::string row0 = row1;
    for (const auto& e : trace.events) {
      if (e.unit != u) continue;
      const std::string b =
          bar(e.start, e.end, total, col, e.fsm == 1 ? '1' : '0');
      std::string& row = e.fsm == 1 ? row1 : row0;
      for (std::size_t i = 0; i < row.size() && i < b.size(); ++i) {
        if (b[i] != '.') row[i] = b[i];
      }
    }
    std::cout << "  unit " << u << "  W1 |" << row1 << "|\n"
              << "          W0 |" << row0 << "|\n";
  }

  std::cout << "\nper-sub-slot power draw (budget "
            << a.packer_cfg.budget << "):\n  |";
  for (const u32 p : a.pack.slot_power) {
    std::cout << pad(std::to_string(p), -4);
  }
  std::cout << " |\n\n";

  // Compare completion times across schemes on the same data.
  std::cout << "write-phase completion (same data, excluding read/analysis "
               "overheads):\n";
  for (const auto kind :
       {schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
        schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
        schemes::SchemeKind::kTetris}) {
    core::TetrisOptions opts;
    opts.analysis_cycles = 0;
    pcm::LineImage copy = stored;  // each scheme writes its own copy
    pcm::LineBuf work = copy.view();
    const auto scheme = core::make_scheme(kind, cfg, opts);
    const auto plan = scheme->plan_write(work, next);
    const Tick write_phase =
        plan.latency - (plan.read_before_write ? cfg.timing.t_read : 0);
    std::cout << "  " << pad(scheme->name(), 8) << " "
              << pad(fixed(to_ns(write_phase), 0), -6) << " ns  |"
              << ascii_bar(to_ns(write_phase) / (8.0 * 430.0), 48) << "|\n";
  }
  std::cout << "\n(the '0' pulses riding inside the '1' window are the "
               "stolen interspaces that give Tetris Write its name)\n";
  return 0;
}
