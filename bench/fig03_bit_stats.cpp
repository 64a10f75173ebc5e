// Figure 3 reproduction: the number of RESET and SET bit-writes per
// 64-bit data unit (after data inversion), per PARSEC workload.
//
// Paper anchors: average 2.9 RESET + 6.7 SET (9.6 changed bits, ~15% of a
// unit); blackscholes ~2 total; vips ~19; vips and ferret near
// fifty-fifty; everything else SET-dominant.

#include <iostream>

#include "bench_util.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/stats/accumulator.hpp"
#include "tw/workload/generator.hpp"

using namespace tw;

int main(int argc, char** argv) {
  const bench::Options o = bench::Options::parse(argc, argv);
  const u64 writes_per_workload = o.quick ? 1'000 : 8'000;

  std::cout << "Figure 3: RESET/SET bit-writes per 64-bit data unit\n"
            << "===================================================\n"
            << "(measured by the Tetris read stage on generated writes, "
            << writes_per_workload << " writes/workload)\n\n";

  AsciiTable t;
  t.set_header({"workload", "RESET", "SET", "total", "bar (SET=#, RESET=*)",
                "paper R", "paper S"});

  stats::Accumulator all_r, all_s;
  const pcm::GeometryParams g;
  for (const auto& p : workload::parsec_profiles()) {
    mem::DataStore store(g.units_per_line(), o.seed,
                         p.initial_ones_fraction);
    workload::TraceGenerator gen(p, g, 1, o.seed + 1);
    stats::Accumulator r_acc, s_acc;
    u64 writes = 0;
    while (writes < writes_per_workload) {
      const workload::TraceOp op = gen.next(0);
      if (!op.is_write) continue;
      const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
      pcm::LineBuf line = store.line(op.addr);
      const core::ReadStageResult rs = core::read_stage(line, next, 64);
      for (const auto& c : rs.counts) {
        r_acc.add(static_cast<double>(c.n0));
        s_acc.add(static_cast<double>(c.n1));
      }
      schemes::apply_plans(line, rs.plans);
      ++writes;
    }
    all_r.merge(r_acc);
    all_s.merge(s_acc);

    const int bar_s = static_cast<int>(s_acc.mean() + 0.5);
    const int bar_r = static_cast<int>(r_acc.mean() + 0.5);
    t.add_row({p.name, fixed(r_acc.mean(), 2), fixed(s_acc.mean(), 2),
               fixed(r_acc.mean() + s_acc.mean(), 2),
               std::string(static_cast<std::size_t>(bar_s), '#') +
                   std::string(static_cast<std::size_t>(bar_r), '*'),
               fixed(p.fig3_resets, 1), fixed(p.fig3_sets, 1)});
  }
  t.add_separator();
  t.add_row({"average", fixed(all_r.mean(), 2), fixed(all_s.mean(), 2),
             fixed(all_r.mean() + all_s.mean(), 2), "",
             "2.9", "6.7"});
  t.print(std::cout);

  const double total = all_r.mean() + all_s.mean();
  std::cout << "\nmeasured average " << fixed(total, 2)
            << " changed bits/unit (" << pct(total / 64.0)
            << " of a unit); paper: 9.6 (15%)\n";
  const bool ok = total > 7.0 && total < 12.5 && all_s.mean() > all_r.mean();
  std::cout << (ok ? "shape: OK — sparse and SET-dominant as in the paper\n"
                   : "shape: MISMATCH\n");
  return ok ? 0 : 1;
}
