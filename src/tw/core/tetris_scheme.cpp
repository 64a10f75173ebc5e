#include "tw/core/tetris_scheme.hpp"

#include <algorithm>

#include "tw/common/env.hpp"
#include "tw/core/batch_packer.hpp"
#include "tw/core/fsm.hpp"
#include "tw/trace/emit.hpp"

namespace tw::core {

TetrisScheme::TetrisScheme(const pcm::PcmConfig& cfg, TetrisOptions opts)
    : WriteScheme(cfg), opts_(opts) {
  // TW_VERIFY=1 invariant mode: every production schedule is re-verified
  // (verify_pack) and re-executed through the FSM model on every write.
  if (verify_env_enabled()) opts_.self_check = true;
}

PackerConfig TetrisScheme::make_packer_config() const {
  PackerConfig p;
  p.k = cfg_.k();
  p.l = cfg_.l();
  p.budget = effective_budget();
  p.forbid_self_overlap = opts_.forbid_self_overlap;
  p.order = opts_.pack_order;
  return p;
}

BatchPackerOptions TetrisScheme::batch_packer_options() const {
  return BatchPackerOptions{opts_.respect_gcp_setting, opts_.self_check};
}

CountsVec TetrisScheme::packing_counts(const pcm::LineBuf& line,
                                       const ReadStageResult& read,
                                       u32 unit_base) const {
  return BatchPacker(cfg_, batch_packer_options())
      .line_counts(line, read, unit_base);
}

TetrisAnalysis TetrisScheme::analyze(const pcm::LineBuf& line,
                                     const pcm::LogicalLine& next) const {
  TetrisAnalysis a;
  a.read = read_stage(line, next, cfg_.geometry.data_unit_bits);
  a.packer_cfg = make_packer_config();

  const CountsVec counts = packing_counts(line, a.read, 0);
  a.pack = pack(counts, a.packer_cfg);
  if (opts_.self_check) {
    verify_pack(counts, a.packer_cfg, a.pack);
    (void)execute_fsms(a.pack, a.packer_cfg, cfg_.timing);
  }
  return a;
}

Tick TetrisScheme::plan_retry(const BitTransitions& failed, u32 attempt,
                              double widen) const {
  TW_EXPECTS(attempt >= 1);
  TW_EXPECTS(widen >= 1.0);
  if (failed.total() == 0) return 0;
  const u32 units = cfg_.geometry.units_per_line();
  u32 n1[pcm::kMaxUnitsPerLine] = {};
  u32 n0[pcm::kMaxUnitsPerLine] = {};
  for (u32 i = 0; i < failed.sets; ++i) ++n1[i % units];
  for (u32 i = 0; i < failed.resets; ++i) ++n0[i % units];
  CountsVec counts;
  for (u32 u = 0; u < units; ++u) {
    if (n1[u] == 0 && n0[u] == 0) continue;
    UnitCounts c;
    c.unit = u;
    c.n1 = n1[u];
    c.n0 = n0[u];
    counts.push_back(c);
  }
  const PackerConfig pcfg = make_packer_config();
  const PackResult packed = pack(counts, pcfg);
  const Tick sub = cfg_.timing.t_set / pcfg.k;
  const Tick write_phase =
      packed.result * cfg_.timing.t_set + packed.subresult * sub;
  // Exponential pulse widening stretches the write phase; the verify read
  // and re-analysis ride at nominal speed. Repeated multiplication (no
  // std::pow) for cross-compiler bit-identity.
  double factor = 1.0;
  for (u32 i = 0; i < attempt; ++i) factor *= widen;
  return opts_.analysis_latency() +
         static_cast<Tick>(static_cast<double>(write_phase) * factor);
}

schemes::ServicePlan TetrisScheme::plan_write(
    pcm::LineBuf& line, const pcm::LogicalLine& next) const {
  const TetrisAnalysis a = analyze(line, next);

  // Simulation normally stops at the packed schedule (the FSM expansion
  // is only needed for its length, already known). When FSM tracing is
  // live, expand it anyway so the trace shows per-pulse SET/RESET spans;
  // self-check mode already expanded it inside analyze().
  if (trace::on<trace::Category::kFsm>() && !opts_.self_check) {
    (void)execute_fsms(a.pack, a.packer_cfg, cfg_.timing);
  }

  schemes::ServicePlan s;
  s.read_before_write = true;
  s.analysis_ticks = opts_.analysis_latency();
  s.flipped_units = a.read.flipped_units;
  s.programmed = a.read.total();
  s.silent = s.programmed.total() == 0;

  const Tick sub = cfg_.timing.t_set / a.packer_cfg.k;
  const Tick write_phase =
      a.pack.result * cfg_.timing.t_set + a.pack.subresult * sub;
  s.latency = cfg_.timing.t_read + s.analysis_ticks + write_phase;
  s.write_units = a.pack.write_unit_equiv(a.packer_cfg.k);
  s.power_util = a.pack.power_utilization(a.packer_cfg.budget);

  schemes::apply_plans(line, a.read.plans);
  return s;
}

schemes::BatchServicePlan TetrisScheme::plan_write_batch(
    std::span<pcm::LineBuf*> lines,
    std::span<const pcm::LogicalLine> datas) const {
  return plan_batch(lines, datas, std::nullopt);
}

schemes::BatchServicePlan TetrisScheme::plan_write_batch(
    std::span<pcm::LineBuf*> lines,
    std::span<const pcm::LogicalLine> datas,
    std::span<const u32> partitions) const {
  return plan_batch(lines, datas, partitions);
}

schemes::BatchServicePlan TetrisScheme::plan_batch(
    std::span<pcm::LineBuf*> lines, std::span<const pcm::LogicalLine> datas,
    std::optional<std::span<const u32>> partitions) const {
  TW_EXPECTS(lines.size() == datas.size());
  TW_EXPECTS(!lines.empty());
  const PackerConfig pcfg = make_packer_config();
  const BatchPacker packer(cfg_, batch_packer_options());
  const BatchPackOutcome joint =
      partitions ? packer.pack_lines(lines, datas, pcfg, *partitions)
                 : packer.pack_lines(lines, datas, pcfg);
  if (trace::on<trace::Category::kFsm>()) {
    (void)execute_fsms(joint.pack, pcfg, cfg_.timing);
  }

  const Tick sub = cfg_.timing.t_set / pcfg.k;
  const Tick write_phase =
      joint.pack.result * cfg_.timing.t_set + joint.pack.subresult * sub;
  // Reads-before-write serialize on the bank; each line carries its own
  // analysis (its own Reg0/Reg1 + analyzer pass).
  const Tick overhead =
      lines.size() * (cfg_.timing.t_read + opts_.analysis_latency());

  schemes::BatchServicePlan batch;
  batch.latency = overhead + write_phase;
  batch.packed_lines = joint.lines;
  batch.occupancy = joint.occupancy(pcfg.budget);
  const double shared_units =
      joint.pack.write_unit_equiv(pcfg.k) / static_cast<double>(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const ReadStageResult& read = joint.reads[i];
    schemes::ServicePlan s;
    s.read_before_write = true;
    s.analysis_ticks = opts_.analysis_latency();
    s.flipped_units = read.flipped_units;
    s.programmed = read.total();
    s.silent = s.programmed.total() == 0;
    s.latency = batch.latency;  // all lines complete together
    s.write_units = shared_units;
    s.power_util = batch.occupancy;
    schemes::apply_plans(*lines[i], read.plans);
    batch.per_line.push_back(std::move(s));
  }
  return batch;
}

}  // namespace tw::core
