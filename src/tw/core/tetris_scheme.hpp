#pragma once
// Tetris Write as a WriteScheme: read stage (Alg. 1) -> analysis stage
// (Alg. 2 packing) -> individually-write stage (Eq. 5 service time).
//
// Latency = Tread + Tanalysis + (result + subresult/K) * Tset, where the
// analysis overhead is the paper's Vivado HLS measurement: 41 cycles at
// the 400 MHz memory bus clock (102.5 ns), charged on every write.

#include <memory>
#include <optional>

#include "tw/core/batch_packer.hpp"
#include "tw/core/packer.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/schemes/write_scheme.hpp"

namespace tw::core {

/// Tuning knobs of the Tetris Write implementation.
struct TetrisOptions {
  u32 analysis_cycles = 41;           ///< worst-case analysis latency
  Tick analysis_clock_period = 2500;  ///< 400 MHz memory bus clock (ps)
  bool forbid_self_overlap = false;   ///< see PackerConfig (paper: allowed)
  PackOrder pack_order = PackOrder::kFirstFitDecreasing;
  /// Without the global charge pump, each chip's local budget binds. We
  /// then charge each data unit a conservative bank-equivalent demand of
  /// chips x (its worst chip's demand), which guarantees every chip stays
  /// within its local budget.
  bool respect_gcp_setting = true;
  /// Re-verify every schedule with verify_pack + the FSM model (slow;
  /// tests and debugging only).
  bool self_check = false;

  Tick analysis_latency() const {
    return analysis_cycles * analysis_clock_period;
  }
};

/// Result of the read + analysis stages for one line write (exposed for
/// benches, tests and the timing-diagram example).
struct TetrisAnalysis {
  ReadStageResult read;
  PackResult pack;
  PackerConfig packer_cfg;
};

class TetrisScheme final : public schemes::WriteScheme {
 public:
  explicit TetrisScheme(const pcm::PcmConfig& cfg,
                        TetrisOptions opts = {});

  std::string_view name() const override { return "tetris"; }
  schemes::SchemeKind kind() const override {
    return schemes::SchemeKind::kTetris;
  }
  schemes::WriteSemantics semantics() const override {
    return {schemes::FlipCriterion::kHamming,
            schemes::PulsePolicy::kChangedCells, true};
  }

  schemes::ServicePlan plan_write(
      pcm::LineBuf& line, const pcm::LogicalLine& next) const override;

  /// Batched Tetris (our extension): pack the data units of several
  /// same-bank writes jointly — one shared schedule, amortized write
  /// units. Reads-before-write serialize (same bank); the analysis
  /// overhead is charged once per line (each line has its own Reg0/Reg1).
  schemes::BatchServicePlan plan_write_batch(
      std::span<pcm::LineBuf*> lines,
      std::span<const pcm::LogicalLine> datas) const override;

  /// Partition-aware batch (PALP): identical schedule — partitions share
  /// the bank pump — but the joint pack records the distinct-partition
  /// spread the controller's gather achieved.
  schemes::BatchServicePlan plan_write_batch(
      std::span<pcm::LineBuf*> lines,
      std::span<const pcm::LogicalLine> datas,
      std::span<const u32> partitions) const override;

  /// Run only the read + analysis stages (no state mutation).
  TetrisAnalysis analyze(const pcm::LineBuf& line,
                         const pcm::LogicalLine& next) const;

  /// Retry pricing for the fault-injection verify-and-retry path: the
  /// failed bits re-enter the packer (spread round-robin over the line's
  /// units, the way scattered cell failures present) under the *current*
  /// effective budget, so retries planned inside a brown-out window pack
  /// against the shrunken budget like any first-attempt write.
  Tick plan_retry(const BitTransitions& failed, u32 attempt,
                  double widen) const override;

  const TetrisOptions& options() const { return opts_; }

 private:
  PackerConfig make_packer_config() const;
  BatchPackerOptions batch_packer_options() const;

  /// Body of both batch overloads: pack the lines jointly (recording
  /// the partition spread when `partitions` is given), price the joint
  /// schedule and apply per-line plans.
  schemes::BatchServicePlan plan_batch(
      std::span<pcm::LineBuf*> lines, std::span<const pcm::LogicalLine> datas,
      std::optional<std::span<const u32>> partitions) const;

  /// Packing inputs for one line's read-stage result, with the non-GCP
  /// worst-chip scaling applied and unit ids offset by `unit_base`
  /// (delegates to BatchPacker::line_counts).
  CountsVec packing_counts(const pcm::LineBuf& line,
                           const ReadStageResult& read,
                           u32 unit_base) const;

  TetrisOptions opts_;
};

}  // namespace tw::core
