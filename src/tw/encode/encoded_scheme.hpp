#pragma once
// EncodedScheme: decorator that runs an Encoder pre-stage in front of any
// WriteScheme. The inner scheme plans over the *coded* words and stays
// oblivious — FNW inversion, 2/3-stage partitioning and Tetris packing all
// compose unchanged on top of the coded payload. The decorator then prices
// the encoder metadata-cell transitions into the plan, persists the chosen
// tags in the line's meta cells, and reverses the code on the read path
// via decode_stored().
//
// Hot-path discipline: per-write staging lives in stack arrays and
// per-batch staging in reused member buffers (no heap in steady state),
// and encoding is a pure function of the line state, so a fault-ladder
// retry that re-plans the same logical data re-encodes to the identical
// coded image.

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tw/encode/encoder.hpp"
#include "tw/schemes/write_scheme.hpp"

namespace tw::encode {

class EncodedScheme final : public schemes::WriteScheme {
 public:
  EncodedScheme(std::unique_ptr<schemes::WriteScheme> inner,
                std::unique_ptr<Encoder> enc);

  std::string_view name() const override { return name_; }
  schemes::SchemeKind kind() const override { return inner_->kind(); }
  schemes::WriteSemantics semantics() const override {
    return inner_->semantics();
  }

  schemes::ServicePlan plan_write(pcm::LineBuf& line,
                                  const pcm::LogicalLine& next) const override;

  schemes::BatchServicePlan plan_write_batch(
      std::span<pcm::LineBuf*> lines,
      std::span<const pcm::LogicalLine> datas) const override;

  schemes::BatchServicePlan plan_write_batch(
      std::span<pcm::LineBuf*> lines, std::span<const pcm::LogicalLine> datas,
      std::span<const u32> partitions) const override;

  Tick plan_retry(const BitTransitions& failed, u32 attempt,
                  double widen) const override {
    return inner_->plan_retry(failed, attempt, widen);
  }

  pcm::LogicalLine decode_stored(const pcm::LineBuf& line) const override;
  bool transforms_content() const override { return true; }

  /// Brown-out scales must reach the scheme that packs against the budget.
  void set_budget_scale(double scale) override {
    schemes::WriteScheme::set_budget_scale(scale);
    inner_->set_budget_scale(scale);
  }

  const schemes::WriteScheme& inner() const { return *inner_; }
  const Encoder& encoder() const { return *enc_; }

 private:
  /// One line's encoder tags, one per data unit.
  using MetaArray = std::array<u8, pcm::kMaxUnitsPerLine>;

  /// Stage the coded image of `next` over `line` into `coded`/`metas`.
  void encode_line(const pcm::LineBuf& line, const pcm::LogicalLine& next,
                   pcm::LogicalLine& coded, u8* metas) const;

  /// Body of both batch overloads: stage every line's coded image, hand
  /// the batch to the inner scheme's matching overload (the partition-
  /// aware one when `partitions` is given), then persist the tags.
  schemes::BatchServicePlan plan_batch(
      std::span<pcm::LineBuf*> lines, std::span<const pcm::LogicalLine> datas,
      std::optional<std::span<const u32>> partitions) const;

  /// Price + persist the staged tags after the inner scheme planned the
  /// coded write, and fill in the plan's encoder stats.
  void finish_line(pcm::LineBuf& line, schemes::ServicePlan& plan,
                   const u8* metas) const;

  std::unique_ptr<schemes::WriteScheme> inner_;
  std::unique_ptr<Encoder> enc_;
  std::string name_;  // "<inner>+<encoder>", cached for the hot path
  /// plan_batch's coded images and tag sets, one per member, reused so
  /// that staging a batch of any size allocates nothing once the buffers
  /// have grown to it. Planning is single-threaded per scheme instance
  /// (each channel owns its scheme).
  mutable std::vector<pcm::LogicalLine> coded_scratch_;
  mutable std::vector<MetaArray> meta_scratch_;
};

/// Wrap `inner` with the configured encoder pre-stage. kNone returns
/// `inner` unchanged — the encoder-off path has no decorator at all, which
/// is what keeps it bit-identical (metrics, trace bytes, config hash) to
/// builds that predate the encoder stage.
std::unique_ptr<schemes::WriteScheme> wrap_scheme(
    std::unique_ptr<schemes::WriteScheme> inner, EncoderKind kind);

}  // namespace tw::encode
