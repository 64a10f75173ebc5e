#include "tw/encode/encoded_scheme.hpp"

#include <array>
#include <utility>
#include <vector>

namespace tw::encode {

EncodedScheme::EncodedScheme(std::unique_ptr<schemes::WriteScheme> inner,
                             std::unique_ptr<Encoder> enc)
    : schemes::WriteScheme(inner->config()),
      inner_(std::move(inner)),
      enc_(std::move(enc)) {
  TW_EXPECTS(enc_ != nullptr);
  TW_EXPECTS(enc_->meta_bits() >= 1 && enc_->meta_bits() <= 8);
  name_.reserve(inner_->name().size() + 1 + enc_->name().size());
  name_.append(inner_->name());
  name_.push_back('+');
  name_.append(enc_->name());
}

void EncodedScheme::encode_line(const pcm::LineBuf& line,
                                const pcm::LogicalLine& next,
                                pcm::LogicalLine& coded, u8* metas) const {
  // The encoder operates in the de-inverted domain (line.logical), i.e.
  // on the coded payload as it was before any inner FNW flip. That keeps
  // the code chosen independent of the inner scheme's flip state, and it
  // is the same domain decode_stored() reads back.
  const u32 bits = cfg_.geometry.data_unit_bits;
  for (u32 i = 0; i < next.units(); ++i) {
    const u64 old_payload = line.logical(i);
    const u8 m = enc_->choose(next.word(i), old_payload, line.meta(i), bits);
    metas[i] = m;
    coded.set_word(i, enc_->apply(next.word(i), m, old_payload, bits));
  }
}

void EncodedScheme::finish_line(pcm::LineBuf& line, schemes::ServicePlan& plan,
                                const u8* metas) const {
  const u64 mmask = low_mask(enc_->meta_bits());
  BitTransitions tag;
  u32 coded_units = 0;
  for (u32 i = 0; i < line.units(); ++i) {
    const u8 m = static_cast<u8>(metas[i] & mmask);
    if (m != 0) ++coded_units;
    const u8 old_m = line.meta(i);
    if (m != old_m) {
      const BitTransitions t = transitions(old_m, m);
      tag.sets += t.sets;
      tag.resets += t.resets;
      line.set_meta(i, m);
    }
  }
  // Tag cells program alongside the data pulses (they are as wide as the
  // FNW flip tag), so they are charged to energy/wear but not latency.
  plan.programmed.sets += tag.sets;
  plan.programmed.resets += tag.resets;
  if (tag.total() > 0) plan.silent = false;
  plan.enc.active = true;
  plan.enc.coded_units = coded_units;
  plan.enc.tag_bits = tag.total();
}

schemes::ServicePlan EncodedScheme::plan_write(
    pcm::LineBuf& line, const pcm::LogicalLine& next) const {
  TW_EXPECTS(line.units() == next.units());
  pcm::LogicalLine coded(next.units());
  MetaArray metas;
  encode_line(line, next, coded, metas.data());
  schemes::ServicePlan plan = inner_->plan_write(line, coded);
  finish_line(line, plan, metas.data());
  return plan;
}

schemes::BatchServicePlan EncodedScheme::plan_write_batch(
    std::span<pcm::LineBuf*> lines,
    std::span<const pcm::LogicalLine> datas) const {
  return plan_batch(lines, datas, std::nullopt);
}

schemes::BatchServicePlan EncodedScheme::plan_write_batch(
    std::span<pcm::LineBuf*> lines, std::span<const pcm::LogicalLine> datas,
    std::span<const u32> partitions) const {
  return plan_batch(lines, datas, partitions);
}

schemes::BatchServicePlan EncodedScheme::plan_batch(
    std::span<pcm::LineBuf*> lines, std::span<const pcm::LogicalLine> datas,
    std::optional<std::span<const u32>> partitions) const {
  TW_EXPECTS(lines.size() == datas.size());
  std::vector<pcm::LogicalLine>& coded = coded_scratch_;
  std::vector<MetaArray>& metas = meta_scratch_;
  coded.clear();
  metas.resize(datas.size());
  for (std::size_t k = 0; k < datas.size(); ++k) {
    encode_line(*lines[k], datas[k], coded.emplace_back(datas[k].units()),
                metas[k].data());
  }
  const std::span<const pcm::LogicalLine> cs{coded.data(), coded.size()};
  schemes::BatchServicePlan batch =
      partitions ? inner_->plan_write_batch(lines, cs, *partitions)
                 : inner_->plan_write_batch(lines, cs);
  for (std::size_t k = 0; k < datas.size(); ++k) {
    finish_line(*lines[k], batch.per_line[k], metas[k].data());
  }
  return batch;
}

pcm::LogicalLine EncodedScheme::decode_stored(const pcm::LineBuf& line) const {
  const u32 bits = cfg_.geometry.data_unit_bits;
  pcm::LogicalLine out(line.units());
  for (u32 i = 0; i < line.units(); ++i) {
    // line.logical(i) de-inverts any inner FNW flip, yielding the coded
    // payload; the encoder then reverses its code via the stored tag.
    out.set_word(i, enc_->recover(line.logical(i), line.meta(i), bits));
  }
  return out;
}

std::unique_ptr<schemes::WriteScheme> wrap_scheme(
    std::unique_ptr<schemes::WriteScheme> inner, EncoderKind kind) {
  if (kind == EncoderKind::kNone) return inner;
  auto enc = make_encoder(kind, inner->config());
  return std::make_unique<EncodedScheme>(std::move(inner), std::move(enc));
}

}  // namespace tw::encode
