#include "tw/mem/data_store.hpp"

#include "tw/common/assert.hpp"
#include "tw/common/simd.hpp"

namespace tw::mem {

namespace {

/// Draws <= this threshold make a first-touch bit '1' with probability
/// `bias`: bias * (2^64 - 1), and all draws for bias 1 (the product
/// rounds to 2^64 there, which does not fit in a u64).
u64 bias_threshold(double bias) {
  TW_EXPECTS(bias >= 0.0 && bias <= 1.0);
  if (bias == 1.0) return ~u64{0};
  return static_cast<u64>(bias * 18446744073709551615.0);
}

}  // namespace

DataStore::DataStore(u32 units_per_line, u64 seed, double ones_bias)
    : units_(units_per_line),
      seed_(seed),
      biased_(ones_bias != 0.5),
      threshold_(bias_threshold(ones_bias)) {}

pcm::LineBuf DataStore::materialize(Addr line_addr) const {
  // Deterministic per-line content: hash (seed, addr) into a short
  // SplitMix64 stream. Tags start clear (factory state).
  const u64 line_seed =
      seed_ ^ (line_addr * 0x9E3779B97F4A7C15ull) ^ line_addr;
  pcm::LineBuf buf(units_);
  if (!biased_) {
    SplitMix64 sm(line_seed);
    for (u32 i = 0; i < units_; ++i) buf.set_cell(i, sm.next());
    return buf;
  }
  // Biased content: each cell is '1' with probability ones_bias.
  u64 words[pcm::kMaxUnitsPerLine];
  simd::biased_words(line_seed, units_, threshold_, words,
                     simd::active_level());
  for (u32 i = 0; i < units_; ++i) buf.set_cell(i, words[i]);
  return buf;
}

pcm::LineBuf& DataStore::line(Addr line_addr) {
  const u32 idx = index_.find(line_addr);
  if (idx != FlatIndexMap::kNoIndex) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  if ((arena_size_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<pcm::LineBuf[]>(kChunkLines));
  }
  const u32 slot = arena_size_++;
  pcm::LineBuf& buf = chunks_[slot >> kChunkShift][slot & kChunkMask];
  buf = materialize(line_addr);
  index_.insert(line_addr, slot);
  return buf;
}

}  // namespace tw::mem
