#include "tw/mem/data_store.hpp"

namespace tw::mem {

pcm::LineBuf DataStore::materialize(Addr line_addr) const {
  // Deterministic per-line content: hash (seed, addr) into a short
  // SplitMix64 stream. Tags start clear (factory state).
  SplitMix64 sm(seed_ ^ (line_addr * 0x9E3779B97F4A7C15ull) ^ line_addr);
  pcm::LineBuf buf(units_);
  if (ones_bias_ == 0.5) {
    for (u32 i = 0; i < units_; ++i) buf.set_cell(i, sm.next());
    return buf;
  }
  // Biased content: each cell is '1' with probability ones_bias_.
  const u64 threshold = static_cast<u64>(
      ones_bias_ * 18446744073709551615.0);  // bias * (2^64 - 1)
  for (u32 i = 0; i < units_; ++i) {
    u64 w = 0;
    for (u32 b = 0; b < 64; ++b) {
      w |= u64{sm.next() <= threshold} << b;
    }
    buf.set_cell(i, w);
  }
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
