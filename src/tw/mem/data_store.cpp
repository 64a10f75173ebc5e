#include "tw/mem/data_store.hpp"

#include <cstring>

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
      stride_(pcm::line_record_bytes(units_per_line)),
      seed_(seed),
      biased_(ones_bias != 0.5),
      threshold_(bias_threshold(ones_bias)) {}

void DataStore::materialize(Addr line_addr, u64* cells) const {
  // Deterministic per-line content: hash (seed, addr) into a short
  // SplitMix64 stream. Tags start clear (factory state).
  const u64 line_seed =
      seed_ ^ (line_addr * 0x9E3779B97F4A7C15ull) ^ line_addr;
  if (!biased_) {
    SplitMix64 sm(line_seed);
    for (u32 i = 0; i < units_; ++i) cells[i] = sm.next();
  } else {
    // Biased content: each cell is '1' with probability ones_bias.
    simd::biased_words(line_seed, units_, threshold_, cells,
                       simd::active_level());
  }
  std::memset(cells + units_, 0, stride_ - 8 * units_);
}

pcm::LineBuf DataStore::line(Addr line_addr) {
  u32 slot = index_.find(line_addr);
  if (slot == FlatIndexMap::kNoIndex) {
    if ((arena_size_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(kChunkLines * stride_));
    }
    slot = arena_size_++;
    materialize(line_addr, reinterpret_cast<u64*>(record(slot)));
    index_.insert(line_addr, slot);
  }
  return {record(slot), units_};
}

}  // namespace tw::mem
