#include "tw/mem/data_store.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "tw/common/assert.hpp"

namespace tw::mem {

namespace {

/// `bias` rounded to 16 fractional bits: q = round(bias * 2^16).
u32 ones_q16(double bias) {
  TW_EXPECTS(bias >= 0.0 && bias <= 1.0);
  return static_cast<u32>(std::lround(bias * 65536.0));
}

}  // namespace

DataStore::DataStore(u32 units_per_line, u64 seed, double ones_bias)
    : units_(units_per_line),
      stride_(pcm::line_record_bytes(units_per_line)),
      seed_(seed),
      ones_q16_(ones_q16(ones_bias)) {}

void DataStore::materialize(Addr line_addr, u64* cells) const {
  // Deterministic per-line content: hash (seed, addr) into a short
  // SplitMix64 stream. Each cell is '1' with probability q / 2^16, built
  // from the binary expansion of q: walking its bits from the lowest set
  // one up to bit 15, a '1' bit ORs in a fresh draw (p -> p/2 + 1/2) and
  // a '0' bit ANDs one in (p -> p/2). Bias 0.5 is one draw per word; 0
  // and 1 draw nothing. Tags start clear (factory state).
  const u64 line_seed =
      seed_ ^ (line_addr * 0x9E3779B97F4A7C15ull) ^ line_addr;
  const u64 fill = ones_q16_ >> 16 ? ~u64{0} : 0;  // q = 2^16: all ones
  const u32 low = static_cast<u32>(std::countr_zero(ones_q16_));
  SplitMix64 sm(line_seed);
  for (u32 i = 0; i < units_; ++i) {
    u64 w = low < 16 ? sm.next() : fill;  // the lowest set bit: 0 | r
    for (u32 b = low + 1; b < 16; ++b) {
      const u64 r = sm.next();
      w = (ones_q16_ >> b) & 1 ? w | r : w & r;
    }
    cells[i] = w;
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
