#pragma once
// Sparse physical content store for the PCM main memory.
//
// Holds the *physical* line state (cell words + flip tags) for every line
// ever touched. Untouched lines are materialized on first access with
// deterministic pseudo-random content derived from (seed, line address),
// so simulations are reproducible regardless of access order. The ones
// bias is rounded to 16 bits, q = round(p * 2^16), and each cell word is
// built from at most 16 SplitMix64 draws, one per bit of q from its lowest
// set bit up: unbiased content (q = 2^15) takes one draw per word, and
// biases 0 and 1 take none.
//
// Storage is a FlatIndexMap (open-addressing, no per-entry allocation)
// over an arena of line records (pcm::line_record_bytes each) in chunks
// of 512 lines: views returned by line() stay valid for the store's
// lifetime — growth adds chunks, it never moves existing records.

#include <memory>
#include <vector>

#include "tw/common/flat_map.hpp"
#include "tw/common/rng.hpp"
#include "tw/common/types.hpp"
#include "tw/pcm/line.hpp"

namespace tw::mem {

/// Sparse map from line address to physical line state.
class DataStore {
 public:
  /// `units_per_line`: data units per cache line; `seed` drives the
  /// deterministic first-touch content; `ones_bias` is the probability
  /// that a first-touch cell holds '1' (SET-dominant workloads start
  /// zero-rich, see WorkloadProfile::initial_ones_fraction); it must lie
  /// in [0, 1] and is rounded to a multiple of 2^-16.
  DataStore(u32 units_per_line, u64 seed, double ones_bias = 0.5);

  /// View of a line's physical state (materialized on first touch). The
  /// view stays valid for the lifetime of the store.
  pcm::LineBuf line(Addr line_addr);

  /// Read-only logical view of a line (materializes on first touch).
  /// Routed through the installed decoder when the write scheme stores a
  /// transformed image (content-encoder pre-stage); the default is the
  /// plain flip-tag inversion of LogicalLine::from_physical.
  pcm::LogicalLine read_logical(Addr line_addr) {
    const pcm::LineBuf l = line(line_addr);
    if (decoder_fn_ != nullptr) return decoder_fn_(decoder_ctx_, l);
    return pcm::LogicalLine::from_physical(l);
  }

  /// Install the logical-view decoder (the Controller wires the scheme's
  /// decode_stored here when the scheme transforms stored content). A raw
  /// context + function pair rather than std::function: read_logical sits
  /// on the generator/gap-move hot path and must stay alloc-free.
  using Decoder = pcm::LogicalLine (*)(const void* ctx, const pcm::LineBuf&);
  void set_decoder(const void* ctx, Decoder fn) {
    decoder_ctx_ = ctx;
    decoder_fn_ = fn;
  }

  /// True if the line has been materialized.
  bool touched(Addr line_addr) const {
    return index_.find(line_addr) != FlatIndexMap::kNoIndex;
  }

  std::size_t lines_touched() const { return index_.size(); }
  u32 units_per_line() const { return units_; }

 private:
  static constexpr u32 kChunkShift = 9;  ///< 512 lines per arena chunk
  static constexpr u32 kChunkLines = 1u << kChunkShift;
  static constexpr u32 kChunkMask = kChunkLines - 1;

  void materialize(Addr line_addr, u64* cells) const;
  std::byte* record(u32 slot) const {
    return chunks_[slot >> kChunkShift].get() + (slot & kChunkMask) * stride_;
  }

  u32 units_;
  u32 stride_;     ///< bytes per record: pcm::line_record_bytes(units_)
  u64 seed_;
  u32 ones_q16_;  ///< round(ones_bias * 2^16): P(cell is '1') in 2^-16 units
  const void* decoder_ctx_ = nullptr;
  Decoder decoder_fn_ = nullptr;
  FlatIndexMap index_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;  ///< kChunkLines each
  u32 arena_size_ = 0;  ///< lines stored across all chunks
};

}  // namespace tw::mem
