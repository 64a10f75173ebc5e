#pragma once
// Cache-line values. A stored line is one record of 10 B per data unit:
// its 64-bit cell words, then its Flip-N-Write flip tags, then its
// content-encoder tags, padded to a multiple of 8 B (line_record_bytes).
// LineBuf is a view of such a record; the DataStore's arena holds the
// simulator's records, and a LineImage holds one owning copy (snapshots,
// tests). LogicalLine is the de-inverted value a request carries: one
// inline array of kMaxUnitsPerLine words, of which construction and
// copies touch only the used ones (a fixed 64 B block up to 8 units,
// nothing for a read's empty payload).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <span>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"

namespace tw::pcm {

/// Maximum data units per cache line (256 B / 64-bit).
inline constexpr u32 kMaxUnitsPerLine = 32;

/// Data units of the paper's 64 B line: LogicalLine copies this many
/// words as one fixed block.
inline constexpr u32 kInlineUnitsPerLine = 8;

/// Bytes of one stored line's record: 10 B per unit, padded to 8 B so
/// every record's cell words stay aligned in an arena of records.
constexpr u32 line_record_bytes(u32 units) { return (units * 10 + 7) / 8 * 8; }

/// View of one stored line's record: `units` 64-bit cell words, one flip
/// tag and one encoder tag each. The *logical* value of unit i is
/// `flip[i] ? ~cells[i] : cells[i]`. A copy views the same record; an
/// owning copy is a LineImage.
class LineBuf {
 public:
  LineBuf() = default;  ///< an empty view (0 units)

  /// View of the 8 B aligned record at `record`, line_record_bytes(units)
  /// long; its owner (DataStore, LineImage) checked `units`.
  LineBuf(std::byte* record, u32 units) : bytes_(record), units_(units) {}

  u32 units() const { return units_; }

  u64 cell(u32 i) const {
    TW_EXPECTS(i < units_);
    return cells()[i];
  }
  void set_cell(u32 i, u64 v) {
    TW_EXPECTS(i < units_);
    cells()[i] = v;
  }

  bool flip(u32 i) const {
    TW_EXPECTS(i < units_);
    return flips()[i];
  }
  void set_flip(u32 i, bool f) {
    TW_EXPECTS(i < units_);
    flips()[i] = f;
  }

  /// Logical (post-inversion) value of unit i.
  u64 logical(u32 i) const {
    TW_EXPECTS(i < units_);
    return flips()[i] ? ~cells()[i] : cells()[i];
  }

  /// Write the logical value of unit i given an explicit flip decision.
  void store_logical(u32 i, u64 logical_value, bool flipped) {
    TW_EXPECTS(i < units_);
    cells()[i] = flipped ? ~logical_value : logical_value;
    flips()[i] = flipped;
  }

  /// Per-unit content-encoder metadata tag (tw/encode/): which code the
  /// encoder stored this unit under. Always 0 when no encoder is
  /// configured — the tag cells physically exist next to the flip tag but
  /// carry at most Encoder::meta_bits() significant bits.
  u8 meta(u32 i) const {
    TW_EXPECTS(i < units_);
    return metas()[i];
  }
  void set_meta(u32 i, u8 m) {
    TW_EXPECTS(i < units_);
    metas()[i] = m;
  }

  std::span<const u64> cell_words() const { return {cells(), units_}; }

  /// Raw per-unit flip tags (unchecked; the bounds are units()). The
  /// write-path loops read cells/flips through these spans instead of the
  /// contract-checked per-element accessors.
  std::span<const bool> flip_bits() const { return {flips(), units_}; }

  /// Same units and the same cells and tags (not the same record).
  bool operator==(const LineBuf& o) const {
    return units_ == o.units_ &&
           std::memcmp(bytes_, o.bytes_, units_ * std::size_t{10}) == 0;
  }

 private:
  u64* cells() const { return reinterpret_cast<u64*>(bytes_); }
  bool* flips() const { return reinterpret_cast<bool*>(bytes_ + 8 * units_); }
  u8* metas() const { return reinterpret_cast<u8*>(bytes_ + 9 * units_); }

  std::byte* bytes_ = nullptr;
  u32 units_ = 0;
};

/// An owning copy of one stored line, in one inline record sized for
/// kMaxUnitsPerLine units. Reads and writes go through view(), which
/// never outlives the image. Record bytes past the units' are always 0.
class LineImage {
 public:
  LineImage() = default;  ///< an empty image (0 units)

  /// A line of `units` data units, cells zeroed, tags clear.
  explicit LineImage(u32 units) : units_(units) {
    TW_EXPECTS(units >= 1 && units <= kMaxUnitsPerLine);
  }

  /// A copy of the line `line` views.
  explicit LineImage(const LineBuf& line) : LineImage(line.units()) {
    std::memcpy(record_.data(), line.cell_words().data(),
                line_record_bytes(units_));
  }

  /// A view of this image's record. Views are shallow: the view of a
  /// const image must only be read.
  LineBuf view() const {
    return {const_cast<std::byte*>(record_.data()), units_};
  }

  bool operator==(const LineImage&) const = default;

 private:
  u32 units_ = 0;
  alignas(u64) std::array<std::byte, line_record_bytes(kMaxUnitsPerLine)>
      record_{};
};

/// A logical (already de-inverted) line value, as the CPU sees it.
///
/// Every MemoryRequest carries one, and a request is copied about ten
/// times between the core and the bank, so construction and copies touch
/// only the words the line uses: an empty line (a read's payload) none,
/// a line of up to kInlineUnitsPerLine units (the paper's 64 B geometry)
/// one fixed 64 B block, a wider line units() words. units_ sits ahead of
/// the words, so a read's request stays within its first cache line.
///
/// Invariant: a line with units() >= 1 has determinate words
/// [0, max(units(), kInlineUnitsPerLine)). Construction zeroes them, and
/// every copy of such a line carries at least that many, so the fixed
/// block copy never reads an indeterminate word. Words past that bound,
/// and all words of an empty line, are never read.
class LogicalLine {
 public:
  // User-provided (not `= default`) so that value-initialization does
  // not zero the words.
  LogicalLine() {}  // NOLINT(modernize-use-equals-default)

  /// A line of `units` data units, every word zero.
  explicit LogicalLine(u32 units) : units_(units) {
    TW_EXPECTS(units >= 1 && units <= kMaxUnitsPerLine);
    std::memset(words_.data(), 0,
                std::max(units, kInlineUnitsPerLine) * sizeof(u64));
  }

  // Moves copy too: the words are inline, and a moved-from line keeps
  // its value.
  LogicalLine(const LogicalLine& o) : units_(o.units_) { copy_words(o); }
  LogicalLine& operator=(const LogicalLine& o) {
    if (this != &o) {
      units_ = o.units_;
      copy_words(o);
    }
    return *this;
  }

  /// Reconstruct the logical view of a physical line.
  static LogicalLine from_physical(const LineBuf& phys) {
    LogicalLine l(phys.units());
    for (u32 i = 0; i < phys.units(); ++i) l.words_[i] = phys.logical(i);
    return l;
  }

  u32 units() const { return units_; }
  u64 word(u32 i) const {
    TW_EXPECTS(i < units_);
    return words_[i];
  }
  void set_word(u32 i, u64 v) {
    TW_EXPECTS(i < units_);
    words_[i] = v;
  }
  std::span<const u64> words() const { return {words_.data(), units_}; }
  std::span<u64> words_mut() { return {words_.data(), units_}; }

  bool operator==(const LogicalLine& o) const {
    return units_ == o.units_ &&
           std::memcmp(words_.data(), o.words_.data(),
                       units_ * sizeof(u64)) == 0;
  }

 private:
  /// Copy the determinate words of the invariant (units_ is o's).
  void copy_words(const LogicalLine& o) {
    if (units_ == 0) return;
    if (units_ <= kInlineUnitsPerLine) {
      // A constant size the compiler inlines as a few vector moves.
      std::memcpy(words_.data(), o.words_.data(),
                  kInlineUnitsPerLine * sizeof(u64));
    } else {
      std::memcpy(words_.data(), o.words_.data(), units_ * sizeof(u64));
    }
  }

  u32 units_ = 0;
  std::array<u64, kMaxUnitsPerLine> words_;  ///< see the class invariant
};

}  // namespace tw::pcm
