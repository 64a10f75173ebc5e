#pragma once
// Cache-line values. LineBuf is the physical state stored in the PCM
// array: per-data-unit cell words plus the Flip-N-Write flip tag; a 64 B
// line of 64-bit units (the paper's geometry) is stored inline, wider
// lines (max 32 units = 256 B) keep their units in one heap block sized
// to the line. LogicalLine is the de-inverted value a request carries:
// one inline array of kMaxUnitsPerLine words, of which construction and
// copies touch only the used ones (a fixed 64 B block up to 8 units,
// nothing for a read's empty payload).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "tw/common/assert.hpp"
#include "tw/common/bits.hpp"
#include "tw/common/types.hpp"

namespace tw::pcm {

/// Maximum data units per cache line (256 B / 64-bit).
inline constexpr u32 kMaxUnitsPerLine = 32;

/// Data units a LineBuf holds without a heap block. The content store
/// keeps one LineBuf per touched line, so this sets its per-line footprint:
/// 96 B, against 328 B when every line reserved kMaxUnitsPerLine units.
/// A wider line adds a heap block of 10 B per unit (160 B at 128 B lines,
/// 320 B at 256 B lines, plus the allocator's header).
inline constexpr u32 kInlineUnitsPerLine = 8;

/// Physical line content: `units` 64-bit cell words + one flip bit each.
/// The *logical* value of unit i is `flip[i] ? ~cells[i] : cells[i]`.
class LineBuf {
 public:
  LineBuf() = default;

  /// A line of `units` data units, cells zeroed, flags clear.
  explicit LineBuf(u32 units) : units_(units) {
    TW_EXPECTS(units >= 1 && units <= kMaxUnitsPerLine);
    if (units > kInlineUnitsPerLine) {
      wide_ = std::make_unique<std::byte[]>(units * kUnitBytes);
    }
  }

  LineBuf(const LineBuf& o) : inline_(o.inline_), units_(o.units_) {
    if (o.wide_) {
      wide_ = std::make_unique_for_overwrite<std::byte[]>(units_ * kUnitBytes);
      std::memcpy(wide_.get(), o.wide_.get(), units_ * kUnitBytes);
    }
  }
  LineBuf& operator=(const LineBuf& o) {
    if (this != &o) *this = LineBuf(o);
    return *this;
  }
  // A moved-from line is empty (0 units), never a wide line without its
  // block.
  LineBuf(LineBuf&& o) noexcept
      : inline_(o.inline_),
        wide_(std::move(o.wide_)),
        units_(std::exchange(o.units_, 0)) {}
  LineBuf& operator=(LineBuf&& o) noexcept {
    inline_ = o.inline_;
    wide_ = std::move(o.wide_);
    units_ = std::exchange(o.units_, 0);
    return *this;
  }
  ~LineBuf() = default;

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
  std::span<const u8> meta_tags() const { return {metas(), units_}; }

  std::span<const u64> cell_words() const { return {cells(), units_}; }

  /// Raw per-unit flip tags (unchecked; the bounds are units()). The
  /// write-path loops read cells/flips through these spans instead of the
  /// contract-checked per-element accessors.
  std::span<const bool> flip_bits() const { return {flips(), units_}; }

  bool operator==(const LineBuf& o) const {
    return units_ == o.units_ &&
           std::memcmp(bytes(), o.bytes(), units_ * kUnitBytes) == 0;
  }

 private:
  // Storage of `units_` units: their 8 B cell words, then their 1 B flip
  // tags, then their 1 B encoder tags.
  static constexpr u32 kUnitBytes = 10;

  const std::byte* bytes() const {
    return wide_ ? wide_.get() : inline_.data();
  }
  const u64* cells() const { return reinterpret_cast<const u64*>(bytes()); }
  const bool* flips() const {
    return reinterpret_cast<const bool*>(bytes() + 8 * units_);
  }
  const u8* metas() const {
    return reinterpret_cast<const u8*>(bytes() + 9 * units_);
  }
  u64* cells() { return const_cast<u64*>(std::as_const(*this).cells()); }
  bool* flips() { return const_cast<bool*>(std::as_const(*this).flips()); }
  u8* metas() { return const_cast<u8*>(std::as_const(*this).metas()); }

  alignas(u64) std::array<std::byte, kInlineUnitsPerLine * kUnitBytes>
      inline_{};
  std::unique_ptr<std::byte[]> wide_;  ///< null while the units fit inline
  u32 units_ = 0;
};

static_assert(sizeof(LineBuf) <= 96);

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
