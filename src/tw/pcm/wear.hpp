#pragma once
// Endurance/wear tracking: per-line bit-program counts. PCM cells endure
// ~10^8 programs; schemes that write fewer bits (DCW-family, Tetris) extend
// lifetime. Tracked sparsely by line address.

#include <vector>

#include "tw/common/bits.hpp"
#include "tw/common/flat_map.hpp"
#include "tw/common/types.hpp"

namespace tw::pcm {

/// Per-line wear statistics.
struct LineWear {
  u64 writes = 0;        ///< line write services
  u64 bits_programmed = 0;  ///< total SET+RESET bit operations
};

/// Aggregate wear summary.
struct WearSummary {
  u64 lines_touched = 0;
  u64 total_writes = 0;
  u64 total_bits = 0;
  u64 max_line_bits = 0;     ///< hottest line's programmed-bit count
  double avg_bits_per_write = 0.0;
};

/// Device lifetime projection from a wear summary.
struct LifetimeEstimate {
  double worst_cell_pulses_per_second = 0.0;
  double lifetime_seconds = 0.0;
  double lifetime_years = 0.0;
};

/// Project device lifetime: the hottest line's programmed bits, assumed
/// uniform within the line (DCW-family writes touch random changed bits),
/// give the worst cell's pulse rate; endurance / rate = lifetime.
inline LifetimeEstimate estimate_lifetime(const WearSummary& wear,
                                          double sim_seconds,
                                          double cell_endurance = 1e8,
                                          u32 bits_per_line = 512) {
  LifetimeEstimate e;
  if (sim_seconds <= 0.0 || wear.max_line_bits == 0 || bits_per_line == 0) {
    return e;
  }
  e.worst_cell_pulses_per_second =
      static_cast<double>(wear.max_line_bits) /
      static_cast<double>(bits_per_line) / sim_seconds;
  e.lifetime_seconds = cell_endurance / e.worst_cell_pulses_per_second;
  e.lifetime_years = e.lifetime_seconds / (365.25 * 24 * 3600);
  return e;
}

/// Sparse wear tracker keyed by line address: a FlatIndexMap into a dense
/// per-line table (it sits on every controller write).
class WearTracker {
 public:
  /// Record a line write that programmed the given transitions.
  void record(Addr line_addr, const BitTransitions& t) {
    LineWear& w = entry(line_addr);
    w.writes += 1;
    w.bits_programmed += t.total();
  }

  /// Record extra pulses that did not constitute a new line write —
  /// fault-injection retry re-drives. Wear accrues (the pulses were
  /// driven) but the service count, and with it bits-per-write, does not.
  void record_retry(Addr line_addr, const BitTransitions& t) {
    entry(line_addr).bits_programmed += t.total();
  }

  /// Wear state of one line (zero-initialized if untouched).
  LineWear line(Addr line_addr) const {
    const u32 idx = index_.find(line_addr);
    return idx == FlatIndexMap::kNoIndex ? LineWear{} : lines_[idx];
  }

  WearSummary summary() const {
    WearSummary s;
    s.lines_touched = lines_.size();
    for (const LineWear& w : lines_) {
      s.total_writes += w.writes;
      s.total_bits += w.bits_programmed;
      if (w.bits_programmed > s.max_line_bits)
        s.max_line_bits = w.bits_programmed;
    }
    s.avg_bits_per_write =
        s.total_writes == 0
            ? 0.0
            : static_cast<double>(s.total_bits) /
                  static_cast<double>(s.total_writes);
    return s;
  }

  void reset() {
    index_ = FlatIndexMap{};
    lines_.clear();
  }

 private:
  LineWear& entry(Addr line_addr) {
    u32 idx = index_.find(line_addr);
    if (idx == FlatIndexMap::kNoIndex) {
      idx = static_cast<u32>(lines_.size());
      index_.insert(line_addr, idx);
      lines_.emplace_back();
    }
    return lines_[idx];
  }

  FlatIndexMap index_;
  std::vector<LineWear> lines_;  ///< indexed by index_
};

}  // namespace tw::pcm
