#pragma once
// OracleScheme: a deliberately simple, obviously-correct bit-serial
// reference model of a PCM cache-line write.
//
// Given a scheme's declared WriteSemantics (flip criterion + pulse
// policy), the oracle walks every cell of every data unit one bit at a
// time — no word-level XOR/popcount shortcuts, nothing shared with the
// production implementations — and produces the ground truth a write must
// satisfy: the exact post-write physical image, the per-unit SET/RESET
// pulse counts, and a latency/energy envelope that bounds any legal
// schedule (lower bounds no scheduler can beat, an upper bound from the
// fully-serial content-independent worst case). The DifferentialChecker
// (differential.hpp) runs production schemes side by side with this model.

#include <vector>

#include "tw/common/bits.hpp"
#include "tw/common/types.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/params.hpp"
#include "tw/schemes/write_scheme.hpp"

namespace tw::verify {

/// Ground truth for one data unit of a write.
struct OracleUnit {
  u64 expected_cells = 0;    ///< physical word after the write
  bool expected_flip = false;
  u32 set_pulses = 0;        ///< critical-path SET pulses (incl. tag)
  u32 reset_pulses = 0;      ///< critical-path RESET pulses (incl. tag)
  u32 background_sets = 0;   ///< PreSET background pulses (kResetOnly)
};

/// Ground truth for one full cache-line write.
struct OracleResult {
  pcm::LineImage expected;      ///< exact post-write physical image
  std::vector<OracleUnit> units;
  BitTransitions programmed;    ///< critical-path pulses (scheme must match)
  BitTransitions background;    ///< off-critical-path pulses (PreSET)
  u32 flipped_units = 0;
  bool silent = false;          ///< no critical-path pulses at all

  /// No schedule performing at least one SET (RESET) can finish before a
  /// full Tset (Treset) pulse width.
  Tick pulse_lower = 0;
  /// Power-area bound: total current x time of the critical pulses divided
  /// by the bank budget. Valid for schemes that pack measured demand
  /// (WriteSemantics::measured_timing); the paper's worst-case closed
  /// forms idealize concurrency to >= 1 unit/slot and may nominally dip
  /// below it in pathological all-change cases.
  Tick area_lower = 0;
  /// Content-independent fully-serial worst case: every unit takes its
  /// worst-case over-budget pass count for both pulse directions at full
  /// Tset width. Any scheme's write phase must fit under this.
  Tick serial_upper = 0;
  /// Minimal transition energy over all per-unit flip choices — no write
  /// that ends in the requested logical state can spend less.
  double energy_lower_pj = 0.0;
};

/// The bit-serial reference model. Stateless and side-effect free: `write`
/// only computes what a correct write *would* do.
class OracleScheme {
 public:
  OracleScheme(const pcm::PcmConfig& cfg, schemes::WriteSemantics sem);

  const schemes::WriteSemantics& semantics() const { return sem_; }
  const pcm::PcmConfig& config() const { return cfg_; }

  /// Compute the ground truth of writing `next` over `line`.
  OracleResult write(const pcm::LineBuf& line,
                     const pcm::LogicalLine& next) const;

 private:
  pcm::PcmConfig cfg_;
  schemes::WriteSemantics sem_;
};

}  // namespace tw::verify
