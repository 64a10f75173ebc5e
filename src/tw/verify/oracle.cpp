#include "tw/verify/oracle.hpp"

#include <algorithm>

#include "tw/common/assert.hpp"

namespace tw::verify {
namespace {

// Everything below is deliberately bit-serial: the oracle must share no
// word-level shortcut (XOR/popcount masks) with the production kernels it
// checks, so a bug in those kernels cannot cancel out here.

u32 count_ones_serial(u64 word, u32 bits) {
  u32 n = 0;
  for (u32 b = 0; b < bits; ++b) {
    if (get_bit(word, b)) ++n;
  }
  return n;
}

bool decide_flip(u64 old_cells, bool old_tag, u64 new_logical,
                 schemes::FlipCriterion crit, u32 bits) {
  switch (crit) {
    case schemes::FlipCriterion::kNone:
      return false;
    case schemes::FlipCriterion::kHamming: {
      // Cost of storing {D, tag=0} vs {~D, tag=1}, counting the tag cell.
      u32 cost_plain = old_tag ? 1u : 0u;
      u32 cost_flip = old_tag ? 0u : 1u;
      for (u32 b = 0; b < bits; ++b) {
        const bool o = get_bit(old_cells, b);
        if (get_bit(new_logical, b) != o) ++cost_plain;
        if (get_bit(new_logical, b) == o) ++cost_flip;
      }
      return cost_flip < cost_plain;
    }
    case schemes::FlipCriterion::kMinimizeSets:
      return count_ones_serial(new_logical, bits) * 2 > bits;
  }
  return false;
}

}  // namespace

OracleScheme::OracleScheme(const pcm::PcmConfig& cfg,
                           schemes::WriteSemantics sem)
    : cfg_(cfg), sem_(sem) {
  cfg_.validate();
}

OracleResult OracleScheme::write(const pcm::LineBuf& line,
                                 const pcm::LogicalLine& next) const {
  TW_EXPECTS(line.units() == next.units());
  const u32 bits = cfg_.geometry.data_unit_bits;
  const u32 units = line.units();
  const u32 l = cfg_.l();
  const u32 budget = cfg_.bank_power_budget();
  const double set_pj = cfg_.energy.set_pj;
  const double reset_pj = cfg_.energy.reset_pj;

  OracleResult r;
  r.expected = pcm::LineImage(units);
  pcm::LineBuf expected = r.expected.view();
  r.units.resize(units);

  for (u32 i = 0; i < units; ++i) {
    OracleUnit& u = r.units[i];
    const u64 old_cells = line.cell(i);
    const bool old_tag = line.flip(i);
    const u64 logical = next.word(i);

    if (sem_.pulses == schemes::PulsePolicy::kResetOnly) {
      // PreSET: the stored word is the plain (uninverted) logical data —
      // all 64 bits, mirroring LineBuf::store_logical — with the tag
      // returned to 0. Critical path RESETs every zero data bit plus the
      // tag; the background pass SETs every physical cell not already '1'.
      u64 word = 0;
      for (u32 b = 0; b < 64; ++b) {
        word = with_bit(word, b, get_bit(logical, b));
      }
      u.expected_cells = word;
      u.expected_flip = false;
      for (u32 b = 0; b < bits; ++b) {
        if (!get_bit(logical, b)) ++u.reset_pulses;
      }
      ++u.reset_pulses;  // tag cell driven to 0 unconditionally
      for (u32 b = 0; b < bits; ++b) {
        if (!get_bit(old_cells, b)) ++u.background_sets;
      }
      if (!old_tag) ++u.background_sets;
    } else {
      const bool flip =
          decide_flip(old_cells, old_tag, logical, sem_.flip, bits);
      u64 stored = 0;
      for (u32 b = 0; b < bits; ++b) {
        const bool bit = get_bit(logical, b);
        stored = with_bit(stored, b, flip ? !bit : bit);
      }
      u.expected_cells = stored;
      u.expected_flip = flip;
      if (flip) ++r.flipped_units;

      for (u32 b = 0; b < bits; ++b) {
        const bool o = get_bit(old_cells, b);
        const bool n = get_bit(stored, b);
        if (sem_.pulses == schemes::PulsePolicy::kAllCells) {
          // Every data cell is pulsed toward its stored value.
          if (n) {
            ++u.set_pulses;
          } else {
            ++u.reset_pulses;
          }
        } else {
          // Read-before-write: only changed cells are pulsed.
          if (!o && n) ++u.set_pulses;
          if (o && !n) ++u.reset_pulses;
        }
      }
      if (old_tag != flip) {
        if (flip) {
          ++u.set_pulses;
        } else {
          ++u.reset_pulses;
        }
      }
    }

    expected.set_cell(i, u.expected_cells);
    expected.set_flip(i, u.expected_flip);
    r.programmed.sets += u.set_pulses;
    r.programmed.resets += u.reset_pulses;
    r.background.sets += u.background_sets;
  }
  r.silent = r.programmed.total() == 0;

  // Latency envelope. Lower bounds: one full pulse of the slowest pulse
  // kind performed, and the power-area bound (total current x time of the
  // critical pulses cannot be squeezed through the bank budget faster).
  if (r.programmed.sets > 0) {
    r.pulse_lower = cfg_.timing.t_set;
  } else if (r.programmed.resets > 0) {
    r.pulse_lower = cfg_.timing.t_reset;
  }
  const u64 area = u64{r.programmed.sets} * cfg_.timing.t_set +
                   u64{r.programmed.resets} * l * cfg_.timing.t_reset;
  r.area_lower = ceil_div(area, budget);

  // Upper bound: fully serial worst case — every unit takes its maximal
  // over-budget pass count in both pulse directions, every pass charged a
  // full Tset. Content-independent, so it bounds worst-case-model schemes
  // (conventional, FNW's ceil(N/2) closed form) as well as measured ones.
  const u64 set_passes = ceil_div(bits + 1, budget);
  const u64 reset_passes = ceil_div(u64{bits + 1} * l, budget);
  r.serial_upper =
      u64{units} * (set_passes + reset_passes) * cfg_.timing.t_set;

  // Energy floor: for each unit, the cheaper of the two flip choices'
  // changed-cell transition energy. No scheme that ends in the requested
  // logical state can program fewer transitions than the better choice.
  for (u32 i = 0; i < units; ++i) {
    const u64 old_cells = line.cell(i);
    const bool old_tag = line.flip(i);
    const u64 logical = next.word(i);
    double best = 0.0;
    for (int f = 0; f < 2; ++f) {
      const bool flip = f != 0;
      double e = 0.0;
      for (u32 b = 0; b < bits; ++b) {
        const bool o = get_bit(old_cells, b);
        const bool n = flip ? !get_bit(logical, b) : get_bit(logical, b);
        if (n != o) e += n ? set_pj : reset_pj;
      }
      if (old_tag != flip) e += flip ? set_pj : reset_pj;
      if (f == 0 || e < best) best = e;
    }
    r.energy_lower_pj += best;
  }
  return r;
}

}  // namespace tw::verify
