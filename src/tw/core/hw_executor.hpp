#pragma once
// Hardware-level executor: runs a complete Tetris Write — read stage,
// analysis stage, FSM schedule, gated write driver — against a real
// PcmArray, cell by cell and pulse by pulse. This is the proof that the
// three stages compose: after execution the array holds exactly the
// requested logical data, every pulse respected the power budget and the
// FSM timing, and the pulse count equals the read stage's transition
// counts.
//
// The full-system simulator uses the faster line-record bookkeeping; this
// executor backs it with a bit-accurate reference (tests cross-check the
// two) and powers the wear/endurance studies.

#include "tw/core/fsm.hpp"
#include "tw/core/tetris_scheme.hpp"
#include "tw/core/write_driver.hpp"
#include "tw/pcm/array.hpp"

namespace tw::core {

/// Result of one hardware-level line write.
struct HwWriteResult {
  TetrisAnalysis analysis;   ///< read + packing stages
  FsmTrace trace;            ///< executed FSM schedule
  BitTransitions pulses;     ///< first-drive cell pulses (== planned count)
  Tick service_time = 0;     ///< Eq. 5 write-phase length
  u32 retry_attempts = 0;    ///< verify-and-retry passes run
  BitTransitions retry_pulses;  ///< extra pulses driven by retry passes
  u64 failed_bits = 0;       ///< cells still wrong after the last retry
};

/// Layout: each data unit occupies (unit_bits + 1) cells in the array —
/// unit_bits data cells followed by its flip-tag cell.
class HwExecutor {
 public:
  /// `array` must hold at least units_per_line * (unit_bits + 1) cells
  /// starting at base_bit for each line written.
  explicit HwExecutor(const TetrisScheme& scheme) : scheme_(scheme) {}

  /// Install (or clear) a pulse observer forwarded to every write-driver
  /// pass and tag-cell program — the verify subsystem's hook point.
  /// Independent of the observer, TW_VERIFY=1 arms an internal check
  /// that no cell is driven by both FSM passes within one line write.
  void set_pulse_observer(PulseObserver* observer) {
    observer_ = observer;
  }

  /// Arm the verify-and-retry path: after driving the FSM schedule the
  /// executor senses each unit back, and cells that missed their target
  /// (a fault hook on the array failed their pulse) are re-driven for up
  /// to `max_retries` extra passes. The array's fault-attempt ordinal is
  /// advanced per pass so the hook can damp widened retry pulses. 0 (the
  /// default) keeps today's strict single-pass behavior; cells that are
  /// still wrong after the last retry are reported in failed_bits instead
  /// of tripping the post-conditions.
  void set_max_retries(u32 max_retries) { max_retries_ = max_retries; }

  /// Read the current logical line content from the array.
  pcm::LogicalLine read_line(const pcm::PcmArray& array,
                             u64 base_bit) const;

  /// Execute a full Tetris line write of `next` at `base_bit`.
  /// Throws ContractViolation if any invariant breaks (budget, timing,
  /// final content).
  HwWriteResult write_line(pcm::PcmArray& array, u64 base_bit,
                           const pcm::LogicalLine& next) const;

 private:
  pcm::LineImage snapshot(const pcm::PcmArray& array, u64 base_bit) const;

  const TetrisScheme& scheme_;
  PulseObserver* observer_ = nullptr;
  u32 max_retries_ = 0;
};

}  // namespace tw::core
