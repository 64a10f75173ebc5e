#pragma once
// InvariantMonitor: an independent re-checker of the hardware-level
// invariants the core pipeline claims to maintain. Where verify_pack and
// execute_fsms self-check production state with production bookkeeping,
// the monitor rebuilds everything from raw inputs and cross-checks:
//
//   check_schedule  - recomputes per-sub-slot power from the raw FSM
//                     queues (Creset = L x Cset weighting) and fails if
//                     any instant exceeds the bank budget, if a unit is
//                     scheduled zero or multiple times, or if the
//                     production slot_power bookkeeping disagrees.
//   check_trace     - checks every executed FSM event: write-1 pulses
//                     aligned to write-unit boundaries with length Tset;
//                     every RESET slotted into an interspace fits entirely
//                     inside its sub-slot window and its donor SET write
//                     unit; instantaneous current at every pulse start
//                     within budget.
//   on_pulse        - as a core::PulseObserver on HwExecutor, fails if
//                     the SET and RESET FSMs ever drive the same cell
//                     within one line write (call begin_write() per line).
//   sim_hook        - a sim::Simulator observer asserting the event clock
//                     never runs backwards.
//
// All violations throw VerifyError.

#include <span>
#include <string>
#include <unordered_map>

#include "tw/core/fsm.hpp"
#include "tw/core/packer.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/core/write_driver.hpp"
#include "tw/pcm/pump.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/verify/error.hpp"

namespace tw::verify {

/// Counters of what a monitor instance has examined.
struct MonitorStats {
  u64 schedules_checked = 0;
  u64 traces_checked = 0;
  u64 events_checked = 0;
  u64 pulses_checked = 0;
  u64 sim_events_seen = 0;
  u64 palp_checks = 0;   ///< pump admission states examined
  u32 peak_current = 0;  ///< max instantaneous current seen in any trace
};

class InvariantMonitor final : public core::PulseObserver {
 public:
  InvariantMonitor(core::PackerConfig cfg, pcm::TimingParams timing);

  /// Re-derive the power profile of `pack` from its raw queues and the
  /// read-stage counts; fail on any budget/consistency violation.
  void check_schedule(std::span<const core::UnitCounts> counts,
                      const core::PackResult& pack);

  /// Same check against an explicit packer config — the budget a schedule
  /// must honor is the one it was planned under, which during a
  /// charge-pump brown-out window is smaller than the monitor's nominal
  /// config (fault-injection tests verify budget-legality *through*
  /// brown-outs with this overload).
  void check_schedule(std::span<const core::UnitCounts> counts,
                      const core::PackResult& pack,
                      const core::PackerConfig& cfg);

  /// Relax the "same cell driven twice by one FSM pass" failure: the
  /// fault-injection verify-and-retry ladder legitimately re-drives a
  /// failed cell with the *same* pass. Cross-pass exclusivity (SET and
  /// RESET on one cell) stays a hard failure — that invariant must hold
  /// through retries too.
  void allow_same_pass_repulse(bool allow) { allow_repulse_ = allow; }

  /// Check an executed FSM trace for pulse alignment, interspace
  /// containment and instantaneous power.
  void check_trace(const core::FsmTrace& trace,
                   const core::PackResult& pack);

  /// PALP admission invariant (read-after-write-current limit): fail if
  /// the pump reports more concurrent partition writes than `write_ways`,
  /// more reads admitted against a loaded pump than `rww_allowance`, or
  /// a partition write drawing while an exclusive full-budget batch owns
  /// the pump. Call with the brown-out-shrunken allowances when checking
  /// inside a brown-out window. The cap check itself is
  /// pcm::ChargePump::admission_error, which the controller also runs
  /// after every admission under TW_VERIFY=1.
  void check_palp_admission(const pcm::ChargePump& pump, u32 write_ways,
                            u32 rww_allowance);

  /// Reset the per-line cell ledger; call before each monitored write.
  void begin_write();

  /// core::PulseObserver: record and cross-check one driven cell pulse.
  void on_pulse(u64 bit, core::WritePass pass,
                pcm::ProgramResult result) override;

  /// Simulator observer enforcing clock monotonicity.
  sim::Simulator::Observer sim_hook();

  const MonitorStats& stats() const { return stats_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  core::PackerConfig cfg_;
  pcm::TimingParams timing_;
  MonitorStats stats_;
  std::unordered_map<u64, u8> driven_;  ///< cell -> pass flags, one write
  Tick last_sim_tick_ = 0;
  bool sim_seen_ = false;
  bool allow_repulse_ = false;
};

}  // namespace tw::verify
