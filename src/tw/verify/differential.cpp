#include "tw/verify/differential.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace tw::verify {
namespace {

std::string hex(u64 v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void DifferentialChecker::fail(const std::string& what) const {
  throw VerifyError(std::string(scheme_.name()) +
                    " diverged from oracle: " + what);
}

schemes::ServicePlan DifferentialChecker::check_write(
    pcm::LineBuf& line, const pcm::LogicalLine& next) {
  const auto& cfg = scheme_.config();
  const auto sem = scheme_.semantics();
  const u32 bits = cfg.geometry.data_unit_bits;
  const u64 mask = low_mask(bits);

  // Oracle first (it only reads); then the production write mutates line.
  const OracleResult truth = oracle_.write(line, next);
  const schemes::ServicePlan plan = scheme_.plan_write(line, next);

  // Post-write physical image: exact cell and tag equality per unit.
  const pcm::LineBuf expected = truth.expected.view();
  for (u32 i = 0; i < line.units(); ++i) {
    if (line.cell(i) != expected.cell(i)) {
      fail("unit " + std::to_string(i) + " cells " + hex(line.cell(i)) +
           ", oracle expects " + hex(expected.cell(i)));
    }
    if (line.flip(i) != expected.flip(i)) {
      fail("unit " + std::to_string(i) + " flip tag " +
           std::to_string(line.flip(i)) + ", oracle expects " +
           std::to_string(expected.flip(i)));
    }
    report_.cells_compared += bits + 1;
  }

  // Logical round-trip: reading the line back yields the requested data.
  const pcm::LogicalLine readback = pcm::LogicalLine::from_physical(line);
  for (u32 i = 0; i < line.units(); ++i) {
    if ((readback.word(i) & mask) != (next.word(i) & mask)) {
      fail("unit " + std::to_string(i) + " reads back " +
           hex(readback.word(i) & mask) + ", wrote " +
           hex(next.word(i) & mask));
    }
  }

  // Pulse accounting.
  if (plan.programmed != truth.programmed) {
    fail("programmed pulses {" + std::to_string(plan.programmed.sets) +
         " SET, " + std::to_string(plan.programmed.resets) +
         " RESET}, oracle expects {" +
         std::to_string(truth.programmed.sets) + " SET, " +
         std::to_string(truth.programmed.resets) + " RESET}");
  }
  if (plan.background != truth.background) {
    fail("background pulses {" + std::to_string(plan.background.sets) +
         " SET, " + std::to_string(plan.background.resets) +
         " RESET}, oracle expects {" +
         std::to_string(truth.background.sets) + " SET, " +
         std::to_string(truth.background.resets) + " RESET}");
  }
  if (plan.flipped_units != truth.flipped_units) {
    fail("flipped_units " + std::to_string(plan.flipped_units) +
         ", oracle expects " + std::to_string(truth.flipped_units));
  }
  if (plan.silent != truth.silent) {
    fail("silent=" + std::to_string(plan.silent) + ", oracle expects " +
         std::to_string(truth.silent));
  }

  // Latency envelope. Lower: a read (if performed) plus the oracle's
  // pulse floor, plus the power-area floor for schemes whose timing packs
  // measured current demand (worst-case closed forms idealize concurrency
  // and are exempt — see WriteSemantics::measured_timing).
  Tick floor = sem.measured_timing
                   ? std::max(truth.pulse_lower, truth.area_lower)
                   : truth.pulse_lower;
  if (plan.read_before_write) floor += cfg.timing.t_read;
  if (plan.latency < floor) {
    fail("latency " + std::to_string(plan.latency) +
         " ps below oracle lower bound " + std::to_string(floor) + " ps");
  }
  // Upper: read + analysis + the fully-serial worst case.
  const Tick ceiling =
      cfg.timing.t_read + plan.analysis_ticks + truth.serial_upper;
  if (plan.latency > ceiling) {
    fail("latency " + std::to_string(plan.latency) +
         " ps above fully-serial upper bound " + std::to_string(ceiling) +
         " ps");
  }

  // Energy floor: the pulses performed must cost at least the minimal
  // transition energy of the cheaper flip choice per unit.
  const double spent =
      (plan.programmed.sets + plan.background.sets) * cfg.energy.set_pj +
      (plan.programmed.resets + plan.background.resets) *
          cfg.energy.reset_pj;
  if (spent + 1e-6 < truth.energy_lower_pj) {
    fail("write energy " + std::to_string(spent) +
         " pJ below oracle floor " +
         std::to_string(truth.energy_lower_pj) + " pJ");
  }

  ++report_.writes;
  if (truth.silent) ++report_.silent_writes;
  report_.flipped_units += truth.flipped_units;
  report_.latency_total += plan.latency;
  return plan;
}

}  // namespace tw::verify
