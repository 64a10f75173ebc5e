#include "tw/core/hw_executor.hpp"

#include <memory>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/env.hpp"
#include "tw/core/write_driver.hpp"
#include "tw/trace/emit.hpp"

namespace tw::core {
namespace {

/// TW_VERIFY-mode internal observer: records which pass drove each cell
/// of one line write and fails if both FSMs ever touch the same cell
/// (they own disjoint bit sets by construction of the PROG-enable gating;
/// this proves it on the real pulse stream).
class ExclusivityCheck final : public PulseObserver {
 public:
  ExclusivityCheck(u64 base_bit, u64 span, PulseObserver* chained)
      : base_(base_bit), seen_(span, 0), chained_(chained) {}

  void on_pulse(u64 bit, WritePass pass, pcm::ProgramResult r) override {
    TW_ASSERT(bit >= base_ && bit - base_ < seen_.size());
    const u8 flag = pass == WritePass::kSet ? 1u : 2u;
    u8& cell = seen_[bit - base_];
    TW_ASSERT((cell & ~flag) == 0);  // both FSMs drove one cell
    cell |= flag;
    if (chained_) chained_->on_pulse(bit, pass, r);
  }

 private:
  u64 base_;
  std::vector<u8> seen_;
  PulseObserver* chained_;
};

}  // namespace

pcm::LineImage HwExecutor::snapshot(const pcm::PcmArray& array,
                                    u64 base_bit) const {
  const auto& g = scheme_.config().geometry;
  const u32 units = g.units_per_line();
  const u32 bits = g.data_unit_bits;
  pcm::LineImage image(units);
  pcm::LineBuf line = image.view();
  for (u32 u = 0; u < units; ++u) {
    const u64 base = base_bit + static_cast<u64>(u) * (bits + 1);
    line.set_cell(u, array.read_word(base, bits));
    line.set_flip(u, array.read(base + bits));
  }
  return image;
}

pcm::LogicalLine HwExecutor::read_line(const pcm::PcmArray& array,
                                       u64 base_bit) const {
  return pcm::LogicalLine::from_physical(snapshot(array, base_bit).view());
}

HwWriteResult HwExecutor::write_line(pcm::PcmArray& array, u64 base_bit,
                                     const pcm::LogicalLine& next) const {
  const auto& cfg = scheme_.config();
  const u32 bits = cfg.geometry.data_unit_bits;
  const u32 units = cfg.geometry.units_per_line();
  TW_EXPECTS(next.units() == units);
  TW_EXPECTS(base_bit + static_cast<u64>(units) * (bits + 1) <=
             array.size_bits());

  HwWriteResult result;

  // Verify hook layer: the installed observer sees every pulse; under
  // TW_VERIFY=1 an exclusivity checker is spliced in front of it.
  PulseObserver* observer = observer_;
  std::unique_ptr<ExclusivityCheck> exclusivity;
  if (verify_env_enabled()) {
    exclusivity = std::make_unique<ExclusivityCheck>(
        base_bit, static_cast<u64>(units) * (bits + 1), observer_);
    observer = exclusivity.get();
  }

  // Read stage: sense the array (the read buffer of Fig. 6).
  const pcm::LineImage sensed = snapshot(array, base_bit);
  const pcm::LineBuf before = sensed.view();
  result.analysis = scheme_.analyze(before, next);
  const auto& plans = result.analysis.read.plans;

  // Analysis verified, FSM schedule derived.
  verify_pack(result.analysis.read.counts, result.analysis.packer_cfg,
              result.analysis.pack);
  result.trace = execute_fsms(result.analysis.pack,
                              result.analysis.packer_cfg, cfg.timing);
  result.service_time = result.trace.schedule_length;
  if (trace::on<trace::Category::kFsm>()) {
    // One span covering the whole hardware-level line write, on the
    // enclosing context's track (the pulse spans above nest inside it).
    trace::emit_span(trace::Category::kFsm, trace::Op::kLineWrite,
                     trace::g_tls.track, trace::g_tls.base,
                     result.service_time, units);
  }

  // Drive the array in FSM event order: FSM1 events carry the SET pass of
  // their data unit, FSM0 events the RESET pass. Tag cells ride with
  // whichever pass their transition direction belongs to. Over-budget
  // items span several events (partial passes); the cells are driven on
  // the first one.
  std::vector<std::pair<bool, bool>> driven(units, {false, false});
  for (const auto& e : result.trace.events) {
    const u32 u = e.unit;
    TW_ASSERT(u < units);
    bool& done = e.fsm == 1 ? driven[u].first : driven[u].second;
    if (done) continue;
    done = true;
    const u64 base = base_bit + static_cast<u64>(u) * (bits + 1);
    const auto& plan = plans[u];
    const WritePass pass =
        e.fsm == 1 ? WritePass::kSet : WritePass::kReset;
    const BitTransitions t = drive_pass(array, base, before.cell(u),
                                        plan.new_cells, bits, pass,
                                        observer);
    result.pulses.sets += t.sets;
    result.pulses.resets += t.resets;
    if (plan.tag_changed && plan.tag_to_one == (pass == WritePass::kSet)) {
      const pcm::ProgramResult pr =
          array.program(base + bits, plan.tag_to_one);
      if (observer) observer->on_pulse(base + bits, pass, pr);
      if (plan.tag_to_one) {
        ++result.pulses.sets;
      } else {
        ++result.pulses.resets;
      }
    }
  }

  // Verify-and-retry: sense each unit back and re-drive cells a fault
  // hook failed, advancing the array's retry ordinal per pass (widened
  // pulses; the hook damps their failure probability). A cell's retry
  // pulse has the same direction as its failed pulse, so the exclusivity
  // invariant holds through the ladder.
  auto unit_target = [&](u32 u) {
    return plans[u].new_cells & low_mask(bits);
  };
  auto unit_tag_target = [&](u32 u) {
    return plans[u].tag_changed ? plans[u].tag_to_one : before.flip(u);
  };
  auto count_wrong = [&]() {
    u64 wrong = 0;
    for (u32 u = 0; u < units; ++u) {
      const u64 base = base_bit + static_cast<u64>(u) * (bits + 1);
      wrong += popcount((array.read_word(base, bits) ^ unit_target(u)) &
                        low_mask(bits));
      if (array.read(base + bits) != unit_tag_target(u)) ++wrong;
    }
    return wrong;
  };
  u64 wrong = count_wrong();
  while (wrong > 0 && result.retry_attempts < max_retries_) {
    ++result.retry_attempts;
    array.set_fault_attempt(result.retry_attempts);
    for (u32 u = 0; u < units; ++u) {
      const u64 base = base_bit + static_cast<u64>(u) * (bits + 1);
      const u64 target = unit_target(u);
      u64 diff = (array.read_word(base, bits) ^ target) & low_mask(bits);
      for (u32 i = 0; i < bits && diff != 0; ++i) {
        if (((diff >> i) & 1u) == 0) continue;
        const bool want = ((target >> i) & 1u) != 0;
        const WritePass pass = want ? WritePass::kSet : WritePass::kReset;
        const pcm::ProgramResult pr = array.program(base + i, want);
        if (observer) observer->on_pulse(base + i, pass, pr);
        if (pr == pcm::ProgramResult::kWornOut) continue;
        if (want) {
          ++result.retry_pulses.sets;
        } else {
          ++result.retry_pulses.resets;
        }
      }
      const bool tag_target = unit_tag_target(u);
      if (array.read(base + bits) != tag_target) {
        const WritePass pass =
            tag_target ? WritePass::kSet : WritePass::kReset;
        const pcm::ProgramResult pr =
            array.program(base + bits, tag_target);
        if (observer) observer->on_pulse(base + bits, pass, pr);
        if (pr != pcm::ProgramResult::kWornOut) {
          if (tag_target) {
            ++result.retry_pulses.sets;
          } else {
            ++result.retry_pulses.resets;
          }
        }
      }
    }
    wrong = count_wrong();
  }
  array.set_fault_attempt(0);
  result.failed_bits = wrong;

  // Post-conditions: the array now holds the requested logical data
  // (except cells the fault ladder exhausted, reported in failed_bits)
  // and the first-drive pulse count equals the read stage's transition
  // counts (failed pulses were still driven).
  if (result.failed_bits == 0) {
    for (u32 u = 0; u < units; ++u) {
      const u64 base = base_bit + static_cast<u64>(u) * (bits + 1);
      const u64 cells = array.read_word(base, bits);
      const bool tag = array.read(base + bits);
      const u64 logical = tag ? (~cells & low_mask(bits)) : cells;
      TW_ENSURES(logical == (next.word(u) & low_mask(bits)));
    }
  }
  const BitTransitions expected = result.analysis.read.total();
  TW_ENSURES(result.pulses.sets == expected.sets);
  TW_ENSURES(result.pulses.resets == expected.resets);
  return result;
}

}  // namespace tw::core
