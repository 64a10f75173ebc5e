#include "tw/verify/invariant_monitor.hpp"

#include <algorithm>
#include <vector>

#include "tw/common/assert.hpp"

namespace tw::verify {
namespace {

std::string slot_str(const char* what, u64 idx) {
  return std::string(what) + " " + std::to_string(idx);
}

}  // namespace

InvariantMonitor::InvariantMonitor(core::PackerConfig cfg,
                                   pcm::TimingParams timing)
    : cfg_(cfg), timing_(timing) {
  TW_EXPECTS(cfg_.valid());
  TW_EXPECTS(timing_.valid());
}

void InvariantMonitor::fail(const std::string& what) const {
  throw VerifyError("invariant violated: " + what);
}

void InvariantMonitor::check_schedule(
    std::span<const core::UnitCounts> counts,
    const core::PackResult& pack) {
  check_schedule(counts, pack, cfg_);
}

void InvariantMonitor::check_schedule(
    std::span<const core::UnitCounts> counts, const core::PackResult& pack,
    const core::PackerConfig& cfg) {
  const u32 k = cfg.k;
  const u32 l = cfg.l;
  const u32 budget = cfg.budget;
  const u64 slots = u64{pack.result} * k + pack.subresult;

  std::unordered_map<u32, core::UnitCounts> by_unit;
  for (const auto& c : counts) {
    if (!by_unit.emplace(c.unit, c).second) {
      fail(slot_str("duplicate data unit", c.unit) + " in counts");
    }
  }

  // Rebuild per-sub-slot power from the raw queues, counting how often
  // each unit was scheduled per phase.
  std::vector<u64> power(slots, 0);
  std::unordered_map<u32, u32> seen1, seen0;
  for (const auto& w : pack.write1_queue) {
    const auto it = by_unit.find(w.unit);
    if (it == by_unit.end()) {
      fail(slot_str("write-1 for unknown unit", w.unit));
    }
    if (w.current != it->second.n1) {
      fail(slot_str("unit", w.unit) + " write-1 current " +
           std::to_string(w.current) + " != n1 " +
           std::to_string(it->second.n1));
    }
    ++seen1[w.unit];
    for (u32 p = 0; p < w.passes; ++p) {
      const u64 wu = u64{w.write_unit} + p;
      const u64 remaining =
          w.current - std::min<u64>(w.current, u64{budget} * p);
      const u64 draw = std::min<u64>(remaining, budget);
      if ((wu + 1) * k > slots) {
        fail(slot_str("write-1 in write unit", wu) +
             " outside the schedule");
      }
      // A write-1 spans all K sub-slots of its write unit.
      for (u32 s = 0; s < k; ++s) power[wu * k + s] += draw;
    }
  }
  for (const auto& w : pack.write0_queue) {
    const auto it = by_unit.find(w.unit);
    if (it == by_unit.end()) {
      fail(slot_str("write-0 for unknown unit", w.unit));
    }
    if (w.current != it->second.n0 * l) {
      fail(slot_str("unit", w.unit) + " write-0 current " +
           std::to_string(w.current) + " != n0*L " +
           std::to_string(it->second.n0 * l));
    }
    ++seen0[w.unit];
    for (u32 p = 0; p < w.passes; ++p) {
      const u64 s = u64{w.sub_slot} + p;
      const u64 remaining =
          w.current - std::min<u64>(w.current, u64{budget} * p);
      const u64 draw = std::min<u64>(remaining, budget);
      if (s >= slots) {
        fail(slot_str("write-0 in sub-slot", s) + " outside the schedule");
      }
      power[s] += draw;
      if (cfg.forbid_self_overlap && s < u64{pack.result} * k) {
        for (const auto& w1 : pack.write1_queue) {
          if (w1.unit == w.unit && s / k >= w1.write_unit &&
              s / k < u64{w1.write_unit} + w1.passes) {
            fail(slot_str("unit", w.unit) +
                 " write-0 overlaps its own write-1 (forbidden)");
          }
        }
      }
    }
  }

  // Every unit with demand scheduled exactly once per phase, none extra.
  for (const auto& [unit, c] : by_unit) {
    const u32 s1 = seen1.count(unit) ? seen1.at(unit) : 0;
    const u32 s0 = seen0.count(unit) ? seen0.at(unit) : 0;
    if ((c.n1 > 0) != (s1 == 1) || s1 > 1) {
      fail(slot_str("unit", unit) + " scheduled " + std::to_string(s1) +
           " times in the write-1 queue (n1=" + std::to_string(c.n1) +
           ")");
    }
    if ((c.n0 > 0) != (s0 == 1) || s0 > 1) {
      fail(slot_str("unit", unit) + " scheduled " + std::to_string(s0) +
           " times in the write-0 queue (n0=" + std::to_string(c.n0) +
           ")");
    }
  }

  // The budget invariant, on the independently rebuilt profile.
  for (u64 s = 0; s < slots; ++s) {
    if (power[s] > budget) {
      fail(slot_str("sub-slot", s) + " draws " + std::to_string(power[s]) +
           " current units, budget " + std::to_string(budget));
    }
  }

  // The production bookkeeping must agree with the rebuild.
  if (pack.slot_power.size() != slots) {
    fail("slot_power has " + std::to_string(pack.slot_power.size()) +
         " entries, schedule has " + std::to_string(slots) +
         " sub-slots");
  }
  for (u64 s = 0; s < slots; ++s) {
    if (pack.slot_power[s] != power[s]) {
      fail(slot_str("sub-slot", s) + " bookkeeping says " +
           std::to_string(pack.slot_power[s]) + ", rebuild says " +
           std::to_string(power[s]));
    }
  }
  ++stats_.schedules_checked;
}

void InvariantMonitor::check_trace(const core::FsmTrace& trace,
                                   const core::PackResult& pack) {
  const u32 k = cfg_.k;
  const u32 budget = cfg_.budget;
  const Tick t_set = timing_.t_set;
  const Tick t_reset = timing_.t_reset;
  const Tick sub = t_set / k;
  if (sub < t_reset) {
    fail("sub-write-unit (" + std::to_string(sub) +
         " ps) shorter than a RESET pulse (" + std::to_string(t_reset) +
         " ps)");
  }
  const u64 wu_slots = u64{pack.result} * k;
  const Tick schedule_end =
      pack.result * t_set + u64{pack.subresult} * sub;

  for (const auto& e : trace.events) {
    ++stats_.events_checked;
    if (e.current > budget) {
      fail(slot_str("event in slot", e.slot) + " alone draws " +
           std::to_string(e.current) + " > budget " +
           std::to_string(budget));
    }
    if (e.fsm == 1) {
      // Write-1: a full-Tset pulse aligned to its write-unit boundary.
      if (e.start != u64{e.slot} * t_set || e.end != e.start + t_set) {
        fail(slot_str("write-1 pulse in write unit", e.slot) +
             " misaligned: [" + std::to_string(e.start) + ", " +
             std::to_string(e.end) + ")");
      }
      if (e.slot >= pack.result) {
        fail(slot_str("write-1 in write unit", e.slot) +
             " beyond result=" + std::to_string(pack.result));
      }
    } else {
      // Write-0: a Treset pulse at its sub-slot boundary...
      const Tick start =
          e.slot < wu_slots
              ? (e.slot / k) * t_set + (e.slot % k) * sub
              : pack.result * t_set + (e.slot - wu_slots) * sub;
      if (e.start != start || e.end != e.start + t_reset) {
        fail(slot_str("write-0 pulse in sub-slot", e.slot) +
             " misaligned: [" + std::to_string(e.start) + ", " +
             std::to_string(e.end) + "), sub-slot starts at " +
             std::to_string(start));
      }
      if (e.slot < wu_slots) {
        // ...slotted into an interspace: it must fit entirely inside its
        // sub-slot window, hence inside the donor SET write unit.
        if (e.end > e.start + sub) {
          fail(slot_str("write-0 in sub-slot", e.slot) +
               " overruns its interspace window");
        }
        const Tick donor_end = (e.slot / k + 1) * t_set;
        if (e.end > donor_end) {
          fail(slot_str("write-0 in sub-slot", e.slot) +
               " overruns its donor write unit");
        }
      }
    }
    if (e.end > schedule_end) {
      fail(slot_str("event in slot", e.slot) + " ends at " +
           std::to_string(e.end) + ", schedule ends at " +
           std::to_string(schedule_end));
    }
  }

  // Instantaneous power: pulses are slot-aligned, so peaks occur at pulse
  // starts; sum every overlapping pulse at each start.
  for (const auto& e : trace.events) {
    u64 draw = 0;
    for (const auto& o : trace.events) {
      if (o.start <= e.start && e.start < o.end) draw += o.current;
    }
    if (draw > budget) {
      fail("instantaneous current " + std::to_string(draw) + " at tick " +
           std::to_string(e.start) + " exceeds budget " +
           std::to_string(budget));
    }
    stats_.peak_current =
        std::max(stats_.peak_current, static_cast<u32>(draw));
  }
  ++stats_.traces_checked;
}

void InvariantMonitor::begin_write() { driven_.clear(); }

void InvariantMonitor::on_pulse(u64 bit, core::WritePass pass,
                                pcm::ProgramResult /*result*/) {
  ++stats_.pulses_checked;
  const u8 flag = pass == core::WritePass::kSet ? 1u : 2u;
  u8& cell = driven_[bit];
  if ((cell & ~flag) != 0) {
    fail("cell " + std::to_string(bit) +
         " driven by both the SET and RESET FSMs in one write");
  }
  if ((cell & flag) != 0 && !allow_repulse_) {
    fail("cell " + std::to_string(bit) +
         " driven twice by the same FSM pass in one write");
  }
  cell |= flag;
}

void InvariantMonitor::check_palp_admission(const pcm::ChargePump& pump,
                                            u32 write_ways,
                                            u32 rww_allowance) {
  ++stats_.palp_checks;
  const std::string err = pump.admission_error(write_ways, rww_allowance);
  if (!err.empty()) fail("PALP: " + err);
}

sim::Simulator::Observer InvariantMonitor::sim_hook() {
  return [this](Tick now, u64 /*executed*/) {
    ++stats_.sim_events_seen;
    if (sim_seen_ && now < last_sim_tick_) {
      fail("simulator clock ran backwards: " + std::to_string(now) +
           " after " + std::to_string(last_sim_tick_));
    }
    sim_seen_ = true;
    last_sim_tick_ = now;
  };
}

}  // namespace tw::verify
