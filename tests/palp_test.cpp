// Partition-level parallelism (PALP) tests: charge-pump occupancy
// legality, the controller's read-admission rules (reads overlap writes
// in other partitions up to the read-after-write-current cap), the
// pump-budget invariant under brown-out, and the partitions=1 /
// PALP-off degeneracy (bit-identical to the baseline controller).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/packer.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/controller.hpp"
#include "tw/pcm/array.hpp"
#include "tw/pcm/pump.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/verify/invariant_monitor.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

// -- Charge-pump occupancy legality ---------------------------------------

TEST(PalpPump, WriteAdmissionRespectsWays) {
  pcm::ChargePump pump;
  EXPECT_FALSE(pump.loaded());
  EXPECT_TRUE(pump.can_admit_write(2));

  pump.begin_write();
  EXPECT_TRUE(pump.loaded());
  EXPECT_EQ(pump.active_writes(), 1u);
  EXPECT_TRUE(pump.can_admit_write(2));
  EXPECT_FALSE(pump.can_admit_write(1));

  pump.begin_write();
  EXPECT_EQ(pump.active_writes(), 2u);
  EXPECT_FALSE(pump.can_admit_write(2));
  EXPECT_EQ(pump.overlapped_writes(), 1u);

  pump.end_write();
  EXPECT_TRUE(pump.can_admit_write(2));
  pump.end_write();
  EXPECT_FALSE(pump.loaded());
}

TEST(PalpPump, ReadAdmissionCapsWhileLoaded) {
  pcm::ChargePump pump;
  // Unloaded pump: reads are never capped (baseline subarray overlap).
  EXPECT_TRUE(pump.can_admit_read(0));

  pump.begin_write();
  EXPECT_TRUE(pump.can_admit_read(2));
  pump.begin_rww_read();
  EXPECT_TRUE(pump.can_admit_read(2));
  pump.begin_rww_read();
  EXPECT_FALSE(pump.can_admit_read(2));  // cap reached
  EXPECT_EQ(pump.overlapped_reads(), 2u);

  pump.end_rww_read();
  EXPECT_TRUE(pump.can_admit_read(2));
  pump.end_rww_read();
  pump.end_write();
  EXPECT_FALSE(pump.loaded());
}

TEST(PalpPump, ExclusiveOwnershipBlocksEverything) {
  pcm::ChargePump pump;
  EXPECT_TRUE(pump.can_admit_exclusive());
  pump.begin_exclusive();
  EXPECT_TRUE(pump.loaded());
  EXPECT_FALSE(pump.can_admit_write(8));
  EXPECT_FALSE(pump.can_admit_exclusive());
  // A loaded-by-exclusive pump still admits reads under a nonzero cap
  // (sense amps are per partition); a zero cap blocks them entirely.
  EXPECT_TRUE(pump.can_admit_read(1));
  EXPECT_FALSE(pump.can_admit_read(0));
  pump.end_exclusive();
  EXPECT_FALSE(pump.loaded());
  // A write in flight blocks exclusive acquisition.
  pump.begin_write();
  EXPECT_FALSE(pump.can_admit_exclusive());
  pump.end_write();
}

TEST(PalpPump, StallCounter) {
  pcm::ChargePump pump;
  pump.note_stall();
  pump.note_stall();
  EXPECT_EQ(pump.stalls(), 2u);
}

// -- Partition geometry on the array --------------------------------------

TEST(PalpArray, PartitionOfMapsBitsEvenly) {
  pcm::PcmArray arr(1024);
  EXPECT_EQ(arr.partitions(), 1u);
  arr.set_partitions(4);
  EXPECT_EQ(arr.partitions(), 4u);
  const u64 per = arr.size_bits() / 4;
  EXPECT_EQ(arr.partition_of(0), 0u);
  EXPECT_EQ(arr.partition_of(per - 1), 0u);
  EXPECT_EQ(arr.partition_of(per), 1u);
  EXPECT_EQ(arr.partition_of(arr.size_bits() - 1), 3u);
}

// -- Controller-level admission -------------------------------------------

constexpr u32 kSubarrays = 4;

struct Done {
  char kind;
  Addr addr;
  Tick complete;
};

struct Harness {
  sim::Simulator sim;
  stats::Registry reg;
  pcm::PcmConfig pcm_cfg;
  std::unique_ptr<schemes::WriteScheme> scheme;
  std::optional<mem::Controller> ctl;
  std::vector<Done> done;

  explicit Harness(mem::ControllerConfig ccfg,
                   const fault::FaultModel* fault = nullptr) {
    pcm_cfg = pcm::table2_config();
    pcm_cfg.geometry.subarrays_per_bank = kSubarrays;
    scheme = core::make_scheme(schemes::SchemeKind::kDcw, pcm_cfg);
    ctl.emplace(sim, pcm_cfg, ccfg, *scheme, reg, 1, 0.5, fault);
    ctl->set_read_callback([this](const mem::MemoryRequest& r) {
      done.push_back({'R', r.addr, r.complete_tick});
    });
    ctl->set_write_callback([this](const mem::MemoryRequest& r) {
      done.push_back({'W', r.addr, r.complete_tick});
    });
  }

  /// `skip`-th line address landing in (bank, bank-local subarray).
  Addr addr_for(u32 bank, u32 sub, u32 skip = 0) const {
    const mem::AddressMap map(pcm_cfg.geometry);
    for (Addr a = 0; a < Addr{1} << 24; a += map.line_bytes()) {
      if (map.flat_bank(a) == bank &&
          map.flat_subarray(a) == bank * kSubarrays + sub) {
        if (skip == 0) return a;
        --skip;
      }
    }
    ADD_FAILURE() << "no address for bank " << bank << " subarray " << sub;
    return 0;
  }

  Addr enqueue_write(Addr addr, u64 word) {
    mem::MemoryRequest req;
    req.addr = addr;
    req.type = mem::ReqType::kWrite;
    const u32 units = pcm_cfg.geometry.units_per_line();
    req.data = pcm::LogicalLine(units);
    for (u32 i = 0; i < units; ++i) req.data.set_word(i, word + i);
    EXPECT_TRUE(ctl->enqueue(std::move(req)));
    return addr;
  }

  Addr enqueue_read(Addr addr) {
    mem::MemoryRequest req;
    req.addr = addr;
    req.type = mem::ReqType::kRead;
    EXPECT_TRUE(ctl->enqueue(std::move(req)));
    return addr;
  }

  /// Completion tick of the only request of `kind` at `addr`.
  Tick complete_of(char kind, Addr addr) const {
    for (const Done& d : done) {
      if (d.kind == kind && d.addr == addr) return d.complete;
    }
    ADD_FAILURE() << "no completed " << kind << " at addr " << addr;
    return 0;
  }

  u64 counter(const char* name) { return reg.counter(name).value(); }
};

mem::ControllerConfig palp_config(bool enabled, u32 ways = 2, u32 rww = 2) {
  mem::ControllerConfig ccfg;
  // Strict drain would strand a lone queued write below the watermark;
  // these scenarios hand-place single requests, so issue them eagerly.
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.palp.enabled = enabled;
  ccfg.palp.write_ways = ways;
  ccfg.palp.max_rww_reads = rww;
  return ccfg;
}

TEST(PalpController, ReadsOverlapWriteUpToRwwCap) {
  Harness h(palp_config(true, 2, 2));
  ASSERT_TRUE(h.ctl->palp_active());

  // One long write in partition 0, then three reads in partitions 1-3
  // while it is in flight. The cap admits two concurrently; the third
  // stalls on the pump and retries when a read slot frees -- all three
  // still finish well before the multi-microsecond write.
  const Addr w = h.enqueue_write(h.addr_for(0, 0), 0xDEADBEEF12345678ull);
  h.sim.run(ns(100));
  std::vector<Addr> reads;
  for (u32 sub = 1; sub < 4; ++sub) {
    reads.push_back(h.enqueue_read(h.addr_for(0, sub)));
  }
  h.sim.run();

  EXPECT_TRUE(h.ctl->idle());
  EXPECT_EQ(h.counter("mem.palp_overlapped_reads"), 3u);
  EXPECT_GE(h.counter("mem.palp_pump_stalls"), 1u);
  const Tick write_done = h.complete_of('W', w);
  for (const Addr r : reads) {
    EXPECT_LT(h.complete_of('R', r), write_done)
        << "read at " << r << " failed to overlap the in-flight write";
  }
}

TEST(PalpController, SamePartitionReadWaitsForTheWrite) {
  Harness h(palp_config(true, 2, 2));
  // A read into the *written* partition has no sense amps to borrow: it
  // must wait for the partition, regardless of the pump's read cap.
  const Addr w = h.enqueue_write(h.addr_for(0, 0), 0x0123456789ABCDEFull);
  h.sim.run(ns(100));
  const Addr r = h.enqueue_read(h.addr_for(0, 0));
  h.sim.run();
  EXPECT_GT(h.complete_of('R', r), h.complete_of('W', w));
}

TEST(PalpController, WritesOverlapAcrossPartitions) {
  Harness h(palp_config(true, 2, 2));
  h.enqueue_write(h.addr_for(0, 0), 0x1111111111111111ull);
  h.enqueue_write(h.addr_for(0, 1), 0x2222222222222222ull);
  h.sim.run();
  EXPECT_TRUE(h.ctl->idle());
  EXPECT_EQ(h.counter("mem.writes"), 2u);
  EXPECT_GE(h.counter("mem.palp_write_overlaps"), 1u);
}

TEST(PalpController, SamePartitionWritesSerialize) {
  Harness h(palp_config(true, 2, 2));
  // Two writes to the same partition: the pump would admit both, the
  // partition occupancy must not.
  h.enqueue_write(h.addr_for(0, 2), 0x3333333333333333ull);
  h.enqueue_write(h.addr_for(0, 2, 1), 0x4444444444444444ull);
  h.sim.run();
  EXPECT_TRUE(h.ctl->idle());
  EXPECT_EQ(h.counter("mem.writes"), 2u);
}

TEST(PalpController, BrownoutShrinksWriteWays) {
  // A permanent 0.5x brown-out shrinks the 2-way write allowance to
  // max(1, 2*0.5=1) = 1: distinct-partition writes stop overlapping.
  fault::FaultConfig fcfg;
  fcfg.brownout_period = us(1000);
  fcfg.brownout_duration = us(1000);  // always inside the window
  fcfg.brownout_budget_factor = 0.5;
  const fault::FaultModel fault(fcfg, 64, 7);
  ASSERT_TRUE(fault.in_brownout(0));
  EXPECT_EQ(fault.palp_allowance(2, 0, 1), 1u);
  EXPECT_EQ(fault.palp_allowance(2, 0, 0), 1u);
  EXPECT_EQ(fault.palp_allowance(4, 0, 0), 2u);

  Harness h(palp_config(true, 2, 2), &fault);
  h.enqueue_write(h.addr_for(0, 0), 0x5555555555555555ull);
  h.enqueue_write(h.addr_for(0, 1), 0x6666666666666666ull);
  h.sim.run();
  EXPECT_TRUE(h.ctl->idle());
  EXPECT_EQ(h.counter("mem.writes"), 2u);
  EXPECT_EQ(h.counter("mem.palp_write_overlaps"), 0u);
  EXPECT_GT(h.counter("mem.brownout_writes"), 0u);
}

TEST(PalpController, SinglePartitionDegeneratesToBaseline) {
  // palp.enabled with one subarray per bank must be bit-identical to the
  // plain controller: same completion log, same stats, zero PALP counters.
  auto run = [](bool palp) {
    sim::Simulator sim;
    stats::Registry reg;
    pcm::PcmConfig pcm_cfg = pcm::table2_config();
    const auto scheme = core::make_scheme(schemes::SchemeKind::kTetris,
                                          pcm_cfg);
    mem::ControllerConfig ccfg = palp_config(palp);
    mem::Controller ctl(sim, pcm_cfg, ccfg, *scheme, reg);
    std::vector<Done> done;
    ctl.set_read_callback([&](const mem::MemoryRequest& r) {
      done.push_back({'R', r.addr, r.complete_tick});
    });
    ctl.set_write_callback([&](const mem::MemoryRequest& r) {
      done.push_back({'W', r.addr, r.complete_tick});
    });
    EXPECT_FALSE(ctl.palp_active());

    Rng rng(99);
    const u32 units = pcm_cfg.geometry.units_per_line();
    for (u32 i = 0; i < 400; ++i) {
      sim.run(sim.now() + rng.below(ns(80)));
      mem::MemoryRequest req;
      req.addr = rng.below(512) * 64;
      if (rng.chance(0.5)) {
        req.type = mem::ReqType::kWrite;
        req.data = pcm::LogicalLine(units);
        for (u32 u = 0; u < units; ++u) {
          req.data.set_word(u, rng.next() & 0xFF);
        }
      } else {
        req.type = mem::ReqType::kRead;
      }
      (void)ctl.enqueue(std::move(req));
    }
    sim.run();
    EXPECT_EQ(reg.counter("mem.palp_overlapped_reads").value(), 0u);
    EXPECT_EQ(reg.counter("mem.palp_pump_stalls").value(), 0u);
    struct Result {
      std::vector<Done> done;
      u64 events;
      double read_lat, write_lat;
    };
    return Result{std::move(done), sim.executed(),
                  reg.accumulator("mem.read_latency_ns").sum(),
                  reg.accumulator("mem.write_latency_ns").sum()};
  };

  const auto off = run(false);
  const auto on = run(true);
  EXPECT_GT(off.done.size(), 100u);
  ASSERT_EQ(off.done.size(), on.done.size());
  for (std::size_t i = 0; i < off.done.size(); ++i) {
    EXPECT_EQ(off.done[i].kind, on.done[i].kind);
    EXPECT_EQ(off.done[i].addr, on.done[i].addr);
    EXPECT_EQ(off.done[i].complete, on.done[i].complete);
  }
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.read_lat, on.read_lat);
  EXPECT_EQ(off.write_lat, on.write_lat);
}

TEST(PalpController, SpreadFirstGatherOnStuckBank) {
  // A stuck bank's traffic is served from the next healthy bank, and
  // batch gather there is spread-first like everywhere else: the batch
  // takes the oldest line plus the oldest line in a *different*
  // partition, skipping the older same-partition line.
  fault::FaultConfig fcfg;
  fcfg.stuck_bank = 1;
  const fault::FaultModel fault(fcfg, 64, 7);
  ASSERT_EQ(fault.remap_bank(1), 2u);
  mem::ControllerConfig ccfg = palp_config(true, 2, 2);
  ccfg.write_batch = 2;
  Harness h(ccfg, &fault);

  const Addr a = h.enqueue_write(h.addr_for(1, 0), 0x1111111111111111ull);
  const Addr b = h.enqueue_write(h.addr_for(1, 0, 1), 0x2222222222222222ull);
  const Addr c = h.enqueue_write(h.addr_for(1, 1), 0x3333333333333333ull);
  h.sim.run();

  EXPECT_TRUE(h.ctl->idle());
  EXPECT_EQ(h.counter("mem.stuck_remaps"), 3u);
  EXPECT_EQ(h.counter("mem.writes_batched"), 2u);
  const stats::Accumulator& spread = h.reg.accumulator("mem.palp_batch_spread");
  EXPECT_EQ(spread.count(), 1u);
  EXPECT_EQ(spread.max(), 2.0);
  EXPECT_EQ(h.complete_of('W', a), h.complete_of('W', c));
  EXPECT_GT(h.complete_of('W', b), h.complete_of('W', c));
}

TEST(PalpController, ConfigValidation) {
  mem::ControllerConfig ccfg = palp_config(true);
  EXPECT_TRUE(ccfg.valid());
  ccfg.palp.write_ways = 0;
  EXPECT_FALSE(ccfg.valid());
  ccfg.palp.write_ways = 2;
  ccfg.write_pausing = true;  // pausing's bank preemption assumes the
  EXPECT_FALSE(ccfg.valid()); // single-active-write invariant
  ccfg.palp.enabled = false;
  EXPECT_TRUE(ccfg.valid());
}

// -- Invariant monitor ----------------------------------------------------

TEST(PalpVerify, MonitorAcceptsLegalStates) {
  core::PackerConfig pcfg;
  pcfg.k = 8;
  pcfg.l = 2;
  pcfg.budget = 128;
  verify::InvariantMonitor mon(pcfg, pcm::table2_config().timing);

  pcm::ChargePump pump;
  mon.check_palp_admission(pump, 2, 2);  // idle pump
  pump.begin_write();
  pump.begin_rww_read();
  pump.begin_rww_read();
  mon.check_palp_admission(pump, 2, 2);  // at the caps, not over
  EXPECT_EQ(mon.stats().palp_checks, 2u);
  pump.end_rww_read();
  pump.end_rww_read();
  pump.end_write();
}

TEST(PalpVerify, MonitorFlagsOverCapStates) {
  core::PackerConfig pcfg;
  pcfg.k = 8;
  pcfg.l = 2;
  pcfg.budget = 128;
  verify::InvariantMonitor mon(pcfg, pcm::table2_config().timing);

  pcm::ChargePump writes;
  writes.begin_write();
  writes.begin_write();
  EXPECT_THROW(mon.check_palp_admission(writes, 1, 2), verify::VerifyError);

  pcm::ChargePump reads;
  reads.begin_write();
  reads.begin_rww_read();
  reads.begin_rww_read();
  EXPECT_THROW(mon.check_palp_admission(reads, 2, 1), verify::VerifyError);
  // The same rww count is legal once the pump unloads (reads outlive
  // their overlapped write).
  reads.end_write();
  mon.check_palp_admission(reads, 2, 1);
}

// -- Harness-level degeneracy ---------------------------------------------

TEST(PalpSystem, PalpOffMetricsUntouched) {
  // A full-system PALP-off run must report zero PALP metrics, and a
  // partitions=1 PALP-on run must match it exactly.
  harness::SystemConfig base;
  base.cores = 2;
  base.instructions_per_core = 30'000;
  base.seed = 11;
  harness::SystemConfig palp1 = base;
  palp1.controller.palp.enabled = true;  // subarrays_per_bank stays 1
  const auto& wl = workload::profile_by_name("vips");
  const auto a = harness::run_system(base, wl, schemes::SchemeKind::kTetris);
  const auto b = harness::run_system(palp1, wl, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(a.completed);
  EXPECT_GT(a.writes, 0u);
  EXPECT_EQ(a.palp_overlapped_reads, 0u);
  EXPECT_EQ(a.palp_pump_stalls, 0u);
  EXPECT_EQ(a.palp_write_overlaps, 0u);
  EXPECT_EQ(harness::differing_metrics(a, b), "");
}

TEST(PalpSystem, OverlapImprovesReadLatencyOnReadHeavyMix) {
  // The tentpole claim at test scale: 4 partitions + PALP beats the
  // 1-partition baseline on read latency for a read-heavy profile.
  harness::SystemConfig base;
  base.cores = 2;
  base.instructions_per_core = 60'000;
  base.seed = 3;
  harness::SystemConfig palp = base;
  palp.pcm.geometry.subarrays_per_bank = 4;
  palp.controller.palp.enabled = true;
  const auto& wl = workload::profile_by_name("canneal");
  const auto a = harness::run_system(base, wl, schemes::SchemeKind::kTetris);
  const auto b = harness::run_system(palp, wl, schemes::SchemeKind::kTetris);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_LT(b.read_latency_ns, a.read_latency_ns);
}

}  // namespace
}  // namespace tw
