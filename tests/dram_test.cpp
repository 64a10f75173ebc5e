// DRAM front tier: config validation, hit/miss/writeback/clean-evict
// accounting, LRU-vs-MAC policy divergence, MAC same-bank writeback
// grouping, miss-path backpressure, passthrough identity when disabled,
// and lockstep determinism with the tier enabled.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tw/harness/experiment.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/dram_tier.hpp"
#include "tw/pcm/params.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

pcm::GeometryParams geometry() {
  return pcm::GeometryParams{};  // Table II: 8 banks, 1 rank, 64 B lines
}

/// A tier config small enough to force evictions with a handful of lines.
mem::DramConfig tiny_config(u32 sets, u32 ways) {
  mem::DramConfig d;
  d.enabled = true;
  d.capacity_bytes = u64{sets} * ways * 64;  // one channel, 64 B lines
  d.ways = ways;
  return d;
}

mem::MemoryRequest make_write(u64 line_index, u32 units) {
  mem::MemoryRequest r;
  r.addr = line_index * 64;
  r.type = mem::ReqType::kWrite;
  r.core = 0;
  r.data = pcm::LogicalLine(units);
  for (u32 u = 0; u < units; ++u) r.data.set_word(u, line_index * 100 + u);
  return r;
}

mem::MemoryRequest make_read(u64 line_index) {
  mem::MemoryRequest r;
  r.addr = line_index * 64;
  r.type = mem::ReqType::kRead;
  r.core = 0;
  return r;
}

/// Everything a unit test needs to drive one DramTier directly: the tier,
/// its simulator/registry, and a vector capturing forwarded PCM requests.
struct TierRig {
  explicit TierRig(const mem::DramConfig& cfg)
      : map(geometry()), tier(sim, cfg, map, /*channel=*/0, reg) {
    tier.set_forward([this](mem::MemoryRequest& r) {
      if (refuse_forwards) return false;
      forwarded.push_back(std::move(r));
      return true;
    });
    tier.set_read_callback(
        [this](const mem::MemoryRequest& r) { reads_done.push_back(r.addr); });
    tier.set_write_callback(
        [this](const mem::MemoryRequest& r) { writes_done.push_back(r.addr); });
  }

  u64 hits() { return reg.counter("mem.dram_hits").value(); }
  u64 misses() { return reg.counter("mem.dram_misses").value(); }
  u64 writebacks() { return reg.counter("mem.dram_writebacks").value(); }
  u64 clean_evicts() { return reg.counter("mem.dram_clean_evicts").value(); }
  u64 group_cleans() { return reg.counter("mem.dram_group_cleans").value(); }

  sim::Simulator sim;
  stats::Registry reg;
  mem::AddressMap map;
  mem::DramTier tier;
  bool refuse_forwards = false;
  std::vector<mem::MemoryRequest> forwarded;
  std::vector<Addr> reads_done;
  std::vector<Addr> writes_done;
};

// ---------------------------------------------------- config validation --

TEST(DramConfig, DisabledConfigIsAlwaysValid) {
  mem::DramConfig d;
  d.ways = 0;  // nonsense, but the tier is off
  EXPECT_TRUE(d.error(geometry()).empty());
}

TEST(DramConfig, ZeroWaysRejected) {
  mem::DramConfig d;
  d.enabled = true;
  d.ways = 0;
  EXPECT_NE(d.error(geometry()).find("dram.ways"), std::string::npos);
}

TEST(DramConfig, NonPowerOfTwoSetCountGetsActionableError) {
  mem::DramConfig d = tiny_config(3, 1);  // 3 sets
  const std::string err = d.error(geometry());
  EXPECT_NE(err.find("power-of-two"), std::string::npos) << err;
}

TEST(DramConfig, CapacityTooSmallForOneSetRejected) {
  mem::DramConfig d;
  d.enabled = true;
  d.capacity_bytes = 64;  // one line, 8 ways
  const std::string err = d.error(geometry());
  EXPECT_NE(err.find("capacity"), std::string::npos) << err;
}

// --------------------------------------------------- hit/miss accounting --

TEST(DramTier, WriteAllocateMissThenHitsCompleteInDram) {
  TierRig rig(tiny_config(2, 2));
  const u32 units = geometry().units_per_line();
  ASSERT_EQ(rig.tier.sets(), 2u);

  // Write miss: write-allocate without fetch — nothing reaches PCM.
  ASSERT_TRUE(rig.tier.enqueue(make_write(0, units)));
  EXPECT_EQ(rig.misses(), 1u);
  EXPECT_EQ(rig.hits(), 0u);
  EXPECT_TRUE(rig.forwarded.empty());

  // Write hit, then read hit, on the same line.
  ASSERT_TRUE(rig.tier.enqueue(make_write(0, units)));
  ASSERT_TRUE(rig.tier.enqueue(make_read(0)));
  EXPECT_EQ(rig.hits(), 2u);
  EXPECT_EQ(rig.misses(), 1u);
  EXPECT_TRUE(rig.forwarded.empty());  // hits never touch the PCM path

  // The three absorbed requests complete through the tier's callbacks.
  rig.sim.run();
  EXPECT_TRUE(rig.tier.idle());
  EXPECT_EQ(rig.writes_done.size(), 2u);
  EXPECT_EQ(rig.reads_done.size(), 1u);
}

TEST(DramTier, DirtyEvictionWritesBackThenCleanEvictionIsFree) {
  TierRig rig(tiny_config(2, 2));
  const u32 units = geometry().units_per_line();

  // Set 0 holds even line indices; fill both ways dirty.
  ASSERT_TRUE(rig.tier.enqueue(make_write(0, units)));
  ASSERT_TRUE(rig.tier.enqueue(make_write(2, units)));
  EXPECT_EQ(rig.writebacks(), 0u);

  // Third distinct line in set 0: evicts LRU line 0, whose dirty data
  // must go back to PCM tagged as a tier writeback.
  ASSERT_TRUE(rig.tier.enqueue(make_write(4, units)));
  EXPECT_EQ(rig.writebacks(), 1u);
  ASSERT_EQ(rig.forwarded.size(), 1u);
  EXPECT_EQ(rig.forwarded[0].addr, 0u);
  EXPECT_TRUE(rig.forwarded[0].is_write());
  EXPECT_EQ(rig.forwarded[0].core, mem::DramTier::kWritebackCore);
  // The writeback carries the latest payload for the line.
  EXPECT_EQ(rig.forwarded[0].data.word(0), 0u * 100 + 0);

  // Read miss: evicts dirty line 2 (writeback), then forwards the demand
  // read BEHIND the writeback — strict FIFO.
  ASSERT_TRUE(rig.tier.enqueue(make_read(6)));
  ASSERT_EQ(rig.forwarded.size(), 3u);
  EXPECT_EQ(rig.forwarded[1].addr, 2u * 64);
  EXPECT_EQ(rig.forwarded[1].core, mem::DramTier::kWritebackCore);
  EXPECT_EQ(rig.forwarded[2].addr, 6u * 64);
  EXPECT_FALSE(rig.forwarded[2].is_write());
  EXPECT_EQ(rig.writebacks(), 2u);

  // Set 0 now holds {4 dirty, 6 clean}. Another read miss evicts LRU
  // line 4 (dirty, writeback); the one after that evicts clean line 6
  // for free.
  ASSERT_TRUE(rig.tier.enqueue(make_read(8)));
  EXPECT_EQ(rig.writebacks(), 3u);
  EXPECT_EQ(rig.clean_evicts(), 0u);
  ASSERT_TRUE(rig.tier.enqueue(make_read(10)));
  EXPECT_EQ(rig.writebacks(), 3u);
  EXPECT_EQ(rig.clean_evicts(), 1u);

  // PCM read completions route straight to the CPU read callback.
  rig.tier.on_pcm_read_complete(make_read(6));
  EXPECT_EQ(rig.reads_done.size(), 1u);
  EXPECT_EQ(rig.reads_done[0], 6u * 64);
  // Tier writeback completions are swallowed, demand completions are not.
  mem::MemoryRequest wb = make_write(0, units);
  wb.core = mem::DramTier::kWritebackCore;
  EXPECT_TRUE(rig.tier.absorbs_write_complete(wb));
  EXPECT_FALSE(rig.tier.absorbs_write_complete(make_write(0, units)));
}

TEST(DramTier, BackpressureRefusesWithoutStateChange) {
  mem::DramConfig d = tiny_config(2, 2);
  d.pending_limit = 1;
  TierRig rig(d);
  rig.refuse_forwards = true;  // PCM side has no credit

  // Allocate a line while the miss path is still empty.
  const u32 units = geometry().units_per_line();
  ASSERT_TRUE(rig.tier.enqueue(make_write(2, units)));
  EXPECT_EQ(rig.misses(), 1u);

  ASSERT_TRUE(rig.tier.enqueue(make_read(0)));  // pending: demand read
  EXPECT_FALSE(rig.tier.has_room());
  EXPECT_EQ(rig.misses(), 2u);

  // Any further miss — even a write, which could need a writeback slot —
  // must be refused before mutating tier state.
  EXPECT_FALSE(rig.tier.enqueue(make_read(1)));
  EXPECT_FALSE(rig.tier.enqueue(make_write(4, units)));
  EXPECT_EQ(rig.misses(), 2u);

  // Hits still complete while the miss path is backpressured.
  ASSERT_TRUE(rig.tier.enqueue(make_write(2, units)));
  EXPECT_EQ(rig.hits(), 1u);

  // Credit arrives: the pending read drains through the forward fn.
  rig.refuse_forwards = false;
  rig.tier.on_pcm_space();
  ASSERT_EQ(rig.forwarded.size(), 1u);
  EXPECT_EQ(rig.forwarded[0].addr, 0u);
  EXPECT_TRUE(rig.tier.has_room());
  ASSERT_TRUE(rig.tier.enqueue(make_read(1)));
  EXPECT_EQ(rig.misses(), 3u);
}

// ------------------------------------------------------ policy behavior --

TEST(DramPolicy, MacPrefersCleanVictimWhereLruWritesBack) {
  // One set of four ways: line 0 dirty (oldest), lines 1-3 clean.
  const u32 units = geometry().units_per_line();
  auto run_sequence = [&](mem::DramPolicy policy) {
    mem::DramConfig d = tiny_config(1, 4);
    d.policy = policy;
    auto rig = std::make_unique<TierRig>(d);
    EXPECT_TRUE(rig->tier.enqueue(make_write(0, units)));
    for (u64 li = 1; li <= 3; ++li) {
      EXPECT_TRUE(rig->tier.enqueue(make_read(li)));
    }
    // All four ways valid; a fifth line forces a replacement decision.
    EXPECT_TRUE(rig->tier.enqueue(make_read(4)));
    return rig;
  };

  auto lru = run_sequence(mem::DramPolicy::kLru);
  // LRU evicts the oldest way — the dirty line 0 — paying a PCM writeback.
  EXPECT_EQ(lru->writebacks(), 1u);
  EXPECT_EQ(lru->clean_evicts(), 0u);

  auto mac = run_sequence(mem::DramPolicy::kMac);
  // MAC prefers the LRU clean way (line 1): zero PCM write cost.
  EXPECT_EQ(mac->writebacks(), 0u);
  EXPECT_EQ(mac->clean_evicts(), 1u);
  // The dirty line must still be resident (hit, not miss).
  const u64 hits_before = mac->hits();
  EXPECT_TRUE(mac->tier.enqueue(make_write(0, units)));
  EXPECT_EQ(mac->hits(), hits_before + 1);
}

TEST(DramPolicy, MacAllDirtySetEmitsSameBankWritebackGroup) {
  // One set of four ways, all dirty: lines 0, 8, 16 share PCM bank 0
  // (line-interleaved bank = line % 8); line 3 sits on bank 3.
  mem::DramConfig d = tiny_config(1, 4);
  d.policy = mem::DramPolicy::kMac;
  d.mac_group = 4;
  TierRig rig(d);
  const u32 units = geometry().units_per_line();
  for (const u64 li : {0u, 8u, 16u, 3u}) {
    ASSERT_TRUE(rig.tier.enqueue(make_write(li, units)));
  }
  ASSERT_EQ(rig.writebacks(), 0u);

  // Fifth write: victim is LRU dirty line 0; lines 8 and 16 share its
  // bank and ride along as group cleans. Line 3 (other bank) stays dirty.
  ASSERT_TRUE(rig.tier.enqueue(make_write(5, units)));
  EXPECT_EQ(rig.writebacks(), 3u);
  EXPECT_EQ(rig.group_cleans(), 2u);
  ASSERT_EQ(rig.forwarded.size(), 3u);
  for (const auto& wb : rig.forwarded) {
    EXPECT_EQ(wb.core, mem::DramTier::kWritebackCore);
    EXPECT_EQ(rig.map.flat_bank(wb.addr), 0u)
        << "writeback group must target one PCM bank";
  }

  // Grouped ways stay resident (now clean): re-writing one is a hit.
  const u64 hits_before = rig.hits();
  ASSERT_TRUE(rig.tier.enqueue(make_write(8, units)));
  EXPECT_EQ(rig.hits(), hits_before + 1);
  // ... and it was clean, so no second writeback for it yet.
  EXPECT_EQ(rig.writebacks(), 3u);
}

TEST(DramPolicy, MacGroupRespectsConfiguredCap) {
  mem::DramConfig d = tiny_config(1, 4);
  d.policy = mem::DramPolicy::kMac;
  d.mac_group = 2;  // victim + at most one rider
  TierRig rig(d);
  const u32 units = geometry().units_per_line();
  for (const u64 li : {0u, 8u, 16u, 24u}) {  // all bank 0, all dirty
    ASSERT_TRUE(rig.tier.enqueue(make_write(li, units)));
  }
  ASSERT_TRUE(rig.tier.enqueue(make_write(5, units)));
  EXPECT_EQ(rig.writebacks(), 2u);  // victim + 1 grouped
  EXPECT_EQ(rig.group_cleans(), 1u);
}

// ------------------------------------------------- system-level behavior --

harness::SystemConfig small_config(u64 seed) {
  harness::SystemConfig cfg;
  cfg.cores = 2;
  cfg.instructions_per_core = 60'000;
  cfg.seed = seed;
  return cfg;
}

TEST(DramSystem, DisabledTierLeavesConfigHashAndMetricsUntouched) {
  // dram.enabled = false must be a pure passthrough: tweaking the other
  // dram knobs changes neither the config hash nor a run's metrics.
  harness::SystemConfig base = small_config(42);
  harness::SystemConfig tweaked = base;
  tweaked.dram.capacity_bytes = 1024 * 1024;
  tweaked.dram.policy = mem::DramPolicy::kMac;
  tweaked.dram.ways = 2;
  EXPECT_EQ(harness::config_hash(base), harness::config_hash(tweaked));

  harness::SystemConfig enabled = base;
  enabled.dram.enabled = true;
  EXPECT_NE(harness::config_hash(base), harness::config_hash(enabled));

  const auto& prof = workload::profile_by_name("vips");
  const auto a = harness::run_system(base, prof, schemes::SchemeKind::kTetris);
  const auto b =
      harness::run_system(tweaked, prof, schemes::SchemeKind::kTetris);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(harness::differing_metrics(a, b), "");
  EXPECT_EQ(a.dram_hits, 0u);
  EXPECT_EQ(a.dram_writebacks, 0u);
}

TEST(DramSystem, TierAbsorbsPcmWriteTraffic) {
  const auto& prof = workload::profile_by_name("vips");  // write-heavy
  harness::SystemConfig off = small_config(42);
  harness::SystemConfig on = small_config(42);
  // Strict drain only services writes when the queue FILLS; the tier cuts
  // write traffic so far below that threshold that stragglers would sit
  // queued forever. Opportunistic drain services whatever arrives.
  off.controller.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  on.controller.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  on.dram.enabled = true;
  // Small enough that the working set forces evictions: PCM must still
  // see writeback traffic, just less of it.
  on.dram.capacity_bytes = u64{32} * 1024;
  on.dram.policy = mem::DramPolicy::kMac;

  const auto m_off = harness::run_system(off, prof, schemes::SchemeKind::kDcw);
  const auto m_on = harness::run_system(on, prof, schemes::SchemeKind::kDcw);
  ASSERT_TRUE(m_off.completed);
  ASSERT_TRUE(m_on.completed);
  EXPECT_GT(m_on.dram_hits, 0u);
  EXPECT_GT(m_on.dram_misses, 0u);
  // PCM only sees the tier's writebacks now, so its write count must
  // drop below the uncached run's.
  EXPECT_LT(m_on.writes, m_off.writes);
  // With the tier on, PCM only services tier writebacks (coalescing in
  // the controller queue can merge some before service).
  EXPECT_GT(m_on.writes, 0u);
  EXPECT_LE(m_on.writes, m_on.dram_writebacks);
}

TEST(DramSystem, LockstepDeterministicAcrossThreadsAndChannels) {
  // The tier lives entirely on the front domain, so enabling it must not
  // cost lockstep determinism: bit-identical metrics at every
  // (channels, sim_threads) point, for both policies.
  for (const auto policy : {mem::DramPolicy::kLru, mem::DramPolicy::kMac}) {
    for (const u32 channels : {1u, 8u}) {
      SCOPED_TRACE(std::string("policy=") + mem::dram_policy_name(policy) +
                   " channels=" + std::to_string(channels));
      std::vector<harness::RunMetrics> runs;
      for (const u32 threads : {1u, 4u}) {
        harness::SystemConfig cfg = small_config(42);
        cfg.pcm.geometry.channels = channels;
        cfg.sim_threads = threads;
        cfg.dram.enabled = true;
        cfg.dram.capacity_bytes = u64{2} * 1024 * 1024;
        cfg.dram.policy = policy;
        runs.push_back(harness::run_system(
            cfg, workload::profile_by_name("vips"),
            schemes::SchemeKind::kTetris));
      }
      EXPECT_TRUE(runs[0].completed);
      EXPECT_GT(runs[0].dram_hits, 0u);
      EXPECT_EQ(harness::differing_metrics(runs[0], runs[1]), "");
    }
  }
}

}  // namespace
}  // namespace tw
