// Multi-channel topology: address decode per interleave mode, geometry
// validation with actionable messages, config-file surfacing, stats
// merging, a small end-to-end MemorySystem run over the sharded engine,
// and the pool-naming wakes and credit-pool retry walks of
// write-saturated runs checked bit for bit against the full walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/pcm/params.hpp"
#include "tw/stats/registry.hpp"
#include "tw/trace/chrome_sink.hpp"
#include "tw/trace/tracer.hpp"
#include "tw/workload/generator.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

pcm::GeometryParams geometry(u32 channels,
                             pcm::ChannelInterleave il =
                                 pcm::ChannelInterleave::kLine) {
  pcm::GeometryParams g;  // Table II defaults: 8 banks, 1 rank, 64 B lines
  g.channels = channels;
  g.channel_interleave = il;
  return g;
}

// ------------------------------------------------------- address decode --

TEST(ChannelDecode, SingleChannelMatchesLegacyLayout) {
  // channels = 1 must leave the pre-multi-channel line-interleaved bank
  // map untouched: bank = line % banks, row above.
  const mem::AddressMap map(geometry(1));
  for (u64 li = 0; li < 64; ++li) {
    const mem::Location loc = map.decode(li * 64);
    EXPECT_EQ(loc.channel, 0u);
    EXPECT_EQ(loc.bank, li % 8);
    EXPECT_EQ(loc.row, li / 8);
  }
}

TEST(ChannelDecode, LineInterleaveRotatesChannelsAndStaysDense) {
  const mem::AddressMap map(geometry(4, pcm::ChannelInterleave::kLine));
  const mem::AddressMap local(geometry(1));
  for (u64 li = 0; li < 256; ++li) {
    const Addr a = li * 64;
    EXPECT_EQ(map.channel_of(a), li % 4);
    const mem::Location loc = map.decode(a);
    EXPECT_EQ(loc.channel, li % 4);
    // Stripping the channel bits must give the dense channel-local
    // geometry: the same location a single-channel map assigns to the
    // local line index.
    const mem::Location want = local.decode((li / 4) * 64);
    EXPECT_EQ(loc.bank, want.bank);
    EXPECT_EQ(loc.rank, want.rank);
    EXPECT_EQ(loc.row, want.row);
    EXPECT_EQ(loc.subarray, want.subarray);
  }
}

TEST(ChannelDecode, LineInterleaveCoversAllBanksPerChannel) {
  // The bug this guards: forgetting to strip channel bits would leave
  // each channel's controller seeing only banks ≡ channel (mod 4) —
  // bank starvation. Every channel must reach every bank.
  const mem::AddressMap map(geometry(4, pcm::ChannelInterleave::kLine));
  std::set<std::pair<u32, u32>> seen;  // (channel, bank)
  for (u64 li = 0; li < 4 * 8 * 4; ++li) {
    const mem::Location loc = map.decode(li * 64);
    seen.insert({loc.channel, loc.bank});
  }
  EXPECT_EQ(seen.size(), 4u * 8u);
}

TEST(ChannelDecode, BankInterleaveKeepsBankStrideLocal) {
  // kBank puts the channel bits just above the bank bits: consecutive
  // lines walk the banks of ONE channel before moving to the next.
  const mem::AddressMap map(geometry(4, pcm::ChannelInterleave::kBank));
  for (u64 li = 0; li < 256; ++li) {
    EXPECT_EQ(map.channel_of(li * 64), (li / 8) % 4) << li;
    const mem::Location loc = map.decode(li * 64);
    EXPECT_EQ(loc.bank, li % 8) << li;
    EXPECT_EQ(loc.row, li / (8 * 4)) << li;  // dense rows after stripping
  }
}

TEST(ChannelDecode, RowInterleavePartitionsCapacityContiguously) {
  pcm::GeometryParams g = geometry(4, pcm::ChannelInterleave::kRow);
  const mem::AddressMap map(g);
  const u64 lpc = g.lines_per_channel();
  ASSERT_GT(lpc, 0u);
  EXPECT_EQ(map.channel_of(0), 0u);
  EXPECT_EQ(map.channel_of((lpc - 1) * 64), 0u);
  EXPECT_EQ(map.channel_of(lpc * 64), 1u);
  EXPECT_EQ(map.channel_of((3 * lpc) * 64), 3u);
  // Local indices restart per partition.
  const mem::Location first_of_ch1 = map.decode(lpc * 64);
  EXPECT_EQ(first_of_ch1.bank, 0u);
  EXPECT_EQ(first_of_ch1.row, 0u);
}

// -------------------------------------------------- geometry validation --

TEST(ChannelGeometry, NonPowerOfTwoChannelsGetsActionableError) {
  pcm::GeometryParams g = geometry(3);
  const std::string err = g.error();
  EXPECT_FALSE(g.valid());
  EXPECT_NE(err.find("channels"), std::string::npos) << err;
  EXPECT_NE(err.find("power of two"), std::string::npos) << err;
}

TEST(ChannelGeometry, AddressMapRefusesInvalidGeometry) {
  try {
    mem::AddressMap map(geometry(3));
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("channels"), std::string::npos)
        << e.what();
  }
}

TEST(ChannelGeometry, CapacityMustCoverOneLinePerChannel) {
  pcm::GeometryParams g = geometry(8);
  g.capacity_bytes = 4 * 64;  // 4 lines for 8 channels
  EXPECT_FALSE(g.valid());
  EXPECT_NE(g.error().find("capacity"), std::string::npos) << g.error();
}

// ------------------------------------------------------ config surfaces --

TEST(ChannelConfig, FileKeysParse) {
  std::istringstream in(
      "pcm.channels = 4\n"
      "pcm.channel_interleave = bank\n"
      "xbar.latency_ns = 35\n"
      "sys.sim_threads = 2\n");
  const harness::SystemConfig cfg = harness::parse_system_config(in);
  EXPECT_EQ(cfg.pcm.geometry.channels, 4u);
  EXPECT_EQ(cfg.pcm.geometry.channel_interleave,
            pcm::ChannelInterleave::kBank);
  EXPECT_EQ(cfg.xbar_latency, ns(35));
  EXPECT_EQ(cfg.sim_threads, 2u);
}

TEST(ChannelConfig, BadChannelCountSurfacesActionableError) {
  std::istringstream in("pcm.channels = 3\n");
  try {
    harness::parse_system_config(in);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("pcm.channels"), std::string::npos) << what;
    EXPECT_NE(what.find("power of two"), std::string::npos) << what;
  }
}

TEST(ChannelConfig, BadInterleaveAndZeroLatencyRejected) {
  {
    std::istringstream in("pcm.channel_interleave = diagonal\n");
    EXPECT_THROW(harness::parse_system_config(in), std::runtime_error);
  }
  {
    std::istringstream in("xbar.latency_ns = 0\n");
    EXPECT_THROW(harness::parse_system_config(in), std::runtime_error);
  }
}

TEST(ChannelConfig, RoundTripsThroughWriter) {
  harness::SystemConfig cfg;
  cfg.pcm.geometry.channels = 8;
  cfg.pcm.geometry.channel_interleave = pcm::ChannelInterleave::kRow;
  cfg.xbar_latency = ns(25);
  cfg.sim_threads = 4;
  std::ostringstream out;
  harness::write_system_config(cfg, out);
  std::istringstream in(out.str());
  const harness::SystemConfig back = harness::parse_system_config(in);
  EXPECT_EQ(back.pcm.geometry.channels, 8u);
  EXPECT_EQ(back.pcm.geometry.channel_interleave,
            pcm::ChannelInterleave::kRow);
  EXPECT_EQ(back.xbar_latency, ns(25));
  EXPECT_EQ(back.sim_threads, 4u);
}

// --------------------------------------------------------- stats merges --

TEST(ChannelStats, RegistryMergeFoldsCountersAndHistograms) {
  stats::Registry main, ch;
  main.counter("mem.writes").inc(10);
  ch.counter("mem.writes").inc(5);
  ch.counter("mem.reads").inc(3);
  ch.accumulator("lat").add(2.0);
  ch.accumulator("lat").add(4.0);
  ch.histogram("svc").add(100);
  ch.histogram("svc").add(200);
  main.merge_from(ch);
  EXPECT_EQ(main.counter("mem.writes").value(), 15u);
  EXPECT_EQ(main.counter("mem.reads").value(), 3u);
  EXPECT_EQ(main.accumulator("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(main.accumulator("lat").mean(), 3.0);
  EXPECT_EQ(main.histogram("svc").total_count(), 2u);
  EXPECT_EQ(main.histogram("svc").min(), 100u);
  EXPECT_EQ(main.histogram("svc").max(), 200u);
}

// ------------------------------------------------------------ end-to-end --

TEST(MemorySystemSharded, RoutesCompletesAndKeepsEveryChannelBusy) {
  pcm::PcmConfig pc = pcm::table2_config();
  pc.geometry.channels = 4;
  sim::Simulator front;
  stats::Registry reg;
  mem::ControllerConfig cc;
  // Strict drain waits for a FULL write queue; this workload never fills
  // one, so service writes whenever no reads are pending instead.
  cc.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  fault::FaultConfig fault;  // disabled
  const mem::SchemeFactory factory = [&](u32) {
    return core::make_scheme(schemes::SchemeKind::kDcw, pc);
  };
  mem::MemorySystem msys(front, pc, cc, factory, reg, fault, /*seed=*/42,
                         /*ones_bias=*/0.35, /*xbar_latency=*/ns(20),
                         /*sim_threads=*/0);
  ASSERT_EQ(msys.channels(), 4u);

  u64 reads_done = 0, writes_done = 0;
  msys.set_read_callback([&](const mem::MemoryRequest&) { ++reads_done; });
  msys.set_write_callback([&](const mem::MemoryRequest&) { ++writes_done; });

  const u32 units = pc.geometry.units_per_line();
  for (u64 i = 0; i < 64; ++i) {
    mem::MemoryRequest r;
    r.addr = i * pc.geometry.cache_line_bytes;
    // kLine interleave routes line i to channel i % 4; alternate the type
    // every 4 lines so each channel gets 8 writes and 8 reads.
    if ((i / 4) % 2 == 0) {
      r.type = mem::ReqType::kWrite;
      r.data = pcm::LogicalLine(units);
      for (u32 u = 0; u < units; ++u) r.data.set_word(u, i * 1000 + u);
    } else {
      r.type = mem::ReqType::kRead;
    }
    ASSERT_TRUE(msys.enqueue(r)) << i;  // 16 per channel, fits the queues
  }

  msys.run(ms(100));
  EXPECT_EQ(writes_done, 32u);
  EXPECT_EQ(reads_done, 32u);
  EXPECT_TRUE(msys.idle());
  EXPECT_GT(msys.executed_events(), 0u);

  // kLine interleave over consecutive lines: every channel saw exactly a
  // quarter of the traffic, in its own registry until merged.
  for (u32 c = 0; c < 4; ++c) {
    ASSERT_NE(msys.channel_registry(c), nullptr);
    EXPECT_EQ(msys.channel_registry(c)->counter("mem.writes").value(), 8u);
    EXPECT_EQ(msys.channel_registry(c)->counter("mem.reads").value(), 8u);
  }
  EXPECT_EQ(reg.counter("mem.writes").value(), 0u);
  msys.merge_stats();
  EXPECT_EQ(reg.counter("mem.writes").value(), 32u);
  EXPECT_EQ(reg.counter("mem.reads").value(), 32u);
}

TEST(MemorySystemSharded, BackpressureSignalsSpaceCallback) {
  pcm::PcmConfig pc = pcm::table2_config();
  pc.geometry.channels = 2;
  sim::Simulator front;
  stats::Registry reg;
  mem::ControllerConfig cc;
  cc.read_queue_entries = 2;
  cc.write_queue_entries = 2;
  cc.drain_low_watermark = 0;  // a drain empties the write queue
  fault::FaultConfig fault;
  const mem::SchemeFactory factory = [&](u32) {
    return core::make_scheme(schemes::SchemeKind::kDcw, pc);
  };
  mem::MemorySystem msys(front, pc, cc, factory, reg, fault, 42, 0.35,
                         ns(20), 0);

  u64 done = 0;
  msys.set_read_callback([&](const mem::MemoryRequest&) { ++done; });
  msys.set_write_callback([&](const mem::MemoryRequest&) { ++done; });
  std::vector<u32> wakes;
  msys.set_pool_space_callback([&](u32 pool) { wakes.push_back(pool); });

  // Flood channel 0 (even lines) with reads: credits run out at 2.
  u64 accepted = 0, refused = 0;
  for (u64 i = 0; i < 6; ++i) {
    mem::MemoryRequest r;
    r.addr = (2 * i) * pc.geometry.cache_line_bytes;
    r.type = mem::ReqType::kRead;
    if (msys.enqueue(r)) {
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(refused, 4u);
  // Two writes to channel 1 (odd lines) fill its write queue, which
  // starts the drain, and its write pool never refuses.
  for (const u64 line : {1, 3}) {
    mem::MemoryRequest w;
    w.addr = line * pc.geometry.cache_line_bytes;
    w.type = mem::ReqType::kWrite;
    w.data = pcm::LogicalLine(pc.geometry.units_per_line());
    ASSERT_TRUE(msys.enqueue(w));
  }

  msys.run(ms(100));
  EXPECT_EQ(done, 4u);
  // The first read credit back wakes the front, naming channel 0's read
  // pool. The second finds no refusal since, and the write pool never
  // had one, so no other release wakes anyone.
  EXPECT_EQ(wakes, std::vector<u32>{msys.credit_pool(0, false)});
  EXPECT_EQ(msys.credit_pool(0, false), 0u);
  EXPECT_TRUE(msys.idle());
}

// ------------------------------------------------------- the retry walk --

TEST(MemorySystemSharded, CreditPoolsOnlyWhereRefusalsAreFree) {
  // channel * 2 + is_write behind the XBar; no pools where a refused
  // enqueue has a side effect (passthrough draws a request id) or waits on
  // a queue of its own (the DRAM tier).
  const auto pool = [](u32 channels, bool dram, u64 line, bool is_write) {
    pcm::PcmConfig pc = pcm::table2_config();
    pc.geometry.channels = channels;
    sim::Simulator front;
    stats::Registry reg;
    mem::DramConfig d;
    d.enabled = dram;
    const mem::SchemeFactory factory = [&](u32) {
      return core::make_scheme(schemes::SchemeKind::kDcw, pc);
    };
    mem::MemorySystem msys(front, pc, mem::ControllerConfig{}, factory, reg,
                           fault::FaultConfig{}, 42, 0.35, ns(20), 1, d);
    return msys.credit_pool(line * pc.geometry.cache_line_bytes, is_write);
  };
  EXPECT_EQ(pool(4, false, 0, false), 0u);
  EXPECT_EQ(pool(4, false, 0, true), 1u);
  EXPECT_EQ(pool(4, false, 5, false), 2u);  // kLine: line 5 -> channel 1
  EXPECT_EQ(pool(4, false, 3, true), 7u);
  EXPECT_EQ(pool(1, false, 3, true), mem::MemoryInterface::kNoCreditPool);
  EXPECT_EQ(pool(4, true, 3, true), mem::MemoryInterface::kNoCreditPool);
}

/// What a CountingMemory passes on from the system below it.
enum class Wakes {
  kNamed,      ///< pools and pool-naming wakes: a wake walks one pool
  kAnonymous,  ///< pools but anonymous wakes: breaks the pool contract
  kNoPools,    ///< neither: a walk retries every stalled core
};

/// MemoryInterface pass-through that counts what the cores ask of the
/// memory: every enqueue, the accepted ones, first-stall refusals, and
/// the refusals inside wake walks, by the credit pool they came from.
class CountingMemory final : public mem::MemoryInterface {
 public:
  CountingMemory(mem::MemoryInterface& inner, Wakes wakes, u32 cores)
      : inner_(inner), wakes_(wakes), stalled_(cores, false) {}

  bool enqueue(mem::MemoryRequest req) override {
    const u32 pool = inner_.credit_pool(req.addr, req.is_write());
    const u32 core = req.core;
    ++calls;
    if (inner_.enqueue(std::move(req))) {
      ++accepted;
      stalled_[core] = false;
      return true;
    }
    if (!stalled_[core]) {
      ++first_stalls;
    } else if (in_walk_) {
      if (std::find(walk_pools_.begin(), walk_pools_.end(), pool) ==
          walk_pools_.end()) {
        walk_pools_.push_back(pool);
      } else {
        ++pool_repeats;
      }
    } else {
      ++stray_refusals;
    }
    stalled_[core] = true;
    return false;
  }
  void set_read_callback(ReadCallback cb) override {
    inner_.set_read_callback(std::move(cb));
  }
  void set_write_callback(WriteCallback cb) override {
    inner_.set_write_callback(std::move(cb));
  }
  void set_space_callback(SpaceCallback cb) override {
    inner_.set_space_callback(
        [this, cb = std::move(cb)] { walk([&] { cb(); }); });
  }
  void set_pool_space_callback(PoolSpaceCallback cb) override {
    if (wakes_ != Wakes::kNamed) {
      // The default: an anonymous wake through set_space_callback.
      MemoryInterface::set_pool_space_callback(std::move(cb));
      return;
    }
    inner_.set_pool_space_callback([this, cb = std::move(cb)](u32 pool) {
      walk([&] { cb(pool); });
    });
  }
  bool idle() const override { return inner_.idle(); }
  u32 credit_pool(Addr addr, bool is_write) const override {
    return wakes_ == Wakes::kNoPools ? kNoCreditPool
                                     : inner_.credit_pool(addr, is_write);
  }
  mem::DataStore& store_for(Addr addr) override {
    return inner_.store_for(addr);
  }

  u64 calls = 0;
  u64 accepted = 0;
  u64 first_stalls = 0;    ///< refusals of a core that was not stalled
  u64 walks = 0;           ///< wakes
  u64 pool_repeats = 0;    ///< walk refusals from a pool that already
                           ///< refused in that walk
  u64 stray_refusals = 0;  ///< refusals of stalled cores outside a walk

 private:
  template <typename Wake>
  void walk(Wake&& wake) {
    ++walks;
    in_walk_ = true;
    walk_pools_.clear();
    wake();
    in_walk_ = false;
  }

  mem::MemoryInterface& inner_;
  Wakes wakes_;
  std::vector<bool> stalled_;
  bool in_walk_ = false;
  std::vector<u32> walk_pools_;
};

/// Write-saturated vips/Tetris on 32 cores and 8 channels: the shape of
/// the write_storm_8ch benchmark workload, at test size.
harness::SystemConfig write_storm_config() {
  harness::SystemConfig cfg;
  cfg.cores = 32;
  cfg.instructions_per_core = 20'000;
  cfg.pcm.geometry.channels = 8;
  cfg.batch.max_lines = 4;
  cfg.seed = 42;
  return cfg;
}

struct ShardedRun {
  harness::RunMetrics m;
  std::string trace;  ///< Chrome trace bytes, every domain traced
  u64 trace_records = 0;
  u64 trace_dropped = 0;  ///< records lost to ring wraparound
};

/// Run `profile`/Tetris under `cfg` as harness::run_system does, with
/// the cores behind a CountingMemory(wakes) over the system, which is
/// left in `counter` for the caller to read.
ShardedRun run_sharded(const harness::SystemConfig& cfg,
                       const workload::WorkloadProfile& profile,
                       std::optional<CountingMemory>& counter, Wakes wakes) {
  sim::Simulator sim;
  stats::Registry reg;
  const auto msys = harness::make_memory_system(
      sim, cfg, schemes::SchemeKind::kTetris, reg,
      profile.initial_ones_fraction);
  workload::TraceGenerator gen(profile, cfg.pcm.geometry, cfg.cores,
                               cfg.seed * 0x9E3779B9u + 7);
  counter.emplace(*msys, wakes, cfg.cores);
  cpu::MultiCore cpus(sim, cfg.core, cfg.cores, *counter, gen,
                      cfg.instructions_per_core);
  // One ring per domain, sized to the run rather than the 32 MiB default:
  // these runs emit about one record per 12 retired instructions across
  // all domains, and the caller checks that no ring wrapped.
  trace::Tracer tracer(trace::kAllCategories,
                       u64{cfg.cores} * cfg.instructions_per_core / 8);
  msys->bind_trace(tracer);
  cpus.start();
  msys->run(cfg.max_sim_time);

  ShardedRun out;
  out.m.workload = profile.name;
  harness::harvest(*msys, cpus, reg, out.m);
  std::ostringstream bytes;
  trace::RunManifest manifest;
  manifest.seed = cfg.seed;
  const std::vector<trace::TraceRecord> records = tracer.collect();
  trace::write_chrome_trace(bytes, records, manifest);
  out.trace = bytes.str();
  out.trace_records = records.size();
  out.trace_dropped = tracer.total_dropped();
  return out;
}

TEST(MemorySystemSharded, RetryWalkSkipsPoolsThatRefused) {
  // Credits only rise in a release, which wakes the cores, so a core
  // waiting on a pool that refused since its last release would be
  // refused again. A named wake therefore retries only its own pool up
  // to the first refusal, and simulates exactly what retrying every
  // stalled core does. A proxy that forwards the pools but wakes
  // anonymously breaks the credit_pool contract and fails the run.
  u64 tier_walks = 0;
  for (const u32 channels : {2u, 8u}) {
    for (const bool dram : {false, true}) {
      for (const bool merge : {true, false}) {
        for (const bool faults : {false, true}) {
          harness::SystemConfig cfg = write_storm_config();
          cfg.pcm.geometry.channels = channels;
          cfg.controller.write_coalescing = merge;
          cfg.controller.read_forwarding = merge;
          cfg.dram.enabled = dram;
          cfg.dram.capacity_bytes = u64{64} << 10;
          if (faults) {
            cfg.fault = fault::profile_config(fault::FaultProfile::kLight);
          }
          SCOPED_TRACE(testing::Message()
                       << "channels=" << channels << " dram=" << dram
                       << " merge=" << merge << " faults=" << faults);
          // vips saturates the write queues; with 64 lines per core it
          // also repeats lines often enough to coalesce and forward.
          workload::WorkloadProfile vips = workload::profile_by_name("vips");
          if (merge) vips.working_set_lines = 64;
          std::optional<CountingMemory> named;
          std::optional<CountingMemory> full;
          const ShardedRun a = run_sharded(cfg, vips, named, Wakes::kNamed);
          const ShardedRun c = run_sharded(cfg, vips, full, Wakes::kNoPools);
          ASSERT_TRUE(a.m.completed);
          EXPECT_GT(a.trace_records, 0u);
          EXPECT_EQ(a.trace_dropped, 0u);
          EXPECT_EQ(harness::differing_metrics(a.m, c.m), "");
          EXPECT_EQ(a.trace, c.trace);

          // Same simulation, so the same requests, stalls and wakes.
          EXPECT_EQ(named->accepted, full->accepted);
          EXPECT_EQ(named->first_stalls, full->first_stalls);
          EXPECT_EQ(named->walks, full->walks);
          EXPECT_EQ(named->stray_refusals, 0u);
          EXPECT_EQ(full->stray_refusals, 0u);
          if (dram) {
            // The tier promises no pools: every mode is the full walk.
            EXPECT_EQ(named->calls, full->calls);
            tier_walks += named->walks;
            continue;
          }
          EXPECT_GT(named->walks, 0u);
          // A named wake refuses at most once, and the full walk retries
          // every stalled core.
          EXPECT_EQ(named->pool_repeats, 0u);
          EXPECT_LE(named->calls,
                    named->accepted + named->first_stalls + named->walks);
          EXPECT_LE(named->calls, full->calls);

          // Pools behind anonymous wakes: the first wake finds cores
          // waiting on a pool and fails, naming the contract.
          std::optional<CountingMemory> anon;
          try {
            run_sharded(cfg, vips, anon, Wakes::kAnonymous);
            ADD_FAILURE() << "anonymous wakes over pools were accepted";
          } catch (const ContractViolation& e) {
            EXPECT_NE(std::string(e.what()).find("credit_pool contract"),
                      std::string::npos)
                << e.what();
          }
          EXPECT_EQ(anon->walks, 1u);
          if (channels == 8 && !faults) {
            // Write-saturated: some channel's write queue filled up, and
            // the full walk makes 3.4x the named walk's calls.
            EXPECT_EQ(a.m.write_q_peak, cfg.controller.write_queue_entries);
            EXPECT_GT(full->pool_repeats, 0u);
            EXPECT_LT(2 * named->calls, full->calls);
          }
        }
      }
    }
  }
  // The tier's pending queue filled in some cell, so its anonymous wakes
  // were differentially checked too.
  EXPECT_GT(tier_walks, 0u);
}

TEST(MemorySystemSharded, CreditedDeliveriesNeverRefused) {
  // Each request holds its channel credit until its completion (or
  // coalesce release) is back on the front, one hop after it left the
  // controller queue, so a credited delivery always finds room and a
  // refusal fails the run. Queues of 2 writes and 1 read with no drain
  // hysteresis and 2-line batches are the tightest the credits get.
  for (const bool dram : {false, true}) {
    for (const bool merge : {true, false}) {
      harness::SystemConfig cfg = write_storm_config();
      cfg.instructions_per_core = 5'000;
      cfg.controller.write_queue_entries = 2;
      cfg.controller.read_queue_entries = 1;
      cfg.controller.drain_low_watermark = 0;
      cfg.controller.write_coalescing = merge;
      cfg.controller.read_forwarding = merge;
      cfg.batch.max_lines = 2;
      cfg.dram.enabled = dram;
      cfg.dram.capacity_bytes = u64{1} << 20;
      SCOPED_TRACE(testing::Message() << "dram=" << dram << " merge=" << merge);
      const harness::RunMetrics m = harness::run_system(
          cfg, workload::profile_by_name("vips"), schemes::SchemeKind::kTetris);
      EXPECT_TRUE(m.completed);
      // The 1 MB tier absorbs every write at this size; its demand
      // misses still ride the read credits.
      EXPECT_GT(m.reads, 0u);
      if (!dram) {
        EXPECT_GT(m.writes, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace tw
