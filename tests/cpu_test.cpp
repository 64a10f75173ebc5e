// Unit tests for the bounded-MLP core model and multi-core wrapper.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/workload/generator.hpp"

namespace tw::cpu {
namespace {

struct SystemFixture {
  sim::Simulator sim;
  stats::Registry reg;
  std::unique_ptr<schemes::WriteScheme> scheme;
  std::unique_ptr<mem::Controller> ctl;
  std::unique_ptr<workload::TraceGenerator> gen;
  std::unique_ptr<MultiCore> cpus;

  SystemFixture(const char* workload, u32 cores, u64 budget,
                schemes::SchemeKind kind = schemes::SchemeKind::kDcw,
                mem::ControllerConfig ccfg = {}) {
    const pcm::PcmConfig pcfg = pcm::table2_config();
    scheme = core::make_scheme(kind, pcfg);
    ctl = std::make_unique<mem::Controller>(sim, pcfg, ccfg, *scheme, reg);
    gen = std::make_unique<workload::TraceGenerator>(
        workload::profile_by_name(workload), pcfg.geometry, cores, 1234);
    cpus = std::make_unique<MultiCore>(sim, CoreConfig{}, cores, *ctl,
                                       *gen, budget);
  }

  void run(Tick limit = kTickMax) {
    cpus->start();
    sim.run(limit);
  }
};

TEST(Core, RetiresExactBudgetOrSlightlyMore) {
  SystemFixture f("blackscholes", 1, 10'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  const u64 retired = f.cpus->core(0).retired();
  // Retirement quantum is (gap + 1), so overshoot is at most one gap.
  EXPECT_GE(retired, 10'000u);
  EXPECT_LT(retired, 10'000u + 60'000u);
}

TEST(Core, IpcBoundedByPeak) {
  SystemFixture f("blackscholes", 1, 20'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  EXPECT_GT(f.cpus->core(0).ipc(), 0.0);
  EXPECT_LE(f.cpus->core(0).ipc(), CoreConfig{}.peak_ipc + 1e-9);
}

TEST(Core, MemoryBoundWorkloadStalls) {
  // vips (4.12 ops/kilo, write-heavy) under the slow DCW baseline must
  // run far below peak IPC; blackscholes (0.06 ops/kilo) near peak.
  SystemFixture heavy("vips", 2, 20'000);
  heavy.run();
  ASSERT_TRUE(heavy.cpus->all_finished());
  SystemFixture light("blackscholes", 2, 20'000);
  light.run();
  ASSERT_TRUE(light.cpus->all_finished());
  EXPECT_LT(heavy.cpus->aggregate_ipc(),
            0.5 * light.cpus->aggregate_ipc());
  EXPECT_GT(heavy.cpus->core(0).stall_events() +
                heavy.cpus->core(1).stall_events(),
            0u);
}

TEST(Core, ReadsAndWritesReachTheController) {
  SystemFixture f("ferret", 1, 30'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  EXPECT_GT(f.cpus->core(0).reads_issued(), 0u);
  EXPECT_GT(f.cpus->core(0).writes_issued(), 0u);
  EXPECT_EQ(f.reg.counter("mem.reads").value(),
            f.cpus->core(0).reads_issued());
}

TEST(MultiCore, RuntimeIsMaxOfCores) {
  SystemFixture f("canneal", 4, 10'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  Tick max_finish = 0;
  for (u32 c = 0; c < 4; ++c) {
    max_finish = std::max(max_finish, f.cpus->core(c).finish_tick());
  }
  EXPECT_EQ(f.cpus->runtime(), max_finish);
  EXPECT_GT(f.cpus->runtime(), 0u);
}

TEST(MultiCore, FasterSchemeFinishesSooner) {
  SystemFixture slow("vips", 2, 15'000, schemes::SchemeKind::kDcw);
  slow.run();
  SystemFixture fast("vips", 2, 15'000, schemes::SchemeKind::kTetris);
  fast.run();
  ASSERT_TRUE(slow.cpus->all_finished());
  ASSERT_TRUE(fast.cpus->all_finished());
  EXPECT_LT(fast.cpus->runtime(), slow.cpus->runtime());
  EXPECT_GT(fast.cpus->aggregate_ipc(), slow.cpus->aggregate_ipc());
}

TEST(MultiCore, DeterministicAcrossRuns) {
  SystemFixture a("dedup", 2, 10'000);
  a.run();
  SystemFixture b("dedup", 2, 10'000);
  b.run();
  EXPECT_EQ(a.cpus->runtime(), b.cpus->runtime());
  EXPECT_EQ(a.reg.counter("mem.writes").value(),
            b.reg.counter("mem.writes").value());
}

TEST(MultiCore, AggregateIpcSumsCores) {
  SystemFixture f("blackscholes", 4, 10'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  // Four unstalled cores should reach ~4x the single-core IPC.
  EXPECT_GT(f.cpus->aggregate_ipc(), 0.8 * 4.0 * 1.0);
}

// ------------------------------------------------ refused-write retries --

/// Counts the payloads a source draws, per core, in draw order.
class CountingSource : public workload::RequestSource {
 public:
  CountingSource(workload::RequestSource& inner, u32 cores)
      : drawn(cores), inner_(inner) {}

  workload::TraceOp next(u32 core) override { return inner_.next(core); }
  pcm::LogicalLine make_write_data(Addr addr, mem::DataStore& store,
                                   u32 core) override {
    ++calls;
    drawn[core].push_back(inner_.make_write_data(addr, store, core));
    return drawn[core].back();
  }

  u64 calls = 0;
  std::vector<std::vector<pcm::LogicalLine>> drawn;

 private:
  workload::RequestSource& inner_;
};

/// One write enqueue as the memory saw it.
struct WriteAttempt {
  u32 core;
  pcm::LogicalLine data;
  bool accepted;
};

/// A Controller behind a gate that refuses writes: the first
/// `refuse_first` write enqueues, and every write while `open_slots` is 0.
/// The test fires the space callback itself with `space()`.
class GatedMemory : public mem::MemoryInterface {
 public:
  explicit GatedMemory(mem::Controller& ctl) : ctl_(ctl) {}

  bool enqueue(mem::MemoryRequest req) override {
    if (!req.is_write()) return ctl_.enqueue(std::move(req));
    const bool refuse = refuse_first > 0 || open_slots == 0;
    if (refuse_first > 0) --refuse_first;
    const bool accepted = !refuse && ctl_.enqueue(req);
    if (accepted && open_slots != kUnlimited) --open_slots;
    writes.push_back({req.core, req.data, accepted});
    return accepted;
  }
  void set_read_callback(ReadCallback cb) override {
    ctl_.set_read_callback(std::move(cb));
  }
  void set_write_callback(WriteCallback cb) override {
    ctl_.set_write_callback(std::move(cb));
  }
  void set_space_callback(SpaceCallback cb) override {
    space_ = std::move(cb);
    ctl_.set_space_callback([this] { space_(); });
  }
  bool idle() const override { return ctl_.idle(); }
  mem::DataStore& store_for(Addr addr) override {
    return ctl_.store_for(addr);
  }

  void space() { space_(); }

  static constexpr u32 kUnlimited = ~0u;
  u32 refuse_first = 0;
  u32 open_slots = kUnlimited;
  std::vector<WriteAttempt> writes;

 private:
  mem::Controller& ctl_;
  SpaceCallback space_;
};

struct GatedFixture {
  sim::Simulator sim;
  stats::Registry reg;
  std::unique_ptr<schemes::WriteScheme> scheme;
  std::unique_ptr<mem::Controller> ctl;
  std::unique_ptr<GatedMemory> mem;
  std::unique_ptr<workload::TraceGenerator> gen;
  std::unique_ptr<CountingSource> src;
  std::unique_ptr<MultiCore> cpus;

  GatedFixture(const char* workload, u32 cores, u64 budget) {
    const pcm::PcmConfig pcfg = pcm::table2_config();
    scheme = core::make_scheme(schemes::SchemeKind::kTetris, pcfg);
    ctl = std::make_unique<mem::Controller>(sim, pcfg, mem::ControllerConfig{},
                                            *scheme, reg);
    mem = std::make_unique<GatedMemory>(*ctl);
    gen = std::make_unique<workload::TraceGenerator>(
        workload::profile_by_name(workload), pcfg.geometry, cores, 1234);
    src = std::make_unique<CountingSource>(*gen, cores);
    cpus = std::make_unique<MultiCore>(sim, CoreConfig{}, cores, *mem, *src,
                                       budget);
  }

  // Stall order: the cores in the order of their first refused write.
  std::vector<u32> stall_order() const {
    std::vector<u32> order;
    for (const WriteAttempt& w : mem->writes) {
      if (w.accepted) continue;
      if (std::find(order.begin(), order.end(), w.core) == order.end()) {
        order.push_back(w.core);
      }
    }
    return order;
  }
};

TEST(RefusedWrite, PayloadDrawnOncePerIssuedWrite) {
  GatedFixture f("vips", 2, 40'000);
  f.mem->refuse_first = 25;
  f.cpus->start();
  // The gate sends no space callback of its own; resume stalled cores
  // after each quiet spell.
  for (int spell = 0; spell < 1000 && !f.cpus->all_finished(); ++spell) {
    f.sim.run();
    f.mem->space();
  }
  ASSERT_TRUE(f.cpus->all_finished());
  EXPECT_EQ(f.mem->refuse_first, 0u);

  u64 issued = 0;
  for (u32 c = 0; c < 2; ++c) issued += f.cpus->core(c).writes_issued();
  EXPECT_EQ(f.src->calls, issued);

  // Each core's accepted writes carry exactly its drawn payloads, in draw
  // order; a refused attempt sends the payload its accepted retry sends.
  std::vector<std::vector<pcm::LogicalLine>> accepted(2);
  u64 refused = 0;
  for (std::size_t i = 0; i < f.mem->writes.size(); ++i) {
    const WriteAttempt& w = f.mem->writes[i];
    if (w.accepted) {
      accepted[w.core].push_back(w.data);
      continue;
    }
    ++refused;
    auto retry = std::find_if(
        f.mem->writes.begin() + static_cast<std::ptrdiff_t>(i) + 1,
        f.mem->writes.end(),
        [&](const WriteAttempt& r) { return r.core == w.core && r.accepted; });
    ASSERT_NE(retry, f.mem->writes.end());
    EXPECT_EQ(retry->data, w.data) << "attempt " << i;
  }
  EXPECT_EQ(refused, 25u);
  for (u32 c = 0; c < 2; ++c) {
    EXPECT_FALSE(accepted[c].empty());
    EXPECT_EQ(accepted[c], f.src->drawn[c]) << "core " << c;
  }
}

TEST(RefusedWrite, OldestStallTakesTheFreedSlot) {
  GatedFixture f("vips", 4, 10'000'000);
  f.mem->open_slots = 0;  // the write queue is full
  f.cpus->start();
  f.sim.run();  // every core ends stalled on a write
  std::vector<u32> fifo = f.stall_order();
  ASSERT_EQ(fifo.size(), 4u);

  // Free one slot at a time. The retry pass walks the FIFO: the oldest
  // stall takes the slot, the others are refused and keep their places,
  // and the winner re-stalls on its next write at the back.
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t from = f.mem->writes.size();
    f.mem->open_slots = 1;
    f.mem->space();
    ASSERT_EQ(f.mem->writes.size(), from + fifo.size());
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      EXPECT_EQ(f.mem->writes[from + i].core, fifo[i]);
      EXPECT_EQ(f.mem->writes[from + i].accepted, i == 0);
    }
    f.sim.run();
    std::rotate(fifo.begin(), fifo.begin() + 1, fifo.end());
  }
}

TEST(Core, StartTwiceRejected) {
  SystemFixture f("blackscholes", 1, 1'000);
  f.cpus->start();
  f.sim.run();
  EXPECT_THROW(f.cpus->start(), ContractViolation);
}

}  // namespace
}  // namespace tw::cpu
