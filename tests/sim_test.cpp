// Unit tests for the event-driven simulation kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/rng.hpp"
#include "tw/sim/sharded.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/trace/emit.hpp"
#include "tw/trace/ring.hpp"

namespace tw::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTickPriorityOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(2); }, Priority::kCpu);
  sim.schedule_at(5, [&] { order.push_back(1); },
                  Priority::kDeviceComplete);
  sim.schedule_at(5, [&] { order.push_back(3); }, Priority::kDefault);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTickSamePriorityFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CallbackSchedulesMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulator, RunWithLimitStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  const u64 n = sim.run(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);  // advanced to the limit
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), ContractViolation);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(0, nullptr), ContractViolation);
}

TEST(Simulator, StepSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  sim.schedule_at(1, [] { FAIL() << "should not run"; });
  sim.clear();
  sim.run();
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTick) {
  Simulator sim;
  Tick seen = kTickMax;
  sim.schedule_at(25, [&] {
    sim.schedule_in(0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 25u);
}

// ---- Differential: calendar queue vs an ordered reference ---------------

/// Drives a Simulator and a std::multiset ordered by (tick, priority, seq)
/// through the same operations. Every event that fires must be the
/// reference's minimum at that moment; pending() and next_tick() must
/// match the reference after every operation.
class ReferenceQueue {
 public:
  static constexpr Tick kHorizon = Tick{16384} * 64;  ///< wheel span, ps

  Simulator& sim() { return sim_; }
  u64 fired() const { return fired_; }

  void schedule(Tick at, Priority prio) {
    const u64 seq = seq_++;
    ref_.insert({at, static_cast<u8>(prio), seq});
    sim_.schedule_at(at, [this, seq] { on_fire(seq); }, prio);
  }

  void step() {
    const bool had = !ref_.empty();
    EXPECT_EQ(sim_.step(), had);
  }

  void run(Tick limit) {
    const Tick before = sim_.now();
    const u64 fired_before = fired_;
    const u64 n = sim_.run(limit);
    EXPECT_EQ(n, fired_ - fired_before);
    if (!ref_.empty()) {
      EXPECT_GT(ref_.begin()->tick, limit);
    }
    if (limit != kTickMax) {
      EXPECT_EQ(sim_.now(), std::max(before, limit));
    }
  }

  void clear() {
    sim_.clear();
    ref_.clear();
  }

  void check_peek() const {
    ASSERT_EQ(sim_.pending(), ref_.size());
    ASSERT_EQ(sim_.next_tick(),
              ref_.empty() ? kTickMax : ref_.begin()->tick);
  }

 private:
  struct Key {
    Tick tick;
    u8 prio;
    u64 seq;
    auto operator<=>(const Key&) const = default;
  };

  void on_fire(u64 seq) {
    ASSERT_FALSE(ref_.empty());
    const Key want = *ref_.begin();
    ASSERT_EQ(seq, want.seq);
    ASSERT_EQ(sim_.now(), want.tick);
    ref_.erase(ref_.begin());
    ++fired_;
    // Every fifth event schedules a child from its own callback, as the
    // components do (zero delay and same-bucket ticks included).
    if (seq % 5 == 0) {
      schedule(sim_.now() + (seq * 7919) % 3000, Priority(seq % 4));
    }
  }

  Simulator sim_;
  std::multiset<Key> ref_;
  u64 seq_ = 0;
  u64 fired_ = 0;
};

TEST(Simulator, RandomScheduleMatchesReferenceQueue) {
  constexpr Tick kSpan = 4'000'000;  // 4 us: wheel and far list both
  ReferenceQueue q;
  Simulator& sim = q.sim();
  Rng rng(0xCA1E0DA5ull);
  std::vector<Tick> recent;  // earlier ticks, reused for exact ties
  auto random_tick = [&] {
    const Tick now = sim.now();
    switch (rng.below(4)) {
      case 0:
        if (!recent.empty()) {
          const Tick t = recent[rng.below(recent.size())];
          if (t >= now) return t;
        }
        return now;
      case 1: return now + rng.below(256);  // same and adjacent buckets
      case 2: return now + rng.below(ReferenceQueue::kHorizon);
      default: return now + rng.below(kSpan + 1);
    }
  };
  auto schedule_random = [&] {
    const Tick t = random_tick();
    q.schedule(t, Priority(rng.below(4)));
    recent.push_back(t);
    if (recent.size() > 16) recent.erase(recent.begin());
  };

  for (int op = 0; op < 200'000 && !HasFailure(); ++op) {
    const u64 r = rng.below(1000);
    if (r < 450) {
      schedule_random();
    } else if (r < 650) {
      q.step();
    } else if (r < 990) {
      q.run(sim.now() + rng.below(2'000'000));
    } else if (r < 995) {
      q.run(kTickMax);
    } else {
      q.clear();
    }
    q.check_peek();
  }
  EXPECT_GT(q.fired(), 50'000u);
  EXPECT_GT(sim.now(), 100 * ReferenceQueue::kHorizon);  // many revolutions

  // An empty wheel with far events waiting: only ticks past the horizon.
  q.clear();
  for (int i = 0; i < 50 && !HasFailure(); ++i) {
    q.schedule(sim.now() + ReferenceQueue::kHorizon + rng.below(kSpan),
               Priority(rng.below(4)));
    q.check_peek();
  }
  while (sim.pending() > 0 && !HasFailure()) {
    q.step();
    q.check_peek();
  }

  // A window that straddles the 16384-bucket wrap: clear() re-bases the
  // wheel 100 buckets before a multiple of 16384 days, and events land on
  // both sides of bucket index 0.
  q.run((sim.now() / ReferenceQueue::kHorizon + 3) * ReferenceQueue::kHorizon -
        100 * 64);
  q.clear();
  const Tick wrap = (sim.now() / ReferenceQueue::kHorizon + 1) *
                    ReferenceQueue::kHorizon;
  for (int i = 0; i < 400 && !HasFailure(); ++i) {
    const Tick t = wrap - 64 * 100 + rng.below(64 * 200);
    q.schedule(std::max(t, sim.now()), Priority(rng.below(4)));
    q.check_peek();
  }
  while (sim.pending() > 0 && !HasFailure()) {
    q.run(sim.now() + rng.below(64 * 8));
    q.check_peek();
  }
  EXPECT_GT(sim.now(), wrap);
}

// ----------------------------------------------------------------- clock --
// ---------------------------------------------------------- ShardedEngine --

// A message is a plain destination event, with the simulator's 48 B
// heap-free capture.
static_assert(std::is_same_v<ShardedEngine::Message, Simulator::Callback>);

/// Three domains (front + two channels) under a 20-tick quantum.
struct EngineFixture {
  static constexpr Tick kQ = 20;
  Simulator sims[3];
  ShardedEngine engine{kQ};
  EngineFixture() {
    for (Simulator& s : sims) engine.add_domain(s);
  }
};

TEST(ShardedEngine, MessageFiresAtSendTickPlusQuantum) {
  EngineFixture f;
  std::vector<std::pair<u32, Tick>> fired;  // (domain, tick)
  f.sims[0].schedule_at(5, [&] {
    f.engine.post(0, 2, Priority::kDefault, [&] {
      fired.push_back({2, f.sims[2].now()});
      // And back from the channel, one more quantum later.
      f.engine.post(2, 0, Priority::kDefault,
                    [&] { fired.push_back({0, f.sims[0].now()}); });
    });
  });
  f.engine.run(kTickMax);
  EXPECT_EQ(fired, (std::vector<std::pair<u32, Tick>>{
                       {2, 5 + EngineFixture::kQ},
                       {0, 5 + 2 * EngineFixture::kQ}}));
}

TEST(ShardedEngine, EqualFireAndPriorityFireInSourceOrder) {
  // Two messages fire at the same (tick, priority) on the front. The
  // outboxes drain in source order, so domain 1's fires first: when
  // domain 2 posts first (between runs), and when both post from inside
  // the same window.
  EngineFixture f;
  std::vector<std::pair<char, Tick>> fired;
  const auto from = [&](char src) {
    return [&, src] { fired.push_back({src, f.sims[0].now()}); };
  };
  f.engine.post(2, 0, Priority::kCpu, from('2'));
  f.engine.post(1, 0, Priority::kCpu, from('1'));
  f.engine.run(kTickMax);
  const Tick q = EngineFixture::kQ;
  EXPECT_EQ(fired, (std::vector<std::pair<char, Tick>>{{'1', q}, {'2', q}}));

  fired.clear();
  const Tick t = 3 * q + 7;
  f.sims[2].schedule_at(
      t, [&] { f.engine.post(2, 0, Priority::kCpu, from('2')); });
  f.sims[1].schedule_at(
      t, [&] { f.engine.post(1, 0, Priority::kCpu, from('1')); });
  f.engine.run(kTickMax);
  EXPECT_EQ(fired,
            (std::vector<std::pair<char, Tick>>{{'1', t + q}, {'2', t + q}}));
}

TEST(ShardedEngine, MessagePostedBetweenRunsIsDelivered) {
  EngineFixture f;
  f.engine.run(100);  // nothing pending: the clocks just advance
  Tick fired_at = 0;
  f.engine.post(0, 1, Priority::kController,
                [&] { fired_at = f.sims[1].now(); });
  EXPECT_EQ(f.engine.run(kTickMax), 1u);
  EXPECT_EQ(fired_at, 100 + EngineFixture::kQ);
}

TEST(ShardedEngine, RunToLimitLeavesEveryClockAtLimit) {
  EngineFixture f;
  bool late_fired = false;
  f.sims[1].schedule_at(50, [] {});
  f.sims[2].schedule_at(900, [&] { late_fired = true; });
  EXPECT_EQ(f.engine.run(500), 1u);
  for (const Simulator& s : f.sims) EXPECT_EQ(s.now(), 500u);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(f.engine.run(kTickMax), 1u);
  EXPECT_TRUE(late_fired);
}

TEST(ShardedEngine, ExecutedTotalCountsEveryDomain) {
  EngineFixture f;
  f.sims[0].schedule_at(1, [] {});
  f.sims[0].schedule_at(2, [] {});
  f.sims[1].schedule_at(3, [] {});
  f.sims[2].schedule_at(4, [&] {
    f.engine.post(2, 1, Priority::kDefault, [] {});  // one more on 1
  });
  EXPECT_EQ(f.engine.run(kTickMax), 5u);
  EXPECT_EQ(f.engine.executed_total(), 5u);
  EXPECT_EQ(f.sims[0].executed(), 2u);
  EXPECT_EQ(f.sims[1].executed(), 2u);
  EXPECT_EQ(f.sims[2].executed(), 1u);
}

TEST(ShardedEngine, IdleDomainWokenByMessageFiresAtSendTickPlusQuantum) {
  // The front works through a hundred windows while domains 1 and 2 have
  // nothing due, then wakes domain 2; the message still fires at send
  // tick + Q, and the clocks of the domains left idle reach the limit.
  EngineFixture f;
  constexpr int kSteps = 100;
  constexpr Tick kStride = 3 * EngineFixture::kQ / 2;  // 30: a new window
  Tick sent_at = 0;
  Tick fired_at = 0;
  int steps = 0;
  std::function<void()> step = [&] {
    if (++steps < kSteps) {
      f.sims[0].schedule_in(kStride, [&] { step(); });
      return;
    }
    sent_at = f.sims[0].now();
    f.engine.post(0, 2, Priority::kController,
                  [&] { fired_at = f.sims[2].now(); });
  };
  f.sims[0].schedule_at(7, [&] { step(); });
  const Tick limit = 10'000;
  EXPECT_EQ(f.engine.run(limit), static_cast<u64>(kSteps) + 1);
  EXPECT_EQ(sent_at, 7 + (kSteps - 1) * kStride);
  EXPECT_EQ(fired_at, sent_at + EngineFixture::kQ);
  for (const Simulator& s : f.sims) EXPECT_EQ(s.now(), limit);
}

/// The engine loop that enters every domain in every window (the
/// reference for skipping idle ones), over domains that post no messages:
/// each window runs sims[0..n) in order with its ring bound, then every
/// clock advances to `limit`.
void run_entering_every_domain(Simulator* sims, trace::TraceRing* rings,
                               u32 n, Tick q, Tick limit) {
  const auto run_one = [&](u32 d, Tick until) {
    const trace::ThreadState saved = trace::g_tls;
    trace::g_tls.ring = &rings[d];
    trace::g_tls.mask = trace::kAllCategories;
    sims[d].run(until);
    trace::g_tls = saved;
  };
  for (;;) {
    Tick next = kTickMax;
    for (u32 d = 0; d < n; ++d) next = std::min(next, sims[d].next_tick());
    if (next == kTickMax || next > limit) break;
    const Tick wend = std::min(next / q * q + q - 1, limit);
    for (u32 d = 0; d < n; ++d) run_one(d, wend);
  }
  if (limit != kTickMax) {
    for (u32 d = 0; d < n; ++d) run_one(d, limit);
  }
}

/// Events beyond the 1 us wheel horizon land on each domain's far list.
/// Domain 2's first event (3 000 007) is far and due long after the other
/// domains' last window before it, which ends at 2 500 019.
void schedule_far_scenario(Simulator (&sims)[3]) {
  for (const Tick t : {Tick{10}, Tick{400'003}, Tick{900'011},
                       Tick{2'500'001}, Tick{3'200'009}}) {
    sims[0].schedule_at(t, [] {});
  }
  sims[1].schedule_at(1'000, [&sims] {
    sims[1].schedule_in(700'000, [] {});
  });
  sims[2].schedule_at(3'000'007, [&sims] {
    sims[2].schedule_in(2'000'000, [] {});
  });
}

std::vector<trace::TraceRecord> records(const trace::TraceRing& ring) {
  std::vector<trace::TraceRecord> out;
  ring.collect(out);
  return out;
}

TEST(ShardedEngine, SkippedDomainFarMigrationMatchesEnteringEveryDomain) {
  // A domain skipped while idle must still migrate its far list at the
  // same now() — and emit the same kernel trace — as when every window
  // enters it.
  constexpr Tick kQ = EngineFixture::kQ;
  constexpr Tick kLimit = 2'000'000;
  Simulator ref[3];
  trace::TraceRing ref_rings[3] = {trace::TraceRing(1024),
                                   trace::TraceRing(1024),
                                   trace::TraceRing(1024)};
  schedule_far_scenario(ref);
  run_entering_every_domain(ref, ref_rings, 3, kQ, kLimit);
  run_entering_every_domain(ref, ref_rings, 3, kQ, kTickMax);

  EngineFixture f;
  trace::TraceRing rings[3] = {trace::TraceRing(1024), trace::TraceRing(1024),
                               trace::TraceRing(1024)};
  for (u32 d = 0; d < 3; ++d) {
    f.engine.bind_trace(d, &rings[d], trace::kAllCategories);
  }
  schedule_far_scenario(f.sims);
  f.engine.run(kLimit);
  for (const Simulator& s : f.sims) EXPECT_EQ(s.now(), kLimit);
  f.engine.run(kTickMax);

  u64 ref_total = 0;
  for (u32 d = 0; d < 3; ++d) {
    SCOPED_TRACE("domain " + std::to_string(d));
    ref_total += ref[d].executed();
    EXPECT_EQ(f.sims[d].executed(), ref[d].executed());
    EXPECT_EQ(f.sims[d].now(), ref[d].now());
    const auto got = records(rings[d]);
    const auto want = records(ref_rings[d]);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(trace::TraceRecord)),
              0);
  }
  EXPECT_EQ(f.engine.executed_total(), ref_total);
  EXPECT_EQ(ref_total, 9u);

  // Domain 2's first migration is stamped at the end of the last window
  // before its event, which only the other domains had work in.
  const auto far = records(rings[2]);
  const auto first = std::find_if(far.begin(), far.end(), [](const auto& r) {
    return r.op == trace::Op::kFarMigrate;
  });
  ASSERT_NE(first, far.end());
  EXPECT_EQ(first->tick, 2'500'019u);
}

TEST(ShardedEngine, ZeroQuantumRejected) {
  EXPECT_THROW(ShardedEngine{0}, ContractViolation);
  EXPECT_EQ(ShardedEngine{1}.quantum(), 1u);
}

TEST(Clock, TwoGigahertz) {
  Clock c(500);  // 500 ps
  EXPECT_DOUBLE_EQ(c.freq_ghz(), 2.0);
  EXPECT_EQ(c.cycles(4), 2000u);
  EXPECT_EQ(c.cycles_at(1999), 3u);
  EXPECT_EQ(c.cycles_at(2000), 4u);
  EXPECT_EQ(c.tick_of(4), 2000u);
}

TEST(Clock, NextEdge) {
  Clock c(400);  // 2.5 GHz
  EXPECT_EQ(c.next_edge(0), 0u);
  EXPECT_EQ(c.next_edge(1), 400u);
  EXPECT_EQ(c.next_edge(400), 400u);
  EXPECT_EQ(c.next_edge(401), 800u);
}

TEST(Clock, MemoryBusClock400MHz) {
  Clock c(2500);  // the paper's 400 MHz analysis clock
  EXPECT_DOUBLE_EQ(c.freq_ghz(), 0.4);
  EXPECT_EQ(c.cycles(41), 102'500u);  // 41-cycle analysis = 102.5 ns
}

}  // namespace
}  // namespace tw::sim
