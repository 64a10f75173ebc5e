// Unit tests for the event-driven simulation kernel.

#include <gtest/gtest.h>

#include <compare>
#include <set>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/rng.hpp"
#include "tw/sim/simulator.hpp"

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
