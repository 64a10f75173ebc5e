// Unit tests for tw/common: types, bit kernels, RNG, parallel, strings,
// CSV and table rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/bits.hpp"
#include "tw/common/chunk_pool.hpp"
#include "tw/common/csv.hpp"
#include "tw/common/intrusive_list.hpp"
#include "tw/common/parallel.hpp"
#include "tw/common/rng.hpp"
#include "tw/common/strings.hpp"
#include "tw/common/table.hpp"
#include "tw/common/types.hpp"

namespace tw {
namespace {

// ---------------------------------------------------------------- types --
TEST(Types, TickConversions) {
  EXPECT_EQ(ns(50), 50'000u);
  EXPECT_EQ(us(1), 1'000'000u);
  EXPECT_EQ(ms(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_ns(ns(430)), 430.0);
  EXPECT_DOUBLE_EQ(to_us(us(3)), 3.0);
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(64, 8), 8u);
}

TEST(Types, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
  EXPECT_TRUE(is_pow2(u64{1} << 63));
}

TEST(Types, Log2Pow2) {
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(2), 1u);
  EXPECT_EQ(log2_pow2(64), 6u);
  EXPECT_EQ(log2_pow2(u64{1} << 40), 40u);
}

// --------------------------------------------------------------- assert --
TEST(Assert, ExpectsThrowsOnViolation) {
  EXPECT_THROW(TW_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(TW_EXPECTS(true));
}

TEST(Assert, MessageCarriesLocation) {
  try {
    TW_ASSERT(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("common_test.cpp"), std::string::npos);
  }
}

// ----------------------------------------------------------------- bits --
TEST(Bits, Popcount) {
  EXPECT_EQ(popcount(0), 0u);
  EXPECT_EQ(popcount(~u64{0}), 64u);
  EXPECT_EQ(popcount(0xF0F0), 8u);
}

TEST(Bits, HammingWords) {
  EXPECT_EQ(hamming(u64{0}, u64{0}), 0u);
  EXPECT_EQ(hamming(u64{0xFF}, u64{0x0F}), 4u);
}

TEST(Bits, HammingSpans) {
  const u64 a[] = {0xFF, 0x00};
  const u64 b[] = {0x0F, 0xF0};
  EXPECT_EQ(hamming(std::span<const u64>(a), std::span<const u64>(b)), 8u);
}

TEST(Bits, HammingSpanSizeMismatchThrows) {
  const u64 a[] = {1, 2};
  const u64 b[] = {1};
  EXPECT_THROW(hamming(std::span<const u64>(a), std::span<const u64>(b)),
               ContractViolation);
}

TEST(Bits, TransitionsDirections) {
  // old 0011, new 0101: bit1 1->0 (reset), bit2 0->1 (set).
  const BitTransitions t = transitions(u64{0b0011}, u64{0b0101});
  EXPECT_EQ(t.sets, 1u);
  EXPECT_EQ(t.resets, 1u);
  EXPECT_EQ(t.total(), 2u);
}

TEST(Bits, TransitionsAllSet) {
  const BitTransitions t = transitions(u64{0}, ~u64{0});
  EXPECT_EQ(t.sets, 64u);
  EXPECT_EQ(t.resets, 0u);
}

TEST(Bits, TransitionsIdentity) {
  const BitTransitions t = transitions(u64{0xDEADBEEF}, u64{0xDEADBEEF});
  EXPECT_EQ(t.total(), 0u);
}

TEST(Bits, GetWithBit) {
  EXPECT_TRUE(get_bit(0b100, 2));
  EXPECT_FALSE(get_bit(0b100, 1));
  EXPECT_EQ(with_bit(0, 5, true), u64{32});
  EXPECT_EQ(with_bit(32, 5, false), u64{0});
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(0), u64{0});
  EXPECT_EQ(low_mask(8), u64{0xFF});
  EXPECT_EQ(low_mask(64), ~u64{0});
}

TEST(Bits, InvertSpan) {
  u64 v[] = {0, ~u64{0}};
  invert(std::span<u64>(v));
  EXPECT_EQ(v[0], ~u64{0});
  EXPECT_EQ(v[1], u64{0});
}

// ------------------------------------------------------------------ rng --
TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  std::set<u64> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.range(3, 5));
  EXPECT_EQ(seen, (std::set<u64>{3, 4, 5}));
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(10.0));
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, PoissonMeanSmallLambda) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.15);
}

TEST(Rng, PoissonMeanLargeLambda) {
  Rng r(19);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, PoissonZero) {
  Rng r(23);
  EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng a2(42);
  a2.next();  // split consumed one draw
  // Child stream differs from parent's continuation.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (child.next() == a2.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng r(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

// Rng::below's division-free path for bounds <= 64 must reproduce the
// division formula exactly: same rejection threshold, same remainder.
TEST(Rng, RejectThresholdMatchesDivision) {
  for (u64 d = 1; d <= rng_detail::kSmallBoundMax; ++d) {
    EXPECT_EQ(rng_detail::reject_threshold(d), (~d + 1) % d) << d;
  }
  for (const u64 d : {u64{65}, u64{100}, u64{65536}, u64{1'000'003},
                      ~u64{0}}) {
    EXPECT_EQ(rng_detail::reject_threshold(d), (~d + 1) % d) << d;
  }
}

TEST(Rng, SmallModMatchesDivisionOnEdgeNumerators) {
  constexpr u64 kMax = ~u64{0};
  for (u64 d = 1; d <= rng_detail::kSmallBoundMax; ++d) {
    const u64 t = (~d + 1) % d;
    std::vector<u64> edges = {0, 1, t, kMax, kMax - 1, d - 1, u64{1} << 32,
                              (u64{1} << 32) - 1, (kMax / d) * d,
                              (kMax / d) * d - 1};
    if (t > 0) edges.push_back(t - 1);
    for (u32 k = 0; k < 64; ++k) edges.push_back(u64{1} << k);
    for (const u64 m : {u64{1}, u64{2}, u64{3}, u64{1} << 26, u64{1} << 32,
                        u64{1} << 40, kMax / d}) {
      edges.push_back(m * d);      // a multiple of the bound
      edges.push_back(m * d - 1);  // and its neighbours
      edges.push_back(m * d + 1);
    }
    for (const u64 n : edges) {
      ASSERT_EQ(rng_detail::small_mod(n, d), n % d) << n << " mod " << d;
    }
  }
}

TEST(Rng, SmallModMatchesDivisionOnRandomNumerators) {
  Rng r(0x5EED);
  u64 mismatches = 0;
  for (u64 i = 0; i < 10'000'000; ++i) {
    const u64 n = r.next();
    const u64 d = 1 + i % rng_detail::kSmallBoundMax;
    mismatches += rng_detail::small_mod(n, d) != n % d;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, BelowMatchesDivisionFormula) {
  // Same draws, same order, same results as the modulo-debiased loop, on
  // both sides of the small-bound cut.
  Rng a(31), b(31);
  for (u64 i = 0; i < 200'000; ++i) {
    const u64 bound = 1 + i % 130;
    const u64 threshold = (~bound + 1) % bound;
    u64 r;
    do {
      r = b.next();
    } while (r < threshold);
    ASSERT_EQ(a.below(bound), r % bound) << "draw " << i;
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowZeroBoundRejected) {
  Rng r(3);
  EXPECT_THROW(r.below(0), ContractViolation);
}

TEST(Rng, PoissonCachedLimitMatches) {
  for (const double lambda :
       {0.0, 0.05, 1.0, 2.9, 6.7, 12.5, 29.99, 30.0, 45.0, 100.0}) {
    Rng a(37), b(37);
    const double limit = Rng::poisson_limit(lambda);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.poisson(lambda), b.poisson(lambda, limit)) << lambda;
    }
    EXPECT_EQ(a.next(), b.next()) << lambda;  // same draws consumed
  }
}

// ------------------------------------------------------------- parallel --
TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ForZeroIterations) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ForPropagatesException) {
  EXPECT_THROW(
      parallel_for(10,
                   [](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, ForSingleThreadDegenerate) {
  std::vector<int> order;
  parallel_for(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ForFewerItemsThanThreads) {
  // n < requested thread count: clamp, don't deadlock or skip work.
  std::vector<std::atomic<int>> hits(3);
  parallel_for(
      3, [&](std::size_t i) { hits[i]++; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ForNestedFallsBackToSerial) {
  // A parallel_for issued from inside a pool worker must run inline
  // instead of waiting on pool helpers (deadlocks with one worker).
  std::atomic<int> total{0};
  parallel_for(4, [&](std::size_t) {
    parallel_for(4, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(Parallel, ThreadPoolRunsJobs) {
  ThreadPool pool(4);
  std::atomic<int> n{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { n++; });
  pool.wait_idle();
  EXPECT_EQ(n.load(), 50);
}

TEST(Parallel, ThreadPoolWaitIdleOnEmpty) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(Parallel, ThreadPoolThrowingJobDoesNotDeadlock) {
  // A throwing job must neither terminate the worker nor leak the active
  // count: wait_idle() returns (rethrowing the exception) instead of
  // blocking forever.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&, i] {
      if (i == 3) throw std::runtime_error("cell failed");
      done++;
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(done.load(), 19);
}

TEST(Parallel, ThreadPoolUsableAfterThrowingJob) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("first batch fails"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // The error state was cleared: a healthy second batch runs clean.
  std::atomic<int> n{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { n++; });
  pool.wait_idle();
  EXPECT_EQ(n.load(), 10);
}

TEST(Parallel, ThreadPoolReportsFirstErrorOnly) {
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // subsequent waits are clean
  SUCCEED();
}

// -------------------------------------------------------------- strings --
TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
  EXPECT_EQ(fixed(-1.5, 1), "-1.5");
}

TEST(Strings, Pct) {
  EXPECT_EQ(pct(0.653), "65.3%");
  EXPECT_EQ(pct(1.0, 0), "100%");
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad("ab", 5), "ab   ");
  EXPECT_EQ(pad("ab", -5), "   ab");
  EXPECT_EQ(pad("abcdef", 3), "abcdef");
}

TEST(Strings, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(Strings, AsciiBar) {
  EXPECT_EQ(ascii_bar(0.5, 4), "##..");
  EXPECT_EQ(ascii_bar(0.0, 4), "....");
  EXPECT_EQ(ascii_bar(1.5, 4), "####");  // clamped
}

TEST(Strings, StartsWithToLower) {
  EXPECT_TRUE(starts_with("tetris", "tet"));
  EXPECT_FALSE(starts_with("tet", "tetris"));
  EXPECT_EQ(to_lower("TeTrIs"), "tetris");
}

// ------------------------------------------------------------------ csv --
TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

// ---------------------------------------------------------------- table --
TEST(Table, RendersAlignedColumns) {
  AsciiTable t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   |"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(Table, NumericRightAligned) {
  AsciiTable t;
  t.set_header({"v"});
  t.add_row({"7"});
  t.add_row({"1000"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("|    7 |"), std::string::npos);
}

TEST(Table, EmptyTableRendersNothing) {
  AsciiTable t;
  EXPECT_TRUE(t.to_string().empty());
}

TEST(ChunkPool, PutTakeRecyclesLastFreedFirst) {
  // Four slots per chunk, so twelve values span three chunks. The values
  // are move-only: put() and take() move, never copy.
  ChunkPool<std::unique_ptr<int>, 2> pool;
  std::vector<u32> ids;
  for (int v = 0; v < 12; ++v) ids.push_back(pool.put(std::make_unique<int>(v)));
  for (u32 i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);  // dense ids
  EXPECT_EQ(pool.live(), 12u);

  // A reference taken in the first chunk survives growth by more chunks.
  std::unique_ptr<int>& first = pool[ids[1]];
  const int* first_value = first.get();
  for (int v = 12; v < 20; ++v) ids.push_back(pool.put(std::make_unique<int>(v)));
  EXPECT_EQ(&first, &pool[ids[1]]);
  EXPECT_EQ(first.get(), first_value);
  EXPECT_EQ(pool.live(), 20u);

  // take() moves the value out and frees the slot.
  EXPECT_EQ(*pool.take(ids[3]), 3);
  EXPECT_EQ(*pool.take(ids[17]), 17);
  EXPECT_EQ(pool.live(), 18u);

  // Freed slots come back last-freed first, then the pool appends again.
  EXPECT_EQ(pool.put(std::make_unique<int>(100)), ids[17]);
  EXPECT_EQ(pool.put(std::make_unique<int>(101)), ids[3]);
  EXPECT_EQ(pool.put(std::make_unique<int>(102)), 20u);
  EXPECT_EQ(*pool[ids[17]], 100);
  EXPECT_EQ(*pool[ids[3]], 101);
  EXPECT_EQ(pool.live(), 21u);
  EXPECT_EQ(pool.allocated(), 21u);
}

struct ListNode {
  int value = 0;
  ListLink link;
};
using NodeList = IndexList<ListNode, &ListNode::link>;

std::vector<int> list_values(const ChunkPool<ListNode>& pool,
                             const NodeList& list) {
  std::vector<int> out;
  for (u32 id = list.head(); id != kNilIndex; id = list.next(pool, id)) {
    out.push_back(pool[id].value);
  }
  return out;
}

TEST(IndexList, InsertBeforeKeepsBothDirectionsLinked) {
  ChunkPool<ListNode> pool;
  NodeList list;
  std::vector<u32> ids;
  for (int v : {10, 20, 30, 40}) {
    ids.push_back(pool.alloc());
    pool[ids.back()].value = v;
  }
  list.push_back(pool, ids[1]);                // 20
  list.insert_before(pool, ids[1], ids[0]);    // new head: 10 20
  list.insert_before(pool, kNilIndex, ids[3]); // append: 10 20 40
  list.insert_before(pool, ids[3], ids[2]);    // middle: 10 20 30 40
  EXPECT_EQ(list_values(pool, list), (std::vector<int>{10, 20, 30, 40}));
  EXPECT_EQ(list.size(), 4u);
  EXPECT_EQ(list.head(), ids[0]);
  EXPECT_EQ(list.tail(), ids[3]);
  std::vector<int> backwards;
  for (u32 id = list.tail(); id != kNilIndex; id = list.prev(pool, id)) {
    backwards.push_back(pool[id].value);
  }
  EXPECT_EQ(backwards, (std::vector<int>{40, 30, 20, 10}));
  list.erase(pool, ids[2]);
  EXPECT_EQ(list_values(pool, list), (std::vector<int>{10, 20, 40}));
}

}  // namespace
}  // namespace tw
