#pragma once
// Event-driven simulation kernel (the NVMain/gem5 stand-in's heart).
//
// Deterministic: events at the same tick fire in (priority, insertion order)
// sequence. Callbacks may schedule further events. Single-threaded by
// design — cross-experiment parallelism happens at the harness level.
//
// The kernel is allocation-free in steady state:
//
//   * callbacks are small-buffer inline functions (capture ≤ 48 B,
//     enforced at compile time — a too-large capture is a build error,
//     never a silent heap allocation);
//   * events live in pooled nodes recycled through a free list;
//   * the pending set is a two-level calendar queue: a 16384-bucket wheel
//     (64-tick-wide buckets, ~1 µs horizon — wider than Tset, so every
//     device-timing event hits the wheel) plus an overflow list for
//     events beyond the horizon, migrated in when the wheel drains;
//   * finding the next event is O(1): one bit per bucket, and a 256-bit
//     summary with one bit per nonempty 64-bucket word, so a lookup
//     reads at most 7 words even on an empty or sparse wheel.
//
// Ordering guarantee: events fire in strictly increasing
// (tick, priority, insertion-sequence) order regardless of which level
// they pass through — same-tick ties break by priority, then FIFO.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/inline_function.hpp"
#include "tw/common/types.hpp"

namespace tw::sim {

/// Scheduling priority for events at the same tick; lower runs first.
enum class Priority : u8 {
  kDeviceComplete = 0,  ///< device/bank completions
  kController = 1,      ///< memory-controller scheduling decisions
  kCpu = 2,             ///< CPU progress
  kDefault = 3,
};

/// Discrete-event simulator with a monotonically advancing clock.
class Simulator {
 public:
  /// Inline capture budget for event callbacks. Large state (e.g. a full
  /// MemoryRequest) is parked in a ChunkPool and the callback captures
  /// its id — see Controller's read results and MemorySystem's transit
  /// pool.
  static constexpr std::size_t kCallbackCapacity = 48;

  /// Move-only inline callback; oversized captures fail to compile.
  using Callback = BasicInlineFunction<kCallbackCapacity>;

  /// Invoked immediately before each event's callback runs, with the
  /// event's tick and the running executed-event count. Used by the
  /// verify subsystem's InvariantMonitor (time-monotonicity checking,
  /// per-event invariant hooks) and by tracing tools.
  using Observer = std::function<void(Tick now, u64 executed)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Install (or clear, with nullptr) the per-event observer. An unset
  /// observer costs one predicted-not-taken branch per event.
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Schedule `fn` at absolute tick `at` (must be >= now()).
  void schedule_at(Tick at, Callback fn,
                   Priority prio = Priority::kDefault);

  /// Schedule `fn` after `delay` ticks from now.
  void schedule_in(Tick delay, Callback fn,
                   Priority prio = Priority::kDefault) {
    schedule_at(now_ + delay, std::move(fn), prio);
  }

  /// Run until the event queue is empty or `limit` is reached.
  /// Returns the number of events executed.
  u64 run(Tick limit = kTickMax);

  /// Move the clock forward to `t` without looking at the queue: what
  /// run(t) does when no event is due by `t`, which the caller must know
  /// (the sharded engine's cached next tick). Never moves the clock back.
  void advance_to(Tick t) {
    if (t > now_) now_ = t;
  }

  /// Execute exactly one event (if any). Returns false when queue empty.
  bool step();

  /// Number of pending events.
  std::size_t pending() const { return pending_; }

  /// Tick of the earliest pending event without executing it, or
  /// kTickMax when the queue is empty. Used by the sharded engine to
  /// fast-forward over idle windows.
  Tick next_tick() const;

  /// Total events executed so far.
  u64 executed() const { return executed_; }

  /// Drop all pending events (used by tests).
  void clear();

 private:
  // Calendar-queue geometry. Bucket width 2^6 ticks (64 ps) keeps bucket
  // occupancy near one event even for dense completion bursts, and 2^14
  // buckets give a ~1 µs horizon: every PCM device delay (Tset = 430 ns
  // is the longest) lands in the wheel; only long CPU gaps and test
  // constructions overflow to the far list.
  static constexpr u32 kWidthShift = 6;
  static constexpr u32 kBucketBits = 14;
  static constexpr u32 kNumBuckets = 1u << kBucketBits;
  static constexpr u32 kBucketMask = kNumBuckets - 1;
  static constexpr u32 kBitmapWords = kNumBuckets / 64;    ///< 256
  static constexpr u32 kSummaryWords = kBitmapWords / 64;  ///< 4
  static constexpr u32 kChunkNodes = 128;  ///< pool growth granularity

  struct EventNode {
    Tick tick = 0;
    u64 order = 0;  ///< (priority << 56) | insertion seq: same-tick order
    EventNode* next = nullptr;
    Callback fn;
  };

  static constexpr u64 day_of(Tick t) { return t >> kWidthShift; }

  EventNode* alloc_node();
  void free_node(EventNode* n);
  void insert(EventNode* n);
  void bucket_insert(EventNode* n, u32 b);
  /// Unlink and return the earliest event with tick <= limit, or nullptr.
  EventNode* pop_earliest(Tick limit);
  /// Move far-list events whose day entered the wheel window into buckets.
  void migrate_far();
  /// First set bucket at circular offset in [0, span) from `start`, or
  /// `span` when none. Reads at most two bucket words and five summary
  /// words, however far away the next event is.
  u32 find_set_offset(u32 start, u32 span) const;
  /// Circular distance, in bitmap words, from `word` to the first nonempty
  /// one (`word` itself included), or kBitmapWords when the wheel is empty.
  u32 next_word_offset(u32 word) const;
  void fire(EventNode* n);

  // Level 1: the wheel. One unsorted intrusive list per bucket; every
  // node in a bucket shares the same "day" (tick >> kWidthShift), so the
  // first nonempty bucket at or after now holds the earliest events.
  std::array<EventNode*, kNumBuckets> buckets_{};
  std::array<u64, kBitmapWords> bucket_bits_{};
  /// Summary over bucket_bits_: bit w set iff bucket_bits_[w] != 0.
  std::array<u64, kSummaryWords> summary_bits_{};
  u64 wheel_base_day_ = 0;  ///< wheel window covers [base, base + 16384) days
  u64 min_day_hint_ = 0;    ///< no pending wheel event has day < hint

  // Level 2: far events (day >= base + 256), unsorted, with cached min.
  EventNode* far_ = nullptr;
  Tick far_min_tick_ = kTickMax;

  // Node pool: chunked storage + LIFO free list (hot nodes recycle first).
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_ = nullptr;

  Tick now_ = 0;
  u64 seq_ = 0;
  u64 executed_ = 0;
  std::size_t pending_ = 0;
  Observer observer_;
};

/// A fixed-frequency clock domain layered on the picosecond timebase.
class Clock {
 public:
  /// period: ticks per cycle (e.g. 500 ps for a 2 GHz core).
  explicit constexpr Clock(Tick period) : period_(period) {
    // A zero period would make cycle arithmetic divide by zero.
  }

  constexpr Tick period() const { return period_; }
  constexpr double freq_ghz() const {
    return 1000.0 / static_cast<double>(period_);
  }

  /// Cycles elapsed at tick t (floor).
  constexpr u64 cycles_at(Tick t) const { return t / period_; }

  /// Tick of the start of cycle c.
  constexpr Tick tick_of(u64 cycle) const { return cycle * period_; }

  /// Ticks for n cycles.
  constexpr Tick cycles(u64 n) const { return n * period_; }

  /// The first clock edge at or after tick t.
  constexpr Tick next_edge(Tick t) const {
    return ceil_div(t, period_) * period_;
  }

 private:
  Tick period_;
};

}  // namespace tw::sim
