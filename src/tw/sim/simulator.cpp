#include "tw/sim/simulator.hpp"

#include <utility>

#include "tw/trace/emit.hpp"

namespace tw::sim {

Simulator::~Simulator() = default;  // chunks_ owns every node

Simulator::EventNode* Simulator::alloc_node() {
  if (free_ == nullptr) {
    auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
    for (u32 i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    chunks_.push_back(std::move(chunk));
  }
  EventNode* n = free_;
  free_ = n->next;
  return n;
}

void Simulator::free_node(EventNode* n) {
  n->fn.reset();  // release captures now, not when the node is reused
  n->next = free_;
  free_ = n;
}

void Simulator::bucket_insert(EventNode* n, u32 b) {
  n->next = buckets_[b];
  buckets_[b] = n;
  bucket_bits_[b >> 6] |= u64{1} << (b & 63);
  summary_bits_[b >> 12] |= u64{1} << ((b >> 6) & 63);
}

void Simulator::insert(EventNode* n) {
  const u64 day = day_of(n->tick);
  if (day < wheel_base_day_ + kNumBuckets) {
    // In the wheel window. day >= wheel_base_day_ holds because the base
    // never passes day_of(now) (see migrate_far), and ticks are >= now.
    bucket_insert(n, static_cast<u32>(day) & kBucketMask);
    min_day_hint_ = std::min(min_day_hint_, day);
  } else {
    n->next = far_;
    far_ = n;
    far_min_tick_ = std::min(far_min_tick_, n->tick);
  }
}

u32 Simulator::next_word_offset(u32 word) const {
  // Circular scan of the 256-bit summary: the summary word holding bit
  // `word` from that bit on, the other three whole, then the first one
  // again (its bits below `word`: the wrap).
  const u32 s = word >> 6;
  const u32 bit = word & 63;
  if (const u64 w = summary_bits_[s] >> bit; w != 0) {
    return static_cast<u32>(std::countr_zero(w));
  }
  u32 off = 64 - bit;
  for (u32 k = 1; k <= kSummaryWords; ++k, off += 64) {
    if (const u64 w = summary_bits_[(s + k) & (kSummaryWords - 1)]; w != 0) {
      return off + static_cast<u32>(std::countr_zero(w));
    }
  }
  return kBitmapWords;
}

u32 Simulator::find_set_offset(u32 start, u32 span) const {
  // The bucket word holding `start`, from `start` on.
  const u32 bit = start & 63;
  if (const u64 w = bucket_bits_[start >> 6] >> bit; w != 0) {
    const u32 tz = static_cast<u32>(std::countr_zero(w));
    return tz < span ? tz : span;
  }
  // Then the first nonempty word after it, found through the summary.
  const u32 head = 64 - bit;
  if (head >= span) return span;
  const u32 word = ((start >> 6) + 1) & (kBitmapWords - 1);
  const u32 skip = next_word_offset(word);
  if (skip == kBitmapWords) return span;
  const u32 off = head + skip * 64 +
                  static_cast<u32>(std::countr_zero(
                      bucket_bits_[(word + skip) & (kBitmapWords - 1)]));
  return off < span ? off : span;
}

void Simulator::migrate_far() {
  // Slide the window to start at the earliest far event; everything now
  // inside moves to buckets, the rest stays far with a recomputed min.
  const u64 base = day_of(far_min_tick_);
  wheel_base_day_ = base;
  min_day_hint_ = base;
  EventNode* n = far_;
  far_ = nullptr;
  far_min_tick_ = kTickMax;
  u64 migrated = 0;
  u64 kept_far = 0;
  while (n != nullptr) {
    EventNode* next = n->next;
    const u64 day = day_of(n->tick);
    if (day < base + kNumBuckets) {
      bucket_insert(n, static_cast<u32>(day) & kBucketMask);
      ++migrated;
    } else {
      n->next = far_;
      far_ = n;
      far_min_tick_ = std::min(far_min_tick_, n->tick);
      ++kept_far;
    }
    n = next;
  }
  if (trace::on<trace::Category::kKernel>()) {
    trace::emit_instant(trace::Category::kKernel, trace::Op::kFarMigrate,
                        trace::track_id(trace::Track::kKernel, 0), now_,
                        migrated, kept_far);
  }
}

Simulator::EventNode* Simulator::pop_earliest(Tick limit) {
  for (;;) {
    // The earliest pending wheel event lives in the first nonempty bucket
    // at or after the min-day cursor (buckets ahead of the base wrap to
    // future days and are scanned in window order, so bucket index ==
    // day order). The cursor keeps the bitmap scan O(1) amortized: it
    // only moves forward as events fire, never rescans drained buckets.
    const u64 scan_day = std::max({min_day_hint_, day_of(now_),
                                   wheel_base_day_});
    const u64 end_day = wheel_base_day_ + kNumBuckets;
    if (scan_day < end_day) {
      const u32 span = static_cast<u32>(end_day - scan_day);
      const u32 off =
          find_set_offset(static_cast<u32>(scan_day) & kBucketMask, span);
      if (off != span) {
        min_day_hint_ = scan_day + off;
        const u32 b = static_cast<u32>(scan_day + off) & kBucketMask;
        // All nodes in a bucket share a day; pick the (tick, order) min.
        EventNode* best_prev = nullptr;
        EventNode* best = buckets_[b];
        EventNode* prev = buckets_[b];
        for (EventNode* n = best->next; n != nullptr; n = n->next) {
          if (n->tick < best->tick ||
              (n->tick == best->tick && n->order < best->order)) {
            best = n;
            best_prev = prev;
          }
          prev = n;
        }
        if (best->tick > limit) return nullptr;
        if (best_prev == nullptr) {
          buckets_[b] = best->next;
        } else {
          best_prev->next = best->next;
        }
        if (buckets_[b] == nullptr) {
          u64& word = bucket_bits_[b >> 6];
          word &= ~(u64{1} << (b & 63));
          if (word == 0) {
            summary_bits_[b >> 12] &= ~(u64{1} << ((b >> 6) & 63));
          }
        }
        --pending_;
        return best;
      }
    }
    // Wheel dry: pull the far list in — but only when its earliest event
    // is due, so the window base never jumps past an event that would
    // then be scheduled "behind" it.
    if (far_ == nullptr || far_min_tick_ > limit) return nullptr;
    migrate_far();
  }
}

Tick Simulator::next_tick() const {
  Tick best = far_min_tick_;
  const u64 scan_day = std::max({min_day_hint_, day_of(now_),
                                 wheel_base_day_});
  const u64 end_day = wheel_base_day_ + kNumBuckets;
  if (scan_day < end_day) {
    const u32 span = static_cast<u32>(end_day - scan_day);
    const u32 off =
        find_set_offset(static_cast<u32>(scan_day) & kBucketMask, span);
    if (off != span) {
      const u32 b = static_cast<u32>(scan_day + off) & kBucketMask;
      // All nodes in the bucket share a day; the wheel event minimum is
      // this bucket's tick minimum (earlier buckets are empty).
      Tick bucket_min = kTickMax;
      for (const EventNode* n = buckets_[b]; n != nullptr; n = n->next) {
        bucket_min = std::min(bucket_min, n->tick);
      }
      best = std::min(best, bucket_min);
    }
  }
  return best;
}

void Simulator::fire(EventNode* n) {
  TW_ASSERT(n->tick >= now_);
  now_ = n->tick;
  ++executed_;
  if (observer_) observer_(now_, executed_);
  if (trace::on<trace::Category::kKernel>()) {
    // arg0 = running executed count, arg1 = the event's priority lane.
    trace::emit_instant(trace::Category::kKernel, trace::Op::kEventFire,
                        trace::track_id(trace::Track::kKernel, 0), now_,
                        executed_, n->order >> 56);
  }
  n->fn();  // may schedule further events; n is already unlinked
  free_node(n);
}

void Simulator::schedule_at(Tick at, Callback fn, Priority prio) {
  TW_EXPECTS(at >= now_);
  TW_EXPECTS(fn != nullptr);
  EventNode* n = alloc_node();
  n->tick = at;
  n->order = (static_cast<u64>(prio) << 56) | seq_++;
  n->fn = std::move(fn);
  insert(n);
  ++pending_;
}

u64 Simulator::run(Tick limit) {
  u64 fired = 0;
  while (EventNode* n = pop_earliest(limit)) {
    fire(n);
    ++fired;
  }
  // Advance the clock to the limit: everything left is strictly later.
  if (limit != kTickMax && now_ < limit) now_ = limit;
  return fired;
}

bool Simulator::step() {
  EventNode* n = pop_earliest(kTickMax);
  if (n == nullptr) return false;
  fire(n);
  return true;
}

void Simulator::clear() {
  for (u32 b = 0; b < kNumBuckets; ++b) {
    EventNode* n = buckets_[b];
    buckets_[b] = nullptr;
    while (n != nullptr) {
      EventNode* next = n->next;
      free_node(n);
      n = next;
    }
  }
  bucket_bits_.fill(0);
  summary_bits_.fill(0);
  EventNode* n = far_;
  far_ = nullptr;
  far_min_tick_ = kTickMax;
  while (n != nullptr) {
    EventNode* next = n->next;
    free_node(n);
    n = next;
  }
  pending_ = 0;
  wheel_base_day_ = day_of(now_);
  min_day_hint_ = wheel_base_day_;
}

}  // namespace tw::sim
