#include "tw/mem/dram_tier.hpp"

#include <utility>

#include "tw/common/assert.hpp"
#include "tw/trace/emit.hpp"

namespace tw::mem {

const char* dram_policy_name(DramPolicy p) {
  switch (p) {
    case DramPolicy::kLru: return "lru";
    case DramPolicy::kMac: return "mac";
  }
  return "unknown";
}

std::string DramConfig::error(const pcm::GeometryParams& g) const {
  if (!enabled) return "";
  if (ways == 0) return "dram.ways must be >= 1";
  if (!is_pow2(row_lines)) return "dram.row_lines must be a power of two";
  if (!is_pow2(banks)) return "dram.banks must be a power of two";
  if (t_row_hit == 0 || t_row_miss == 0) {
    return "dram.t_row_hit/t_row_miss must be >= 1 tick";
  }
  if (pending_limit == 0) return "dram.pending_limit must be >= 1";
  if (mac_group == 0) return "dram.mac_group must be >= 1";
  const u32 channels = g.channels == 0 ? 1 : g.channels;
  const u64 line_bytes = g.cache_line_bytes;
  const u64 per_channel = capacity_bytes / channels;
  const u64 sets = per_channel / (u64{ways} * line_bytes);
  if (sets == 0) {
    return "dram.capacity_bytes too small: " + std::to_string(capacity_bytes) +
           " bytes across " + std::to_string(channels) + " channel(s) at " +
           std::to_string(ways) + " ways of " + std::to_string(line_bytes) +
           "-byte lines leaves zero sets per channel";
  }
  if (!is_pow2(sets)) {
    return "dram geometry must give a power-of-two set count per channel "
           "(capacity/channels/(ways*line_bytes) = " +
           std::to_string(sets) + "); adjust dram.capacity_bytes or dram.ways";
  }
  return "";
}

DramTier::DramTier(sim::Simulator& sim, const DramConfig& cfg,
                   const AddressMap& map, u32 channel, stats::Registry& reg)
    : sim_(sim),
      cfg_(cfg),
      map_(map),
      channel_(channel),
      c_hits_(reg.counter("mem.dram_hits")),
      c_misses_(reg.counter("mem.dram_misses")),
      c_writebacks_(reg.counter("mem.dram_writebacks")),
      c_clean_evicts_(reg.counter("mem.dram_clean_evicts")),
      c_group_cleans_(reg.counter("mem.dram_group_cleans")) {
  const u64 per_channel = cfg.capacity_bytes / map.channels();
  const u64 sets = per_channel / (u64{cfg.ways} * map.line_bytes());
  TW_ASSERT(sets > 0 && is_pow2(sets));  // validated by DramConfig::error
  sets_ = static_cast<u32>(sets);
  ways_.resize(u64{sets_} * cfg_.ways);
  open_row_.resize(cfg_.banks);
}

u32 DramTier::set_of(Addr line) const {
  // Index on the channel-stripped line index so every channel's tier sees
  // a dense set space regardless of the interleave.
  return static_cast<u32>(map_.local_line_index(line) & (sets_ - 1));
}

Tick DramTier::access_latency(Addr line) {
  const u64 row = map_.local_line_index(line) / cfg_.row_lines;
  const u32 bank = static_cast<u32>(row & (cfg_.banks - 1));
  OpenRow& open = open_row_[bank];
  const bool hit = open.valid && open.row == row;
  open.valid = true;
  open.row = row;
  return hit ? cfg_.t_row_hit : cfg_.t_row_miss;
}

void DramTier::complete_hit(MemoryRequest req, Tick latency) {
  req.enqueue_tick = sim_.now();
  req.start_tick = sim_.now();
  req.complete_tick = sim_.now() + latency;
  const u32 slot = hits_.put(std::move(req));
  ++outstanding_;
  sim_.schedule_in(
      latency,
      [this, slot] {
        const MemoryRequest done = hits_.take(slot);
        --outstanding_;
        if (done.is_write()) {
          if (on_write_) on_write_(done);
        } else {
          if (on_read_) on_read_(done);
        }
      },
      sim::Priority::kDeviceComplete);
}

void DramTier::write_back(Way& w) {
  TW_ASSERT(w.valid && w.dirty && w.payload != kNoPayload);
  MemoryRequest wb;
  wb.addr = w.tag;
  wb.type = ReqType::kWrite;
  wb.core = kWritebackCore;
  wb.data = payloads_.take(w.payload);
  w.payload = kNoPayload;
  w.dirty = false;
  c_writebacks_.inc();
  if (trace::on<trace::Category::kDram>()) {
    trace::emit_instant(trace::Category::kDram, trace::Op::kDramWriteback,
                        trace::track_id(trace::Track::kDram, channel_),
                        sim_.now(), wb.addr);
  }
  pending_.push_back(std::move(wb));
}

u32 DramTier::pick_victim(u32 set_base) {
  constexpr u32 kNone = 0xFFFFFFFFu;
  const u32 ways = cfg_.ways;
  // Invalid way first (both policies).
  for (u32 i = 0; i < ways; ++i) {
    if (!ways_[set_base + i].valid) return set_base + i;
  }
  auto lru_among = [&](bool dirty_only, bool clean_only) -> u32 {
    u32 best = kNone;
    for (u32 i = 0; i < ways; ++i) {
      const Way& w = ways_[set_base + i];
      if (dirty_only && !w.dirty) continue;
      if (clean_only && w.dirty) continue;
      if (best == kNone || w.lru < ways_[best].lru) best = set_base + i;
    }
    return best;
  };
  if (cfg_.policy == DramPolicy::kLru) return lru_among(false, false);
  // kMac: a clean victim costs PCM nothing — prefer the LRU clean way.
  const u32 clean = lru_among(false, true);
  if (clean != kNone) return clean;
  // All dirty: evict the LRU way, and clean (write back, keep resident)
  // up to mac_group - 1 further ways sharing its PCM bank so the
  // writebacks arrive as a same-bank group the BatchPacker can pack
  // jointly.
  const u32 victim = lru_among(true, false);
  const u32 bank = map_.flat_bank(ways_[victim].tag);
  u32 grouped = 1;
  for (u32 i = 0; i < ways && grouped < cfg_.mac_group; ++i) {
    Way& w = ways_[set_base + i];
    if (set_base + i == victim || !w.dirty) continue;
    if (map_.flat_bank(w.tag) != bank) continue;
    write_back(w);  // stays resident, now clean
    ++grouped;
    c_group_cleans_.inc();
  }
  if (grouped > 1 && trace::on<trace::Category::kDram>()) {
    trace::emit_instant(trace::Category::kDram, trace::Op::kDramGroupEvict,
                        trace::track_id(trace::Track::kDram, channel_),
                        sim_.now(), grouped, bank);
  }
  return victim;
}

bool DramTier::enqueue(MemoryRequest req) {
  const Addr line = map_.line_of(req.addr);
  req.addr = line;
  const u32 set_base = set_of(line) * cfg_.ways;
  const u32 ways = cfg_.ways;
  for (u32 i = 0; i < ways; ++i) {
    Way& w = ways_[set_base + i];
    if (!w.valid || w.tag != line) continue;
    // Hit: completes inside the tier, no PCM credit consumed.
    w.lru = ++clock_;
    if (req.is_write()) {
      if (w.payload == kNoPayload) {
        w.payload = payloads_.put(req.data);
      } else {
        payloads_[w.payload] = req.data;
      }
      w.dirty = true;
    }
    c_hits_.inc();
    if (trace::on<trace::Category::kDram>()) {
      trace::emit_instant(trace::Category::kDram, trace::Op::kDramHit,
                          trace::track_id(trace::Track::kDram, channel_),
                          sim_.now(), line, req.is_write() ? 1 : 0);
    }
    complete_hit(std::move(req), access_latency(line));
    return true;
  }

  // Miss. Refuse (backpressure) before touching any state so a refused
  // request leaves the tier exactly as it was.
  if (!has_room()) return false;
  c_misses_.inc();
  if (trace::on<trace::Category::kDram>()) {
    trace::emit_instant(trace::Category::kDram, trace::Op::kDramMiss,
                        trace::track_id(trace::Track::kDram, channel_),
                        sim_.now(), line, req.is_write() ? 1 : 0);
  }
  const u32 victim = pick_victim(set_base);
  Way& w = ways_[victim];
  if (w.valid) {
    if (w.dirty) {
      write_back(w);
    } else {
      c_clean_evicts_.inc();
      if (trace::on<trace::Category::kDram>()) {
        trace::emit_instant(trace::Category::kDram,
                            trace::Op::kDramCleanEvict,
                            trace::track_id(trace::Track::kDram, channel_),
                            sim_.now(), w.tag);
      }
    }
  }
  w.valid = true;
  w.tag = line;
  w.lru = ++clock_;
  w.dirty = false;
  const Tick latency = access_latency(line);  // fill activates the row
  if (req.is_write()) {
    // Write-allocate without fetch: a full-line write needs no PCM read.
    w.payload = payloads_.put(req.data);
    w.dirty = true;
    complete_hit(std::move(req), latency);
  } else {
    // Demand read: forwarded to PCM behind any writebacks just queued.
    // The line fills at miss time (hit-under-miss idealization); the
    // read's latency is the PCM round trip.
    pending_.push_back(std::move(req));
  }
  drain_forwards();
  return true;
}

void DramTier::on_pcm_read_complete(const MemoryRequest& req) {
  if (on_read_) on_read_(req);
}

void DramTier::on_pcm_space() { drain_forwards(); }

void DramTier::drain_forwards() {
  if (!forward_) return;
  while (!pending_.empty()) {
    if (!forward_(pending_.front())) return;  // refusal leaves it intact
    pending_.pop_front();
  }
}

}  // namespace tw::mem
