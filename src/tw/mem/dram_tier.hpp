#pragma once
// DRAM front tier: a per-channel set-associative line cache with dirty
// tracking that sits between the MemorySystem XBar front-end and the PCM
// Controller (the PCMSimMemorySystem shape: DRAM controllers alongside
// the PCM controllers, absorbing hot lines before they reach the PCM
// write path).
//
// Timing is the classic tiered-latency DRAM model: each cached line maps
// to a (DRAM bank, row); a hit to the bank's open row costs t_row_hit,
// anything else costs t_row_miss and re-opens the row. Hits complete
// entirely inside the tier — they never consume PCM channel credits —
// while misses forward to PCM through a strict-FIFO pending queue
// (writebacks first, then the demand read, so a demand read never passes
// an older same-line writeback; controller read-forwarding serves it
// from the queued data if they do meet in the PCM queues).
//
// Two replacement policies (dram.policy):
//  * kLru — classic least-recently-used.
//  * kMac — MAC-style PCM-write-aware (arXiv:1606.03248): eviction
//    prefers clean lines (a clean victim costs PCM nothing), and when a
//    set is all-dirty the tier writes back a same-PCM-bank *group* of
//    dirty ways (up to dram.mac_group, victim included) in one burst, so
//    the writebacks arrive at the controller as a same-bank cluster the
//    BatchPacker / PALP machinery can pack jointly. Grouped ways other
//    than the victim stay resident and merely turn clean.
//
// Determinism: every tier mutation happens on the front simulation
// domain (CPU enqueue, front-sim completion events, credit-release
// messages), so the tier needs no synchronization and same-seed runs
// stay bit-identical at every channel count.

#include <deque>
#include <string>
#include <vector>

#include "tw/common/chunk_pool.hpp"
#include "tw/common/types.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/interface.hpp"
#include "tw/mem/request.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"

namespace tw::mem {

/// Replacement policy of the DRAM front tier.
enum class DramPolicy : u8 {
  kLru,  ///< classic least-recently-used
  kMac,  ///< PCM-write-aware: clean-first eviction + same-bank dirty groups
};

const char* dram_policy_name(DramPolicy p);

/// Configuration of the optional DRAM front tier. Disabled by default;
/// `enabled = false` keeps every MemorySystem code path bit-identical to
/// a build without the tier.
struct DramConfig {
  bool enabled = false;
  /// Total DRAM capacity across all channels (split evenly; the
  /// per-channel set count must come out a power of two).
  u64 capacity_bytes = u64{32} * 1024 * 1024;
  u32 ways = 8;  ///< set associativity
  DramPolicy policy = DramPolicy::kLru;
  Tick t_row_hit = ns(15);   ///< access hitting the bank's open row
  Tick t_row_miss = ns(40);  ///< activate + access on a closed/other row
  u32 row_lines = 64;        ///< cache lines per DRAM row (power of two)
  u32 banks = 8;             ///< DRAM banks per channel (power of two)
  /// Miss-path backpressure: pending PCM forwards (writebacks + demand
  /// reads) buffered per channel before enqueue() refuses.
  u32 pending_limit = 64;
  /// kMac only: max dirty ways (victim included) written back as one
  /// same-PCM-bank group when a set is all-dirty.
  u32 mac_group = 4;

  /// Empty when consistent with `g`; otherwise an actionable description
  /// of the first violated constraint.
  std::string error(const pcm::GeometryParams& g) const;
};

/// One channel's DRAM cache controller. Owned by MemorySystem; runs
/// entirely on the front simulation domain.
class DramTier {
 public:
  /// Core id marking tier-generated writebacks; their PCM write
  /// completions are swallowed by the tier instead of reaching the CPU.
  static constexpr u32 kWritebackCore = 0xFFFFFFFFu;

  /// Hands a miss-path request to the PCM side (consuming a channel
  /// credit or controller queue slot). On success the callee may move
  /// from `req`; on refusal (false) it must leave `req` intact so the
  /// tier can retry it on on_pcm_space().
  using ForwardFn = std::function<bool(MemoryRequest& req)>;

  DramTier(sim::Simulator& sim, const DramConfig& cfg, const AddressMap& map,
           u32 channel, stats::Registry& reg);

  void set_forward(ForwardFn fn) { forward_ = std::move(fn); }
  void set_read_callback(MemoryInterface::ReadCallback cb) {
    on_read_ = std::move(cb);
  }
  void set_write_callback(MemoryInterface::WriteCallback cb) {
    on_write_ = std::move(cb);
  }

  /// Front-side entry. Hits complete in DRAM latency; misses evict (a
  /// dirty victim queues a writeback), install the line, and forward
  /// demand reads to PCM. Returns false only when the miss path is
  /// backpressured (pending queue at dram.pending_limit).
  bool enqueue(MemoryRequest req);

  /// A demand read forwarded to PCM completed; deliver it to the CPU.
  void on_pcm_read_complete(const MemoryRequest& req);

  /// A PCM write completed. Tier writebacks (core == kWritebackCore) are
  /// swallowed and the CPU callback is not invoked; returns true in that
  /// case.
  bool absorbs_write_complete(const MemoryRequest& req) const {
    return req.core == kWritebackCore;
  }

  /// PCM-side space/credit became available: drain pending forwards.
  void on_pcm_space();

  /// Room for at least one more miss in the pending queue.
  bool has_room() const { return pending_.size() < cfg_.pending_limit; }

  /// No pending forwards and no in-flight DRAM-hit completions.
  bool idle() const { return pending_.empty() && outstanding_ == 0; }

  u32 sets() const { return sets_; }
  u32 ways() const { return cfg_.ways; }

 private:
  static constexpr u32 kNoPayload = 0xFFFFFFFFu;

  struct Way {
    Addr tag = 0;  ///< full line address (global; unique across sets)
    u64 lru = 0;   ///< last-touch ordinal (global monotonic clock)
    u32 payload = kNoPayload;  ///< dirty data slot in payloads_
    bool valid = false;
    bool dirty = false;
  };

  u32 set_of(Addr line) const;
  Tick access_latency(Addr line);
  u32 pick_victim(u32 set_base);
  /// Queue a writeback of `w`'s line and clear its dirty state.
  void write_back(Way& w);
  void complete_hit(MemoryRequest req, Tick latency);
  void drain_forwards();

  sim::Simulator& sim_;
  DramConfig cfg_;
  const AddressMap& map_;
  u32 channel_;
  u32 sets_ = 1;
  u64 clock_ = 0;  ///< LRU ordinal source
  std::vector<Way> ways_;  ///< sets_ x cfg_.ways, row-major by set

  /// Dirty payload pool (Way::payload indexes it). Kept out of Way
  /// because a LogicalLine is ~264 bytes and most resident lines are
  /// clean; the pool grows to the peak dirty-line count only, in chunks
  /// of 16 lines.
  ChunkPool<pcm::LogicalLine, 4> payloads_;

  /// Strict-FIFO miss path to PCM (writebacks ahead of the demand read
  /// that evicted them).
  std::deque<MemoryRequest> pending_;

  /// Tiered-latency state: per-DRAM-bank open row.
  struct OpenRow {
    u64 row = 0;
    bool valid = false;
  };
  std::vector<OpenRow> open_row_;

  /// DRAM-hit completions in flight, parked so the simulator callback
  /// captures one u32 instead of a ~300-byte MemoryRequest.
  RequestPool hits_;
  u64 outstanding_ = 0;

  ForwardFn forward_;
  MemoryInterface::ReadCallback on_read_;
  MemoryInterface::WriteCallback on_write_;

  stats::Counter& c_hits_;
  stats::Counter& c_misses_;
  stats::Counter& c_writebacks_;
  stats::Counter& c_clean_evicts_;
  stats::Counter& c_group_cleans_;
};

}  // namespace tw::mem
