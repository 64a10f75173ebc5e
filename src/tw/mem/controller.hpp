#pragma once
// PCM memory controller: FRFCFS with separate 32-entry read/write queues
// (Table II). Reads have priority; writes drain when the write queue fills
// (the paper's "variable FRFCFS ... services the write requests only when
// the write queue is full"), which is exactly what makes write latency
// long for read-dominant workloads (Section V.B.3). An opportunistic
// drain policy is provided as an ablation.
//
// Scheduling is bank-indexed: every queued request lives in one pooled
// node threaded onto an age-ordered global FIFO *and* a per-subarray
// (reads) or per-bank (writes) FIFO, with bitmaps tracking which buckets
// are non-empty. A scheduling decision then inspects only per-bank list
// heads/cursors — O(banks) instead of O(queue) — and batch formation
// walks a single bank's list. The selection is order-identical to a
// linear FRFCFS sweep of the global queue (the pre-index implementation
// survives as the differential-test oracle in
// tests/reference_controller.hpp), and it is the only dispatch path:
//  * requests are bucketed by where their line is served *now*, as
//    decided by the AddressIndirection module (Start-Gap wear leveling
//    plus the stuck-bank redirect). A gap movement relocates exactly one
//    logical line; its queued requests move to their new buckets in age
//    order, and the write sweep rebuilds its cursors, continuing past
//    the last issued write as the linear sweep does;
//  * write pausing folds into read collection: the oldest read blocked
//    on a subarray asks the bank's in-service write to pause, and a
//    pause boundary on `now` frees the subarray for the younger reads
//    behind it.
//
// PCM has no row buffer to exploit, so FRFCFS degenerates to
// oldest-first over requests whose bank is idle. The controller still
// tracks each bank's open row (last-activated) in O(1) per issue for the
// mem.row_hits/row_misses locality stats.
//
// Optional substrate features from the paper's related work:
//  * write pausing (ref [24]): a long write in service is paused at
//    write-unit boundaries when a read arrives for its bank, and resumed
//    once no reads are waiting there;
//  * Start-Gap wear leveling (ref [5]): logical lines rotate through
//    physical slots; gap movements cost an internal migration write.
//
// A single write in service is one InService record on its bank's list:
// one entry at most, or up to palp.write_ways concurrent partition writes
// under PALP. Every start (issue or resume) gives the record a fresh
// epoch that keys its completion event; a pause moves the record aside,
// so the superseded event finds no epoch and is ignored. Batches own the
// bank (and under PALP the pump) through their own completion event.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "tw/common/inline_vec.hpp"
#include "tw/common/intrusive_list.hpp"
#include "tw/common/types.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/mem/indirection.hpp"
#include "tw/mem/interface.hpp"
#include "tw/mem/request.hpp"
#include "tw/pcm/bank.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/pcm/pump.hpp"
#include "tw/pcm/wear.hpp"
#include "tw/schemes/write_scheme.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"

namespace tw::mem {

/// Partition-level parallelism (PALP, arXiv:1908.07966): treat the bank's
/// charge pump as a budget-consuming resource shared by per-partition
/// write drivers instead of a binary bank lock. Requires
/// `subarrays_per_bank > 1` to have any effect (single-partition banks
/// stay on the legacy serialized path bit-identically).
struct PalpConfig {
  bool enabled = false;
  /// Partition writes allowed to draw from the pump concurrently. Each
  /// concurrent way plans against budget/write_ways (the pump splits its
  /// current evenly across active write drivers).
  u32 write_ways = 2;
  /// PALP's read-after-write-current limit: reads admitted per bank while
  /// the pump is loaded. 0 = reads wait for the pump to unload.
  u32 max_rww_reads = 2;
};

/// Controller policy knobs.
struct ControllerConfig {
  u32 read_queue_entries = 32;
  u32 write_queue_entries = 32;

  /// When to issue writes.
  enum class DrainPolicy : u8 {
    kStrict,         ///< only when the write queue is full (paper)
    kOpportunistic,  ///< also when no reads are pending
  };
  DrainPolicy drain = DrainPolicy::kStrict;
  /// Once draining starts, keep draining until the queue falls to this.
  u32 drain_low_watermark = 16;

  /// Channel transfer time for one line of read data.
  Tick read_bus_time = ns(8);
  /// Latency of a read forwarded from the write queue.
  Tick forward_latency = ns(5);

  bool write_coalescing = true;   ///< merge writes to the same line in-queue
  bool read_forwarding = true;    ///< serve reads from queued write data

  /// Pause an in-service write at the next write-unit boundary when a
  /// read arrives for its bank (Qureshi et al., HPCA'10 / paper ref [24]).
  bool write_pausing = false;
  /// Pause boundary granularity (default: one write unit, Tset).
  Tick pause_quantum = ns(430);

  /// Start-Gap wear leveling (paper ref [5]); regions are carved from the
  /// line index space.
  bool wear_leveling = false;
  StartGapConfig start_gap;

  /// Batched writes: hand up to this many queued same-bank writes to the
  /// scheme at once (batched Tetris packs their units jointly; other
  /// schemes serialize internally). Batches are not pausable.
  u32 write_batch = 1;

  /// Partition-level parallelism knobs (read-while-write and concurrent
  /// partition writes inside a bank). Mutually exclusive with
  /// write_pausing: pausing models pump preemption, PALP models pump
  /// sharing — composing them would double-count the pump.
  PalpConfig palp;

  /// Added to every trace-track instance index this controller emits.
  /// MemorySystem gives channel c a base of c * 4096 so per-channel bank,
  /// queue and FSM tracks stay distinct in one merged trace. 0 (the
  /// default) keeps single-channel traces byte-identical to before.
  u32 track_base = 0;

  bool valid() const {
    return read_queue_entries > 0 && write_queue_entries > 0 &&
           drain_low_watermark < write_queue_entries &&
           (!write_pausing || pause_quantum > 0) &&
           (!wear_leveling || start_gap.valid()) && write_batch >= 1 &&
           (!palp.enabled || (!write_pausing && palp.write_ways >= 1));
  }
};

/// The memory controller + PCM bank array + content store, wired into an
/// event-driven Simulator. One instance models one channel.
class Controller : public MemoryInterface {
 public:
  using ReadCallback = MemoryInterface::ReadCallback;
  using WriteCallback = MemoryInterface::WriteCallback;
  using SpaceCallback = MemoryInterface::SpaceCallback;
  using PoolSpaceCallback = MemoryInterface::PoolSpaceCallback;

  /// The scheme is shared (not owned); it must outlive the controller.
  /// `ones_bias` seeds the first-touch memory content distribution.
  /// `fault`, when non-null, injects transient pulse failures (priced as
  /// verify-and-retry sub-requests), charge-pump brown-outs (shrunken
  /// plan budgets) and stuck-bank remapping; it must outlive the
  /// controller. Null keeps every code path bit-identical to a fault-free
  /// build.
  Controller(sim::Simulator& sim, const pcm::PcmConfig& pcm_cfg,
             ControllerConfig cfg, schemes::WriteScheme& scheme,
             stats::Registry& registry, u64 data_seed = 1,
             double ones_bias = 0.5,
             const fault::FaultModel* fault = nullptr);

  /// Try to accept a request. Returns false when the target queue is full
  /// (the caller should wait for the space callback and retry).
  bool enqueue(MemoryRequest req) override;

  /// Invoked when a read's data returns.
  void set_read_callback(ReadCallback cb) override { on_read_ = std::move(cb); }
  /// Invoked when a write completes service (informational).
  void set_write_callback(WriteCallback cb) override {
    on_write_ = std::move(cb);
  }
  /// Invoked whenever queue space frees up.
  void set_space_callback(SpaceCallback cb) override {
    on_space_ = [cb = std::move(cb)](u32) { cb(); };
  }
  /// The same wake, always anonymous: the controller has no credit pools.
  void set_pool_space_callback(PoolSpaceCallback cb) override {
    on_space_ = std::move(cb);
  }

  /// True when both queues are empty and all banks idle (quiesced).
  bool idle() const override;

  u32 read_queue_depth() const { return read_age_.size(); }
  u32 write_queue_depth() const { return write_age_.size(); }
  bool write_queue_full() const {
    return write_age_.size() >= cfg_.write_queue_entries;
  }

  /// Deepest the read/write queues ever got (for queue-stat invariants).
  u32 read_queue_peak() const { return read_q_peak_; }
  u32 write_queue_peak() const { return write_q_peak_; }

  /// Physical line address a logical line currently maps to (identity
  /// unless wear leveling is on). Exposed for tests and wear reports.
  Addr physical_of(Addr logical_line_addr) {
    return remap_.physical_of(logical_line_addr);
  }

  DataStore& store() { return store_; }
  DataStore& store_for(Addr) override { return store_; }
  const pcm::EnergyModel& energy() const { return energy_; }
  const pcm::WearTracker& wear() const { return wear_; }
  const AddressMap& address_map() const { return map_; }
  const std::vector<pcm::PcmBank>& banks() const { return banks_; }
  const std::vector<pcm::PcmBank>& subarrays() const { return subarrays_; }
  const std::vector<pcm::ChargePump>& pumps() const { return pumps_; }
  /// True when PALP admission is live (enabled and the geometry has more
  /// than one partition per bank to overlap).
  bool palp_active() const { return palp_on_; }
  u64 gap_moves() const;

 private:
  /// One queued request: the payload plus its memberships in the global
  /// age FIFO and its (bank or subarray) bucket FIFO. A write batch in
  /// service keeps its members' nodes, chained through by_bucket.
  struct ReqNode {
    MemoryRequest req;
    ListLink by_age;     ///< global FIFO over all queued reads or writes
    ListLink by_bucket;  ///< per-subarray (reads) / per-bank (writes) FIFO
    Placement at;        ///< current placement; at.sub / at.bank = bucket
  };
  using NodePool = ChunkPool<ReqNode>;
  using AgeList = IndexList<ReqNode, &ReqNode::by_age>;
  using BucketList = IndexList<ReqNode, &ReqNode::by_bucket>;

  /// A single write in service on a bank: issued, resumed after a pause,
  /// or (under PALP) one of several partition writes sharing the pump.
  /// Its completion event is keyed by `epoch`; a paused write keeps the
  /// same record with [start, end) holding the service still owed.
  struct InService {
    MemoryRequest req;
    Tick start = 0;
    Tick end = 0;
    u64 epoch = 0;
    u32 subarray = 0;  ///< flat subarray the write is programming
  };
  /// Last row activated in a bank (closed-row PCM locality stats).
  struct OpenRow {
    u64 row = 0;
    bool valid = false;
  };

  void dispatch();
  void dispatch_reads(Tick now);
  void dispatch_writes(Tick now);
  void schedule_dispatch();
  /// Record one read's enqueue-to-completion latency.
  void record_read_latency(Tick latency);
  /// Stamp `req` complete now, record its write latency and hand it to
  /// the write callback. The caller schedules the next dispatch.
  void finish_write(MemoryRequest& req);

  // Node plumbing. enqueue_* link a freshly filled node into both lists
  // and maintain the non-empty bitmaps; unlink_* do the reverse. The node
  // id is released back to the pool by take_node.
  u32 make_node(MemoryRequest&& req, const Placement& at);
  MemoryRequest take_node(u32 id);
  void link_read(u32 id);
  void unlink_read(u32 id);
  void link_write(u32 id);
  void unlink_write(u32 id);

  /// Oldest issuable write in bank `bank` at `now` scanning from node
  /// `from`; kNilIndex if none.
  u32 write_cursor(u32 bank, u32 from, Tick now) const;
  /// Move the queued requests of a relocated line into the buckets of its
  /// new placement, keeping age order.
  void relocate_queued(const Relocation& r);

  void note_row_activate(u32 bank, Addr phys);

  // Issue paths take unlinked node ids; issue_write_batch takes the head
  // of a chain of >= 2 same-bank members linked through by_bucket, whose
  // nodes stay allocated until the batch completes.
  void issue_read(u32 id);
  void issue_write(u32 id);
  void issue_write_batch(u32 head);
  /// Start (or resume) `w` on `bank` now: give it a fresh epoch, record it
  /// in service and schedule its completion at w.end.
  void start_service(u32 bank, InService w);
  /// Completion event of the write with `epoch`. An epoch not in service
  /// belongs to a write that a pause superseded; it is ignored.
  void complete_write(u32 bank, u64 epoch);

  // PALP admission. Allowances shrink inside charge-pump brown-out
  // windows (the fault ladder's budget factor scales concurrency the
  // same way it scales the packing budget).
  u32 palp_write_allowance(Tick now) const;
  u32 rww_allowance(Tick now) const;
  bool palp_read_admissible(u32 bank, Tick now) const;
  /// Can a (single) write start drawing on `bank`'s pump at `now`?
  /// Legacy mode: the binary bank lock. PALP: pump way admission.
  bool bank_ready_for_write(u32 bank, Tick now) const;
  /// Count + trace a read held back by the read-after-write-current cap.
  void note_palp_stall(u32 bank, Tick now);
  /// Under TW_VERIFY=1, fail if `bank`'s pump state breaks the nominal
  /// write-way or read-after-write-current caps (pcm::ChargePump::
  /// admission_error). Called after every pump admission.
  void check_palp_admission(u32 bank) const;
  bool try_pause(u32 bank, u32 wanted_subarray);
  void resume_paused(u32 bank);
  /// Flip drain mode, emitting a trace record on every transition.
  void set_draining(bool on);
  void notify_space();
  /// Migrate the relocated line and re-bucket its queued requests.
  void apply_gap_move(const Relocation& r);
  /// Count + trace a service redirected off a stuck bank (issue paths).
  void note_stuck_remap(const Placement& at);
  /// Budget scope around a scheme plan call: the scheme plans against
  /// the brown-out factor (1 outside a brown-out window) divided across
  /// `ways` concurrent writers — a PALP partition write passes
  /// palp.write_ways, everything else 1. Returns the scale applied; pass
  /// it to end_plan_scope() after the plan (and any fault pricing that
  /// must see the same budget) completes.
  double begin_plan_scope(Tick now, u32 ways = 1);
  void end_plan_scope(double factor);
  /// Account one planned line write: counters, energy, wear, fault
  /// pricing (inside the caller's plan scope) and the open row. Returns
  /// the fault ladder's extra service latency.
  Tick account_write(const Placement& at, const schemes::ServicePlan& plan,
                     Tick now);
  /// Inject transient pulse failures into one planned line write:
  /// verify-and-retry pricing, retry energy/wear, FailedLine surfacing.
  /// Returns the extra service latency.
  Tick apply_line_faults(Addr phys, const schemes::ServicePlan& plan);

  sim::Simulator& sim_;
  pcm::PcmConfig pcm_;
  ControllerConfig cfg_;
  schemes::WriteScheme& scheme_;
  stats::Registry& reg_;
  const fault::FaultModel* fault_;
  u64 fault_seq_ = 0;  ///< per-service ordinal feeding fault site hashes

  AddressMap map_;
  AddressIndirection remap_;
  DataStore store_;
  std::vector<pcm::PcmBank> banks_;      ///< write serialization (charge pump)
  std::vector<pcm::PcmBank> subarrays_;  ///< array occupancy (reads + writes)
  std::vector<pcm::ChargePump> pumps_;   ///< PALP pump occupancy, per bank
  pcm::EnergyModel energy_;
  pcm::WearTracker wear_;

  // Bank-indexed request queues: pooled nodes on a global age FIFO plus
  // per-subarray (reads) / per-bank (writes) FIFOs, with bitmaps of
  // non-empty buckets maintained on enqueue/issue.
  NodePool nodes_;
  AgeList read_age_;
  AgeList write_age_;
  std::vector<BucketList> read_by_sub_;
  std::vector<BucketList> write_by_bank_;
  std::vector<u64> subs_with_reads_;    ///< bitmap over flat subarray ids
  std::vector<u64> banks_with_writes_;  ///< bitmap over flat bank ids

  /// Scratch for one read-dispatch round: the oldest issuable read of
  /// each ready subarray bucket, and the reads that asked for a pause
  /// this round. Reserved in the constructor so dispatch never allocates.
  struct ReadCursor {
    u32 node;
    u32 sub;
  };
  std::vector<ReadCursor> read_ready_;
  std::vector<u32> pause_askers_;

  std::vector<OpenRow> open_row_;  ///< per-bank last-activated row

  bool draining_ = false;
  bool dispatch_scheduled_ = false;
  bool space_scheduled_ = false;
  u64 next_id_ = 1;
  u64 inflight_ = 0;  ///< issued commands not yet complete
  u32 read_q_peak_ = 0;
  u32 write_q_peak_ = 0;

  /// Writes in service, per flat bank: at most one outside PALP, at most
  /// palp.write_ways under it (reserved up front, so issue never
  /// allocates).
  std::vector<std::vector<InService>> in_service_;
  /// Write pausing: the paused write of each bank, awaiting resumption.
  std::vector<std::optional<InService>> paused_write_;
  std::vector<u64> bank_epoch_;
  u32 paused_count_ = 0;  ///< banks with a paused write (O(1) idle check)

  /// cfg_.palp.enabled gated on a multi-partition geometry: with one
  /// subarray per bank there is nothing to overlap, and forcing the
  /// legacy path keeps partitions=1 runs bit-identical whatever the
  /// palp.* knobs say.
  bool palp_on_ = false;
  /// palp_on_ and TW_VERIFY=1: re-check every pump admission.
  bool verify_palp_ = false;

  // In-flight read results: completion callbacks capture one slot id
  // instead of a full MemoryRequest, keeping them inside the simulator's
  // 48 B inline-callback budget (and allocation-free).
  RequestPool read_results_;

  ReadCallback on_read_;
  WriteCallback on_write_;
  PoolSpaceCallback on_space_;

  // Stats (owned by the registry).
  stats::Counter& c_reads_;
  stats::Counter& c_writes_;
  stats::Counter& c_forwarded_;
  stats::Counter& c_coalesced_;
  stats::Counter& c_silent_;
  stats::Counter& c_flipped_units_;
  stats::Counter& c_pauses_;
  stats::Counter& c_gap_moves_;
  stats::Counter& c_batched_;
  stats::Counter& c_row_hits_;
  stats::Counter& c_row_misses_;
  stats::Counter& c_dispatches_;
  stats::Counter& c_fault_retries_;
  stats::Counter& c_failed_lines_;
  stats::Counter& c_brownout_writes_;
  stats::Counter& c_stuck_remaps_;
  stats::Counter& c_palp_overlap_reads_;
  stats::Counter& c_palp_pump_stalls_;
  stats::Counter& c_palp_write_overlaps_;
  stats::Counter& c_enc_writes_;
  stats::Counter& c_enc_coded_units_;
  stats::Counter& c_enc_tag_bits_;
  stats::Accumulator& a_read_latency_;
  stats::Accumulator& a_write_latency_;
  stats::Accumulator& a_write_units_;
  stats::Accumulator& a_write_service_;
  stats::Accumulator& a_power_util_;
  stats::Accumulator& a_batch_lines_;
  stats::Accumulator& a_batch_occupancy_;
  stats::Accumulator& a_palp_batch_spread_;
  stats::Log2Histogram& h_read_latency_;
  stats::Log2Histogram& h_write_latency_;
};

}  // namespace tw::mem
