#pragma once
// Multi-channel memory system: an XBar front-end routing requests across
// per-channel Controller instances (the PCMSimMemorySystem shape).
//
// channels == 1 is a pure passthrough: one Controller lives on the
// front simulator, the main registry collects its stats, callbacks are
// forwarded unmodified — bit-identical to wiring the Controller up
// directly (locked by golden_fig_test).
//
// channels > 1 shards the simulation: every channel gets its own
// Simulator, Controller, WriteScheme, Registry and (optional)
// FaultModel, all advanced in lockstep quanta by a ShardedEngine whose
// quantum equals the XBar latency. Request/completion traffic crosses
// domains as latency-Q messages; flow control is credit-based on the
// front side (credits sized to the channel queues) so the front never
// needs to peek at a channel's queue state mid-window:
//
//   * a request consumes a read/write credit for its channel; zero
//     credits => enqueue() returns false, and the next credit-release
//     message for that pool wakes the front;
//   * a completed read/write releases its credit (riding the completion
//     message); a write that coalesces into a queued same-line write
//     (detected at delivery: queue depth unchanged) releases its credit
//     immediately, since no completion will ever fire for it. Releasing
//     more credits than were lent fails the run;
//   * each channel's read and write credits form a credit pool
//     (credit_pool() = channel * 2 + is_write): credits rise only when a
//     release message arrives, so a refused pool stays refused until its
//     next release. A pool remembers whether it refused since its last
//     release, and only such a release wakes the front, naming the pool
//     (set_pool_space_callback). Passthrough (channels == 1) and the DRAM
//     tier promise no pools and wake anonymously;
//   * a credit is held until its completion (or coalesce release) reaches
//     the front, one XBar hop after the request left the controller
//     queue, so every queued request holds a credit and a credited
//     delivery always finds room. Channel controllers get no space
//     callback; a refused delivery is a credit-accounting bug and fails.
//
// Start-Gap wear leveling composes only approximately with channels > 1
// (a controller's remap permutes line addresses within its own address
// space, which is self-consistent but no longer round-trips through the
// global channel decode); golden and determinism configs keep it off.

#include <functional>
#include <memory>
#include <vector>

#include "tw/common/types.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/controller.hpp"
#include "tw/mem/dram_tier.hpp"
#include "tw/mem/interface.hpp"
#include "tw/schemes/write_scheme.hpp"
#include "tw/sim/sharded.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"
#include "tw/trace/tracer.hpp"

namespace tw::mem {

/// Builds one WriteScheme instance per channel (schemes carry mutable
/// planning state, so channels cannot share one). Supplied by the
/// harness so mem/ stays below core/ in the layering.
using SchemeFactory =
    std::function<std::unique_ptr<schemes::WriteScheme>(u32 channel)>;

class MemorySystem : public MemoryInterface {
 public:
  /// Per-channel trace-track namespace stride: channel c's controller
  /// emits bank/queue/FSM tracks at instance index c * kChannelTrackStride.
  static constexpr u32 kChannelTrackStride = 4096;

  /// `front_sim` hosts the CPU/XBar domain. Geometry (pcm.geometry.channels,
  /// channel_interleave) decides the topology. `registry` is the main
  /// registry: channels == 1 registers stats there directly; channels > 1
  /// uses per-channel registries folded in by merge_stats().
  /// `xbar_latency` is both the modeled XBar hop latency and the sharded
  /// quantum; `sim_threads` is accepted and ignored (the channel phase
  /// runs on the calling thread, see ShardedEngine).
  /// `dram` optionally fronts every channel with a DramTier absorbing
  /// hot lines before the PCM write path; the default (disabled) keeps
  /// every code path bit-identical to a system without the tier.
  MemorySystem(sim::Simulator& front_sim, const pcm::PcmConfig& pcm,
               const ControllerConfig& ccfg, const SchemeFactory& factory,
               stats::Registry& registry, const fault::FaultConfig& fault,
               u64 seed, double ones_bias, Tick xbar_latency, u32 sim_threads,
               const DramConfig& dram = {});
  ~MemorySystem() override;

  // MemoryInterface (front-side, called from the front domain).
  bool enqueue(MemoryRequest req) override;
  void set_read_callback(ReadCallback cb) override;
  void set_write_callback(WriteCallback cb) override;
  void set_space_callback(SpaceCallback cb) override;
  void set_pool_space_callback(PoolSpaceCallback cb) override;
  bool idle() const override;
  u32 credit_pool(Addr addr, bool is_write) const override;
  DataStore& store_for(Addr addr) override;

  /// Advance the whole system (front + channels) to `limit`.
  u64 run(Tick limit);

  /// Events executed across every simulation domain.
  u64 executed_events() const;

  u32 channels() const { return channels_; }
  Controller& channel(u32 c) { return *chans_[c].ctl; }
  const Controller& channel(u32 c) const { return *chans_[c].ctl; }
  const schemes::WriteScheme& scheme() const { return *chans_[0].scheme; }
  const AddressMap& address_map() const { return map_; }

  /// Channel c's private registry (nullptr for channels == 1, where the
  /// controller registers in the main registry directly).
  stats::Registry* channel_registry(u32 c) { return chans_[c].reg.get(); }

  /// True when the DRAM front tier is active.
  bool dram_active() const { return dram_on_; }
  /// Channel c's DRAM tier (nullptr when the tier is disabled).
  DramTier* dram_tier(u32 c) {
    return dram_on_ ? tiers_[c].get() : nullptr;
  }

  /// Fold per-channel registries into the main registry in channel order.
  /// No-op for channels == 1 (stats already live there). Call once after
  /// run().
  void merge_stats();

  /// Pre-create one ring per domain (front first, then channels in
  /// order) and bind them to the engine, so trace bytes follow domain
  /// order. No-op for channels == 1 (the plain Attach path
  /// applies). Call before run().
  void bind_trace(trace::Tracer& tracer);

  /// Ring bound to the front domain (nullptr unless bind_trace ran).
  trace::TraceRing* front_ring() { return front_ring_; }

 private:
  /// One channel's read or write credits (channels > 1).
  struct CreditPool {
    u32 avail = 0;
    u32 cap = 0;
    bool starved = false;  ///< refused a request since its last release
  };
  struct Channel {
    std::unique_ptr<sim::Simulator> sim;   ///< null for channels == 1
    std::unique_ptr<stats::Registry> reg;  ///< null for channels == 1
    std::unique_ptr<schemes::WriteScheme> scheme;
    std::unique_ptr<fault::FaultModel> fmodel;
    std::unique_ptr<Controller> ctl;
    CreditPool credits[2];  ///< indexed by is_write
  };
  /// credit_pool() of channel c's read or write credits.
  static u32 pool_id(u32 c, bool is_write) {
    return c * 2 + (is_write ? 1 : 0);
  }

  /// Spend one of channel c's credits on `req` and post it across the
  /// XBar. Refused (false, `req` untouched) when the pool is empty.
  bool send(u32 c, MemoryRequest& req);
  /// Hand the credited request parked in transit slot `slot` to channel
  /// c's controller (channel domain), then free the slot.
  void deliver(u32 c, u32 slot);
  /// Post a completed request back to the front (channel domain), where
  /// it releases its credit and reaches the completion dispatch.
  void post_completion(u32 c, const MemoryRequest& req);
  void post_credit(u32 c, bool is_write);
  void release_credit(u32 c, bool is_write);
  /// Channel c's PCM side has room again: let its DRAM tier forward and
  /// wake the front once the tier can take requests.
  void tier_space(u32 c);
  /// Completion dispatch on the front domain: routes through the DRAM
  /// tier when it is active (swallowing tier writebacks), else straight
  /// to the user callbacks.
  void front_read_complete(u32 c, const MemoryRequest& req);
  void front_write_complete(u32 c, const MemoryRequest& req);
  /// Build and install channel c's DRAM tier (forward fn + callbacks).
  void wire_dram(u32 c, const DramConfig& dram);

  sim::Simulator& front_;
  stats::Registry& main_reg_;
  AddressMap map_;
  u32 channels_;
  std::vector<Channel> chans_;
  std::unique_ptr<sim::ShardedEngine> engine_;  ///< null for channels == 1
  /// Requests crossing the XBar, either way; each message captures
  /// {this, c, slot}. Parked from one domain and taken in another, which
  /// is safe only because ShardedEngine runs every domain on the calling
  /// thread.
  RequestPool transit_;
  /// DRAM front tiers, one per channel (empty when dram.enabled=false so
  /// the disabled configuration is a pure passthrough).
  std::vector<std::unique_ptr<DramTier>> tiers_;
  bool dram_on_ = false;
  /// The DRAM tier refused an enqueue since the front was last woken.
  bool tier_starved_ = false;
  trace::TraceRing* front_ring_ = nullptr;

  ReadCallback on_read_;
  WriteCallback on_write_;
  PoolSpaceCallback on_space_;
};

}  // namespace tw::mem
