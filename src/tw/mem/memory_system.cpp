#include "tw/mem/memory_system.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "tw/common/assert.hpp"

namespace tw::mem {

MemorySystem::MemorySystem(sim::Simulator& front_sim,
                           const pcm::PcmConfig& pcm,
                           const ControllerConfig& ccfg,
                           const SchemeFactory& factory,
                           stats::Registry& registry,
                           const fault::FaultConfig& fault, u64 seed,
                           double ones_bias, Tick xbar_latency,
                           u32 /*sim_threads*/, const DramConfig& dram)
    : front_(front_sim),
      main_reg_(registry),
      map_(pcm.geometry),
      channels_(map_.channels()) {
  const std::string derr = dram.error(pcm.geometry);
  if (!derr.empty()) throw std::invalid_argument("MemorySystem: " + derr);
  const u32 total_banks = pcm.geometry.banks * pcm.geometry.ranks;
  chans_.resize(channels_);

  if (channels_ == 1) {
    // Passthrough: the controller lives on the front simulator and
    // registers its stats in the main registry — bit-identical to the
    // pre-multi-channel wiring.
    Channel& ch = chans_[0];
    ch.scheme = factory(0);
    if (fault.enabled()) {
      ch.fmodel =
          std::make_unique<fault::FaultModel>(fault, total_banks, seed);
    }
    ch.ctl = std::make_unique<Controller>(front_sim, pcm, ccfg, *ch.scheme,
                                          registry, seed, ones_bias,
                                          ch.fmodel.get());
  } else {
    engine_ = std::make_unique<sim::ShardedEngine>(xbar_latency);
    const u32 front_domain = engine_->add_domain(front_sim);
    TW_ASSERT(front_domain == 0);

    for (u32 c = 0; c < channels_; ++c) {
      Channel& ch = chans_[c];
      ch.sim = std::make_unique<sim::Simulator>();
      ch.reg = std::make_unique<stats::Registry>();
      ch.scheme = factory(c);
      if (fault.enabled()) {
        // Per-channel fault streams: same profile, decorrelated sites.
        ch.fmodel = std::make_unique<fault::FaultModel>(
            fault, total_banks, seed + c * 0x9E3779B97F4A7C15ull);
      }
      ControllerConfig chan_cfg = ccfg;
      chan_cfg.track_base = c * kChannelTrackStride;
      ch.ctl = std::make_unique<Controller>(*ch.sim, pcm, chan_cfg,
                                            *ch.scheme, *ch.reg, seed,
                                            ones_bias, ch.fmodel.get());
      ch.credits[0].avail = ch.credits[0].cap = ccfg.read_queue_entries;
      ch.credits[1].avail = ch.credits[1].cap = ccfg.write_queue_entries;
      const u32 domain = engine_->add_domain(*ch.sim);
      TW_ASSERT(domain == c + 1);

      // Channel-side wiring (runs in the channel's domain): completions
      // ride latency-Q messages back to the front, releasing their credit
      // there. No space callback: credits guarantee queue room (deliver).
      ch.ctl->set_read_callback(
          [this, c](const MemoryRequest& req) { post_completion(c, req); });
      ch.ctl->set_write_callback(
          [this, c](const MemoryRequest& req) { post_completion(c, req); });
    }
  }

  if (dram.enabled) {
    dram_on_ = true;
    tiers_.resize(channels_);
    for (u32 c = 0; c < channels_; ++c) wire_dram(c, dram);
  }
}

void MemorySystem::wire_dram(u32 c, const DramConfig& dram) {
  tiers_[c] = std::make_unique<DramTier>(front_, dram, map_, c, main_reg_);
  DramTier* tier = tiers_[c].get();
  // Tier-side completions (DRAM hits and demand-read returns) feed the
  // user callbacks stored on the MemorySystem; reading them at call time
  // lets set_read_callback() run after construction.
  tier->set_read_callback([this](const MemoryRequest& r) {
    if (on_read_) on_read_(r);
  });
  tier->set_write_callback([this](const MemoryRequest& r) {
    if (on_write_) on_write_(r);
  });
  if (channels_ == 1) {
    // Miss path straight into the controller; passing the lvalue copies,
    // so a refusal leaves the tier's pending entry intact.
    tier->set_forward(
        [this](MemoryRequest& r) { return chans_[0].ctl->enqueue(r); });
    chans_[0].ctl->set_read_callback(
        [this](const MemoryRequest& r) { front_read_complete(0, r); });
    chans_[0].ctl->set_write_callback(
        [this](const MemoryRequest& r) { front_write_complete(0, r); });
    chans_[0].ctl->set_pool_space_callback([this](u32) { tier_space(0); });
  } else {
    // Miss path consumes a channel credit exactly like a front enqueue
    // does without the tier; DRAM hits never reach this function, which
    // is what keeps them credit-free.
    tier->set_forward([this, c](MemoryRequest& r) { return send(c, r); });
  }
}

void MemorySystem::front_read_complete(u32 c, const MemoryRequest& req) {
  if (dram_on_) {
    tiers_[c]->on_pcm_read_complete(req);
    return;
  }
  if (on_read_) on_read_(req);
}

void MemorySystem::front_write_complete(u32 c, const MemoryRequest& req) {
  if (dram_on_ && tiers_[c]->absorbs_write_complete(req)) return;
  if (on_write_) on_write_(req);
}

MemorySystem::~MemorySystem() = default;

bool MemorySystem::enqueue(MemoryRequest req) {
  if (dram_on_) {
    const u32 c = channels_ == 1 ? 0 : map_.channel_of(req.addr);
    const bool ok = tiers_[c]->enqueue(std::move(req));
    if (!ok) tier_starved_ = true;
    return ok;
  }
  if (channels_ == 1) return chans_[0].ctl->enqueue(std::move(req));
  return send(map_.channel_of(req.addr), req);
}

bool MemorySystem::send(u32 c, MemoryRequest& req) {
  CreditPool& pool = chans_[c].credits[req.is_write()];
  if (pool.avail == 0) {
    pool.starved = true;  // the DRAM tier's wakes ignore it (tier_space)
    return false;
  }
  --pool.avail;
  const u32 slot = transit_.put(std::move(req));
  engine_->post(0, c + 1, sim::Priority::kController,
                [this, c, slot] { deliver(c, slot); });
  return true;
}

void MemorySystem::post_completion(u32 c, const MemoryRequest& req) {
  const u32 slot = transit_.put(req);
  engine_->post(c + 1, 0, sim::Priority::kDeviceComplete, [this, c, slot] {
    // Completed in place: the slot is held until the callbacks return, so
    // a send they trigger parks its request elsewhere.
    const MemoryRequest& done = transit_[slot];
    release_credit(c, done.is_write());
    if (done.is_write()) {
      front_write_complete(c, done);
    } else {
      front_read_complete(c, done);
    }
    transit_.release(slot);
  });
}

void MemorySystem::set_read_callback(ReadCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_read_callback(std::move(cb));
  } else {
    on_read_ = std::move(cb);
  }
}

void MemorySystem::set_write_callback(WriteCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_write_callback(std::move(cb));
  } else {
    on_write_ = std::move(cb);
  }
}

void MemorySystem::set_space_callback(SpaceCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_space_callback(std::move(cb));
  } else {
    on_space_ = [cb = std::move(cb)](u32) { cb(); };
  }
}

void MemorySystem::set_pool_space_callback(PoolSpaceCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_pool_space_callback(std::move(cb));
  } else {
    on_space_ = std::move(cb);
  }
}

bool MemorySystem::idle() const {
  for (const Channel& ch : chans_) {
    if (!ch.ctl->idle()) return false;
    if (ch.credits[0].avail != ch.credits[0].cap ||
        ch.credits[1].avail != ch.credits[1].cap) {
      return false;  // requests or completions still in flight
    }
  }
  if (dram_on_) {
    for (const auto& tier : tiers_) {
      if (!tier->idle()) return false;
    }
  }
  return true;
}

u32 MemorySystem::credit_pool(Addr addr, bool is_write) const {
  // Passthrough: Controller::enqueue draws a request id before its full
  // check, so even a refused call has a side effect. DRAM tier: a refusal
  // is about the tier's pending queue, which drains on its own schedule.
  if (channels_ == 1 || dram_on_) return kNoCreditPool;
  return pool_id(map_.channel_of(addr), is_write);
}

DataStore& MemorySystem::store_for(Addr addr) {
  // The front domain reads a channel domain's store; safe only because
  // ShardedEngine runs every domain on the calling thread.
  return chans_[channels_ == 1 ? 0 : map_.channel_of(addr)].ctl->store();
}

u64 MemorySystem::run(Tick limit) {
  return channels_ == 1 ? front_.run(limit) : engine_->run(limit);
}

u64 MemorySystem::executed_events() const {
  return channels_ == 1 ? front_.executed() : engine_->executed_total();
}

void MemorySystem::merge_stats() {
  if (channels_ == 1) return;
  // Fixed channel order keeps merged accumulator arithmetic (and thus
  // reported doubles) identical from run to run.
  for (const Channel& ch : chans_) main_reg_.merge_from(*ch.reg);
}

void MemorySystem::bind_trace(trace::Tracer& tracer) {
  if (channels_ == 1) return;
  front_ring_ = &tracer.make_ring();
  engine_->bind_trace(0, front_ring_, tracer.mask());
  for (u32 c = 0; c < channels_; ++c) {
    engine_->bind_trace(c + 1, &tracer.make_ring(), tracer.mask());
  }
}

void MemorySystem::deliver(u32 c, u32 slot) {
  // Every queued request holds a credit (see the header), so a credited
  // delivery always finds room; a refusal means the accounting drifted.
  Controller& ctl = *chans_[c].ctl;
  const bool is_write = transit_[slot].is_write();
  const u32 depth_before = ctl.write_queue_depth();
  const bool accepted = ctl.enqueue(std::move(transit_[slot]));
  transit_.release(slot);
  if (!accepted) {
    TW_FAIL(("channel " + std::to_string(c) + " refused a credited " +
             (is_write ? "write" : "read") + " (credit accounting drifted)")
                .c_str());
  }
  if (is_write && ctl.write_queue_depth() == depth_before) {
    // Coalesced into a queued same-line write: no completion will ever
    // fire for this request, so hand its credit back now.
    post_credit(c, true);
  }
}

void MemorySystem::post_credit(u32 c, bool is_write) {
  engine_->post(c + 1, 0, sim::Priority::kDeviceComplete,
                [this, c, is_write] { release_credit(c, is_write); });
}

void MemorySystem::release_credit(u32 c, bool is_write) {
  CreditPool& pool = chans_[c].credits[is_write];
  if (pool.avail == pool.cap) {
    TW_FAIL(("channel " + std::to_string(c) + " got back a " +
             (is_write ? "write" : "read") +
             " credit it never lent (credit accounting drifted)")
                .c_str());
  }
  ++pool.avail;
  if (dram_on_) {
    tier_space(c);
    return;
  }
  // Only this pool's requests can use the credit, and only a pool that
  // refused one has a waiter to wake.
  if (pool.starved) {
    pool.starved = false;
    if (on_space_) on_space_(pool_id(c, is_write));
  }
}

void MemorySystem::tier_space(u32 c) {
  // The freed space may let the tier forward a pending writeback or
  // demand miss; the front unstarves only once its pending queue has
  // room again (tier starvation is about that queue, not credits).
  tiers_[c]->on_pcm_space();
  if (tier_starved_ && tiers_[c]->has_room()) {
    tier_starved_ = false;
    if (on_space_) on_space_(kNoCreditPool);
  }
}

}  // namespace tw::mem
