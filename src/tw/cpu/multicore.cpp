#include "tw/cpu/multicore.hpp"

#include <algorithm>

#include "tw/common/assert.hpp"

namespace tw::cpu {

MultiCore::MultiCore(sim::Simulator& sim, CoreConfig cfg, u32 cores,
                     mem::MemoryInterface& mem,
                     workload::RequestSource& gen,
                     u64 instructions_per_core)
    : sim_(sim), cfg_(cfg) {
  TW_EXPECTS(cores >= 1);
  cores_.reserve(cores);
  stalled_.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    cores_.push_back(std::make_unique<Core>(sim, c, cfg, mem, gen,
                                            instructions_per_core, stalled_));
  }
  mem.set_read_callback([this](const mem::MemoryRequest& req) {
    TW_ASSERT(req.core < cores_.size());
    cores_[req.core]->on_read_complete();
  });
  mem.set_space_callback([this] { retry_stalled(); });
}

void MultiCore::retry_stalled() {
  // Oldest stall first; a core refused again keeps its place. A pool's
  // credits never rise during the walk (only a release message, which
  // fires this callback, adds one), so a core waiting on a pool that
  // already refused would be refused too: it keeps its place untried.
  refused_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < stalled_.size(); ++i) {
    Core* core = stalled_[i];
    const u32 pool = core->stall_pool();
    const bool pooled = pool != mem::MemoryInterface::kNoCreditPool;
    if (pooled && std::find(refused_.begin(), refused_.end(), pool) !=
                      refused_.end()) {
      stalled_[kept++] = core;
    } else if (!core->on_queue_space()) {
      stalled_[kept++] = core;
      if (pooled) refused_.push_back(pool);
    }
  }
  stalled_.resize(kept);
}

void MultiCore::start() {
  for (auto& core : cores_) core->start();
}

bool MultiCore::all_finished() const {
  return std::all_of(cores_.begin(), cores_.end(),
                     [](const auto& c) { return c->finished(); });
}

Tick MultiCore::runtime() const {
  Tick t = 0;
  for (const auto& c : cores_) {
    if (!c->finished()) return 0;
    t = std::max(t, c->finish_tick());
  }
  return t;
}

double MultiCore::aggregate_ipc() const {
  const Tick rt = runtime();
  if (rt == 0) return 0.0;
  const double cycles =
      static_cast<double>(rt) / static_cast<double>(cfg_.clock_period);
  return static_cast<double>(total_retired()) / cycles;
}

u64 MultiCore::total_retired() const {
  u64 n = 0;
  for (const auto& c : cores_) n += c->retired();
  return n;
}

}  // namespace tw::cpu
