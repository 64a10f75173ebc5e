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
  for (u32 c = 0; c < cores; ++c) {
    cores_.push_back(std::make_unique<Core>(sim, c, cfg, mem, gen,
                                            instructions_per_core, stalled_));
  }
  mem.set_read_callback([this](const mem::MemoryRequest& req) {
    TW_ASSERT(req.core < cores_.size());
    cores_[req.core]->on_read_complete();
  });
  mem.set_pool_space_callback([this](u32 pool) { retry_stalled(pool); });
}

void MultiCore::retry_stalled(u32 pool) {
  constexpr u32 kNoPool = mem::MemoryInterface::kNoCreditPool;
  if (pool != kNoPool) {
    // Only this pool's cores can use the freed space, and its credits
    // never rise during a walk (only a release, which wakes the cores,
    // adds one): once it refuses, its later cores would be refused too,
    // so they keep their places untried.
    StallFifo::Queue& q = stalled_.of(pool);
    std::size_t accepted = 0;
    while (accepted < q.size() && q[accepted]->on_queue_space()) {
      ++accepted;
    }
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(accepted));
    return;
  }
  if (stalled_.any_pooled()) {
    TW_FAIL(
        "anonymous space wake while cores wait on a credit pool: a memory "
        "whose credit_pool() reports pools must name the pool in every "
        "wake (MemoryInterface::credit_pool contract)");
  }
  // Requests in no pool promise nothing: retry every one, oldest first.
  StallFifo::Queue& q = stalled_.of(kNoPool);
  std::size_t kept = 0;
  for (Core* core : q) {
    if (!core->on_queue_space()) q[kept++] = core;
  }
  q.resize(kept);
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
