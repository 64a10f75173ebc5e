#include "tw/sim/sharded.hpp"

#include <algorithm>

namespace tw::sim {

void ShardedEngine::run_domain(u32 di, Tick limit) {
  Domain& d = domains_[di];
  // Install the domain's ring for the duration of the quantum so records
  // land in the domain's own ring. An unbound domain emits nothing
  // (ring == nullptr gates every category).
  const trace::ThreadState saved = trace::g_tls;
  trace::g_tls.ring = d.ring;
  trace::g_tls.mask = d.ring != nullptr ? d.mask : 0;
  d.sim->run(limit);
  trace::g_tls = saved;
}

void ShardedEngine::drain_outboxes() {
  for (Domain& src : domains_) {
    for (Pending& p : src.outbox) {
      domains_[p.dst].sim->schedule_at(p.fire, std::move(p.msg), p.prio);
    }
    src.outbox.clear();
  }
}

u64 ShardedEngine::run(Tick limit) {
  const u64 before = executed_total();
  const u32 n = static_cast<u32>(domains_.size());
  for (;;) {
    // Deliver messages posted from outside any window (e.g. front-side
    // enqueues made between run() calls) so the peek below can see them.
    // Mid-loop this is a no-op: phase 3 already drained every outbox.
    drain_outboxes();
    // Fast-forward to the earliest pending event anywhere, then run the
    // aligned window containing it. Idle stretches cost one peek, not a
    // quantum-by-quantum crawl.
    Tick next = kTickMax;
    for (const auto& d : domains_) {
      next = std::min(next, d.sim->next_tick());
    }
    if (next == kTickMax || next > limit) break;
    const Tick wstart = next / quantum_ * quantum_;
    Tick wend = wstart + quantum_ - 1;
    if (wend > limit) wend = limit;

    // Phase 1: the front domain, serially on the calling thread.
    run_domain(0, wend);
    // Phase 2: channel domains, in domain order on the same thread.
    for (u32 d = 1; d < n; ++d) run_domain(d, wend);
    // Phase 3: barrier. Outboxes drain in fixed source order, so
    // destination sequence numbers never depend on domain run order.
    // Every fire tick is >= wstart + quantum > wend, hence >= dst.now().
    drain_outboxes();
  }
  // Advance every clock to the limit (fires nothing: all remaining
  // events are strictly later).
  if (limit != kTickMax) {
    for (u32 d = 0; d < n; ++d) run_domain(d, limit);
  }
  return executed_total() - before;
}

}  // namespace tw::sim
