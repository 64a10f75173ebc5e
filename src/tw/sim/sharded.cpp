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
      Domain& dst = domains_[p.dst];
      dst.sim->schedule_at(p.fire, std::move(p.msg), p.prio);
      dst.next = std::min(dst.next, p.fire);
    }
    src.outbox.clear();
  }
}

u64 ShardedEngine::run(Tick limit) {
  const u64 before = executed_total();
  // Events scheduled straight onto a domain's simulator between run()
  // calls bypass the cache; inside run() a domain only gets events from
  // its own events (refreshed after it runs) and from drain_outboxes.
  for (Domain& d : domains_) d.next = d.sim->next_tick();
  for (;;) {
    // Deliver messages posted from outside any window (e.g. front-side
    // enqueues made between run() calls) so the scan below can see them.
    // Mid-loop this is a no-op: the barrier already drained every outbox.
    drain_outboxes();
    // Fast-forward to the earliest pending event anywhere, then run the
    // aligned window containing it. Idle stretches cost one scan of the
    // cached next ticks, not a quantum-by-quantum crawl.
    Tick next = kTickMax;
    for (const Domain& d : domains_) next = std::min(next, d.next);
    if (next == kTickMax || next > limit) break;
    const Tick wstart = next / quantum_ * quantum_;
    Tick wend = wstart + quantum_ - 1;
    if (wend > limit) wend = limit;

    // The front domain, then the channel domains, in domain order on the
    // calling thread. Only a domain with an event due by wend is entered;
    // running any other would fire nothing, so its clock just advances
    // to wend, as a run would leave it: a far-list migration it makes in
    // a later window is stamped with the same now().
    for (u32 di = 0; di < domains_.size(); ++di) {
      Domain& d = domains_[di];
      if (d.next <= wend) {
        run_domain(di, wend);
        d.next = d.sim->next_tick();
      } else {
        d.sim->advance_to(wend);
      }
    }
    // Barrier. Outboxes drain in fixed source order, so destination
    // sequence numbers never depend on domain run order. Every fire tick
    // is >= wstart + quantum > wend, hence >= dst.now().
    drain_outboxes();
  }
  // Advance every clock to the limit (fires nothing: all remaining
  // events are strictly later).
  if (limit != kTickMax) {
    for (Domain& d : domains_) d.sim->advance_to(limit);
  }
  return executed_total() - before;
}

}  // namespace tw::sim
