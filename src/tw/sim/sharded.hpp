#pragma once
// Sharded event loop: several Simulator instances ("domains") advance in
// lockstep through aligned time-quanta, with cross-domain interaction
// carried by latency-Q messages. Domain 0 is the serial front (CPU cores,
// caches, the XBar routing logic); domains 1..C are the per-channel
// memory controllers, run one after another on the calling thread.
//
// Determinism argument (conservative parallel DES with lookahead):
// the quantum width equals the XBar latency Q. A message posted while
// its source executes window [W, W+Q) fires at send_tick + Q, which is
// always >= W+Q — strictly beyond the window — so nothing a domain does
// inside a window can affect any other domain in the same window. The
// execution order of domains within a window is therefore irrelevant,
// and the serial barrier drains outboxes in fixed source order (0..C),
// assigning destination-simulator sequence numbers in a fixed order.
// Same seed => bit-identical events, metrics and traces.
//
// Why the channel phase runs serially: a 20 ns window holds about a dozen
// events, and handing the channels to a thread pool (mutex, condvar wake,
// barrier) cost more wall time per window than the channels' work.
//
// Trace binding: each domain can be bound to a pre-created TraceRing;
// the engine installs it into the thread-local emission state around the
// domain's quantum, so each domain's records land in its own ring (rings
// are collected in creation order, keeping trace bytes in domain order).

#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/trace/emit.hpp"

namespace tw::sim {

class ShardedEngine {
 public:
  /// Cross-domain message: a plain destination event, delivered as is.
  /// A payload too large for its 48 B capture (a routed MemoryRequest)
  /// is parked by the sender, and the message captures the slot id.
  using Message = Simulator::Callback;

  /// quantum: window width in ticks == modeled XBar latency (>= 1).
  explicit ShardedEngine(Tick quantum) : quantum_(quantum) {
    TW_EXPECTS(quantum >= 1);
  }
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Register a domain (0 = front, then one per channel, in order).
  /// The simulator must outlive the engine. Returns the domain index.
  u32 add_domain(Simulator& sim) {
    Domain d;
    d.sim = &sim;
    domains_.push_back(std::move(d));
    return static_cast<u32>(domains_.size() - 1);
  }

  /// Bind a domain's trace emission to `ring` under category `mask`
  /// (nullptr = domain emits nothing). Call before run().
  void bind_trace(u32 domain, trace::TraceRing* ring, u32 mask) {
    domains_[domain].ring = ring;
    domains_[domain].mask = mask;
  }

  /// Post a message from domain `src` to domain `dst`; it executes as a
  /// dst event at src.now() + quantum with priority `prio`. Must only be
  /// called from code running inside domain `src` (its outbox is
  /// domain-private during the window).
  void post(u32 src, u32 dst, Priority prio, Message msg) {
    domains_[src].outbox.push_back(
        Pending{dst, domains_[src].sim->now() + quantum_, prio,
                std::move(msg)});
  }

  /// Advance every domain to `limit` (window-by-window). Returns the
  /// number of events executed across all domains by this call.
  u64 run(Tick limit);

  Tick quantum() const { return quantum_; }
  u32 domain_count() const { return static_cast<u32>(domains_.size()); }

  /// Total events executed across all domains since construction.
  u64 executed_total() const {
    u64 n = 0;
    for (const auto& d : domains_) n += d.sim->executed();
    return n;
  }

 private:
  struct Pending {
    u32 dst;
    Tick fire;
    Priority prio;
    Message msg;
  };
  struct Domain {
    Simulator* sim = nullptr;
    trace::TraceRing* ring = nullptr;
    u32 mask = 0;
    std::vector<Pending> outbox;  ///< messages sent this window
  };

  void run_domain(u32 d, Tick limit);
  /// Schedule every outbox message on its destination, sources in order.
  void drain_outboxes();

  std::vector<Domain> domains_;
  Tick quantum_;
};

}  // namespace tw::sim
