#pragma once
// Abstract front-end of the memory subsystem. CPU cores talk to a
// MemoryInterface and never care whether it is a single Controller
// (channels=1, the paper's organization) or a MemorySystem routing across
// N channel controllers behind an XBar. Completion/space callbacks follow
// the Controller contract: set once at wiring time, invoked on the
// front-side simulation domain.

#include <functional>

#include "tw/common/types.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/mem/request.hpp"

namespace tw::mem {

class MemoryInterface {
 public:
  using ReadCallback = std::function<void(const MemoryRequest&)>;
  using WriteCallback = std::function<void(const MemoryRequest&)>;
  using SpaceCallback = std::function<void()>;

  /// credit_pool() value for a request that belongs to no credit pool.
  static constexpr u32 kNoCreditPool = ~0u;

  virtual ~MemoryInterface() = default;

  /// Try to accept a request. Returns false when the target queue is full
  /// (the caller should wait for the space callback and retry).
  virtual bool enqueue(MemoryRequest req) = 0;

  /// Invoked when a read's data returns.
  virtual void set_read_callback(ReadCallback cb) = 0;
  /// Invoked when a write completes service (informational).
  virtual void set_write_callback(WriteCallback cb) = 0;
  /// Invoked whenever queue space frees up.
  virtual void set_space_callback(SpaceCallback cb) = 0;

  /// True when all queues are empty and all banks idle (quiesced).
  virtual bool idle() const = 0;

  /// The credit pool a request for (addr, is_write) draws on, or
  /// kNoCreditPool. Promise behind a pool: once enqueue() refuses one of
  /// its requests, it refuses every request of that pool, with no side
  /// effect beyond the first refusal's, until the space callback next
  /// fires. A caller retrying stalled requests from that callback may
  /// therefore skip the rest of a pool that refused. The default promises
  /// nothing.
  virtual u32 credit_pool(Addr /*addr*/, bool /*is_write*/) const {
    return kNoCreditPool;
  }

  /// Content store backing the line that holds `addr` (per-channel in a
  /// multi-channel system; stores are sparse and keyed by global line
  /// address, so callers use global addresses untranslated).
  virtual DataStore& store_for(Addr addr) = 0;
};

}  // namespace tw::mem
