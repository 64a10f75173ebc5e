#pragma once
// Abstract front-end of the memory subsystem. CPU cores talk to a
// MemoryInterface and never care whether it is a single Controller
// (channels=1, the paper's organization) or a MemorySystem routing across
// N channel controllers behind an XBar. Completion/space callbacks follow
// the Controller contract: set once at wiring time, invoked on the
// front-side simulation domain.

#include <functional>
#include <utility>

#include "tw/common/types.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/mem/request.hpp"

namespace tw::mem {

class MemoryInterface {
 public:
  using ReadCallback = std::function<void(const MemoryRequest&)>;
  using WriteCallback = std::function<void(const MemoryRequest&)>;
  using SpaceCallback = std::function<void()>;
  /// A wake naming the credit pool that got space back (kNoCreditPool:
  /// space may have freed for requests in no pool).
  using PoolSpaceCallback = std::function<void(u32 pool)>;

  /// credit_pool() value for a request that belongs to no credit pool.
  static constexpr u32 kNoCreditPool = ~0u;

  virtual ~MemoryInterface() = default;

  /// Try to accept a request. Returns false when the target queue is full
  /// (the caller should wait for a space wake and retry).
  virtual bool enqueue(MemoryRequest req) = 0;

  /// Invoked when a read's data returns.
  virtual void set_read_callback(ReadCallback cb) = 0;
  /// Invoked when a write completes service (informational).
  virtual void set_write_callback(WriteCallback cb) = 0;
  /// Invoked whenever queue space frees up.
  virtual void set_space_callback(SpaceCallback cb) = 0;
  /// Invoked whenever queue space frees up, naming the credit pool whose
  /// space came back (only that pool's requests may now be accepted).
  /// Space freed for requests outside every pool comes as an anonymous
  /// wake (kNoCreditPool). The default wraps set_space_callback and
  /// reports kNoCreditPool, so a memory (or a proxy) that knows nothing
  /// of pools still delivers every wake — provided it reports no pools
  /// either (see credit_pool).
  virtual void set_pool_space_callback(PoolSpaceCallback cb) {
    set_space_callback([cb = std::move(cb)] { cb(kNoCreditPool); });
  }

  /// True when all queues are empty and all banks idle (quiesced).
  virtual bool idle() const = 0;

  /// The credit pool a request for (addr, is_write) draws on, or
  /// kNoCreditPool. Pools are small dense ids counted from 0. Promise
  /// behind a pool: once enqueue() refuses one of its requests, it
  /// refuses every request of that pool, with no side effect beyond the
  /// first refusal's, until a wake that names that pool. A memory that
  /// reports pools names the pool in every wake that frees pool space;
  /// its anonymous wakes free space for requests in no pool only. A
  /// caller retrying stalled requests from a wake may therefore stop a
  /// pool's retries at its first refusal, retry only P's requests on a
  /// wake that names pool P, and only no-pool requests on an anonymous
  /// wake (MultiCore fails the run on an anonymous wake while a core
  /// waits on a pool: those cores would never wake). A proxy that
  /// forwards credit_pool must forward set_pool_space_callback too. The
  /// default promises nothing.
  virtual u32 credit_pool(Addr /*addr*/, bool /*is_write*/) const {
    return kNoCreditPool;
  }

  /// Content store backing the line that holds `addr` (per-channel in a
  /// multi-channel system; stores are sparse and keyed by global line
  /// address, so callers use global addresses untranslated).
  virtual DataStore& store_for(Addr addr) = 0;
};

}  // namespace tw::mem
