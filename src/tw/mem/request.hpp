#pragma once
// Memory request type exchanged between the CPU model and the controller.

#include "tw/common/chunk_pool.hpp"
#include "tw/common/types.hpp"
#include "tw/pcm/line.hpp"

namespace tw::mem {

/// Request kind.
enum class ReqType : u8 { kRead, kWrite };

/// One cache-line request to PCM main memory.
struct MemoryRequest {
  u64 id = 0;          ///< unique per controller, assigned at enqueue
  Addr addr = 0;       ///< line-aligned physical address
  ReqType type = ReqType::kRead;
  u32 core = 0;        ///< issuing core (for per-core stats)
  Tick enqueue_tick = 0;   ///< when the controller accepted it
  Tick start_tick = 0;     ///< when service began
  Tick complete_tick = 0;  ///< when service finished
  pcm::LogicalLine data;   ///< payload for writes (units() == 0 for reads)

  bool is_write() const { return type == ReqType::kWrite; }
};

// Requests are copied whole on their way from the core to the bank; the
// payload already reserves the widest line, so nothing may grow it.
static_assert(sizeof(MemoryRequest) <= 312);

/// Requests parked while an event is on its way to them (a read result,
/// a DRAM hit, a request in XBar transit); the event captures the id.
/// Chunks of 16 (about 5 KB): a pool rarely holds more than a queue's
/// worth, and a 256-entry chunk would cost 80 KB per pool.
using RequestPool = ChunkPool<MemoryRequest, 4>;

}  // namespace tw::mem
