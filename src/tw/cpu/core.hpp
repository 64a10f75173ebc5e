#pragma once
// Bounded-MLP core model (the gem5 O3-core substitute).
//
// A core executes instructions at `peak_ipc` between memory requests,
// drawn from its workload stream. Reads may overlap up to `mlp`
// outstanding misses (the OoO window's memory-level parallelism); once
// the window is full the core stalls until a read returns. Writes are
// posted to the controller's write queue and only stall the core on
// queue-full backpressure — exactly the couplings that turn write-service
// time into IPC/runtime effects in the paper.
//
// A write's payload is drawn once, when the request forms (right after
// the stream hands out the op), and travels with it: an enqueue the
// controller refuses draws nothing, and the retry sends the same line.
// Cores stalled on a full queue wait in their owner's stall FIFOs, one
// per credit pool plus one for requests in no pool, and retry oldest
// stall first when their FIFO's pool gets queue space back.

#include <vector>

#include "tw/common/types.hpp"
#include "tw/mem/interface.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/workload/source.hpp"

namespace tw::cpu {

/// Core microarchitecture parameters (Table II: 2 GHz ALPHA-like O3).
struct CoreConfig {
  Tick clock_period = 500;   ///< ps; 2 GHz
  double peak_ipc = 2.0;     ///< instructions/cycle when unstalled
  u32 mlp = 4;               ///< max outstanding read misses

  bool valid() const {
    return clock_period > 0 && peak_ipc > 0.0 && mlp >= 1;
  }
};

class Core;

/// Cores stalled on a full memory queue: one FIFO per credit pool
/// (MemoryInterface::credit_pool) and one for requests in no pool, each
/// oldest stall first. A core appends itself when it first stalls; its
/// owner removes it once a retry is accepted. No core stalls anew during
/// a retry pass (an accepted retry only schedules its next gap), so a
/// FIFO neither grows nor moves while its owner walks it.
class StallFifo {
 public:
  using Queue = std::vector<Core*>;

  /// Append `core`, stalled on `pool`, behind the pool's earlier stalls.
  void push(Core* core, u32 pool) { of(pool).push_back(core); }

  /// The FIFO of `pool` (MemoryInterface::kNoCreditPool: no pool).
  Queue& of(u32 pool);

  /// True when some core waits on a credit pool.
  bool any_pooled() const;

 private:
  std::vector<Queue> pools_;  ///< indexed by credit pool
  Queue unpooled_;
};

/// One simulated core running a fixed instruction budget.
class Core {
 public:
  Core(sim::Simulator& sim, u32 id, CoreConfig cfg,
       mem::MemoryInterface& mem, workload::RequestSource& gen,
       u64 instruction_budget, StallFifo& stalled);

  /// Begin execution (schedules the first event).
  void start();

  /// Deliver a completed read (called by the owner's demux).
  void on_read_complete();

  /// Queue space became available; retry a stalled issue. Returns true
  /// when the core is no longer queue-stalled.
  bool on_queue_space();

  bool finished() const { return finished_; }
  Tick finish_tick() const { return finish_tick_; }
  u64 retired() const { return retired_; }
  u64 reads_issued() const { return reads_issued_; }
  u64 writes_issued() const { return writes_issued_; }
  u64 stall_events() const { return stall_events_; }

  /// Retired instructions per cycle, measured at finish (0 if running).
  double ipc() const;

  u32 id() const { return id_; }

 private:
  enum class State : u8 {
    kIdle,          ///< not started
    kExecuting,     ///< burning the gap's cycles (event scheduled)
    kIssuing,       ///< ready to issue the pending op
    kStallMlp,      ///< read window full
    kStallQueue,    ///< controller queue full
    kDone,
  };

  void execute_gap();
  void try_issue();
  void stall_on_queue();
  void finish_if_done();

  sim::Simulator& sim_;
  u32 id_;
  CoreConfig cfg_;
  sim::Clock clock_;
  mem::MemoryInterface& ctl_;
  workload::RequestSource& gen_;
  StallFifo& stalled_;

  u64 budget_;
  u64 retired_ = 0;
  u64 outstanding_reads_ = 0;
  u64 reads_issued_ = 0;
  u64 writes_issued_ = 0;
  u64 stall_events_ = 0;
  State state_ = State::kIdle;
  workload::TraceOp pending_{};
  pcm::LogicalLine pending_data_;  ///< the pending write's payload
  bool has_pending_ = false;
  bool finished_ = false;
  Tick finish_tick_ = 0;
};

}  // namespace tw::cpu
