#pragma once
// Multi-core wrapper: owns N cores, demuxes controller callbacks to the
// issuing core, and aggregates IPC / runtime metrics (paper Eq. 6 uses
// whole-system IPC relative to the baseline).

#include <memory>
#include <vector>

#include "tw/cpu/core.hpp"

namespace tw::cpu {

/// N cores sharing one memory controller and one workload generator.
class MultiCore {
 public:
  MultiCore(sim::Simulator& sim, CoreConfig cfg, u32 cores,
            mem::MemoryInterface& mem, workload::RequestSource& gen,
            u64 instructions_per_core);

  /// Start all cores (wires controller callbacks; call once).
  void start();

  bool all_finished() const;

  /// Tick at which the last core retired its budget (0 while running).
  Tick runtime() const;

  /// Whole-system IPC: total retired instructions / cycles-to-finish.
  double aggregate_ipc() const;

  u64 total_retired() const;

  const Core& core(u32 i) const { return *cores_[i]; }
  u32 core_count() const { return static_cast<u32>(cores_.size()); }

 private:
  /// A wake for `pool`: retries that pool's stalled cores oldest stall
  /// first, up to the first refusal. An anonymous wake
  /// (MemoryInterface::kNoCreditPool) retries every core stalled in no
  /// pool, oldest stall first; it fails the run if a core waits on a
  /// pool, since a memory that reports pools names them in every wake.
  /// A refused core keeps its place.
  void retry_stalled(u32 pool);

  sim::Simulator& sim_;
  CoreConfig cfg_;
  std::vector<std::unique_ptr<Core>> cores_;
  StallFifo stalled_;
};

}  // namespace tw::cpu
