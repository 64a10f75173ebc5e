#pragma once
// Shared charge-pump occupancy model for partition-level parallelism
// (PALP, arXiv:1908.07966). Each bank owns one pump; instead of the
// legacy binary bank lock, the pump tracks how many partition-local
// write drivers are drawing current concurrently ("ways") and how many
// reads have been admitted while the pump is loaded (PALP's
// read-after-write-current limit). Multi-line Tetris batches consume
// the full bank budget and therefore take the pump exclusively.
//
// The pump itself holds no admission policy — allowances (write ways,
// concurrent-read cap, brown-out shrinkage) live in the controller and
// fault model; the pump only answers "what is running right now" and
// keeps the overlap/stall statistics the benches and gauges report.

#include <string>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"

namespace tw::pcm {

/// Occupancy state of one bank's shared charge pump.
class ChargePump {
 public:
  /// True when any write current is being drawn (partition writes or an
  /// exclusive full-budget batch): reads count against the RWW cap.
  bool loaded() const { return active_ > 0 || exclusive_; }

  /// Number of partition writes currently drawing current.
  u32 active_writes() const { return active_; }

  /// Reads currently admitted under the read-while-write limit.
  u32 rww_reads() const { return rww_; }

  /// True while a full-budget multi-line batch owns the pump.
  bool exclusive() const { return exclusive_; }

  /// Can another partition write start when `ways` drivers are allowed
  /// to share the pump?
  bool can_admit_write(u32 ways) const {
    return !exclusive_ && active_ < ways;
  }

  /// Can a full-budget batch take the pump? Only when nothing draws.
  bool can_admit_exclusive() const { return !loaded(); }

  /// Can a read issue when at most `cap` reads may overlap a loaded
  /// pump? An unloaded pump always admits.
  bool can_admit_read(u32 cap) const { return !loaded() || rww_ < cap; }

  void begin_write() {
    TW_EXPECTS(!exclusive_);
    ++active_;
    if (active_ > 1) ++overlapped_writes_;
  }
  void end_write() {
    TW_EXPECTS(active_ > 0);
    --active_;
  }

  void begin_exclusive() {
    TW_EXPECTS(!loaded());
    exclusive_ = true;
  }
  void end_exclusive() {
    TW_EXPECTS(exclusive_);
    exclusive_ = false;
  }

  /// Record a read admitted while the pump was loaded.
  void begin_rww_read() {
    ++rww_;
    ++overlapped_reads_;
  }
  void end_rww_read() {
    TW_EXPECTS(rww_ > 0);
    --rww_;
  }

  /// The admission invariant: empty when the current state honors at
  /// most `write_ways` concurrent partition writes, at most `rww_cap`
  /// reads against a loaded pump and no partition write beside an
  /// exclusive batch; otherwise names the first broken cap. The
  /// controller (under TW_VERIFY=1) and verify::InvariantMonitor share
  /// this check.
  std::string admission_error(u32 write_ways, u32 rww_cap) const {
    if (exclusive_ && active_ > 0) {
      return "partition write drawing while an exclusive batch owns the "
             "pump";
    }
    if (active_ > write_ways) {
      return std::to_string(active_) +
             " concurrent partition writes exceed the " +
             std::to_string(write_ways) + "-way pump allowance";
    }
    if (loaded() && rww_ > rww_cap) {
      return std::to_string(rww_) +
             " reads admitted against a loaded pump exceed the "
             "read-after-write-current limit of " +
             std::to_string(rww_cap);
    }
    return {};
  }

  /// Record a read the RWW cap held back this dispatch round.
  void note_stall() { ++stalls_; }

  /// Writes that started while another partition write was drawing.
  u64 overlapped_writes() const { return overlapped_writes_; }
  /// Reads admitted while the pump was loaded.
  u64 overlapped_reads() const { return overlapped_reads_; }
  /// Dispatch-round read stalls charged to the RWW cap.
  u64 stalls() const { return stalls_; }

 private:
  u32 active_ = 0;
  u32 rww_ = 0;
  bool exclusive_ = false;
  u64 overlapped_writes_ = 0;
  u64 overlapped_reads_ = 0;
  u64 stalls_ = 0;
};

}  // namespace tw::pcm
