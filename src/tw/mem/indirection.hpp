#pragma once
// Logical -> physical line indirection in front of the PCM array: the one
// place that decides where a logical line lives (the role of pcmcsim's
// address indirection table). Two mechanisms compose here:
//  * Start-Gap wear leveling (paper ref [5]): per-region levelers rotate
//    logical lines through physical slots. Each gap movement relocates
//    exactly one logical line, reported as a Relocation.
//  * Stuck-bank redirect: a bank the fault model hard-failed at power-on
//    serves its traffic from the next healthy bank, same local subarray.
//    The redirect is fixed at construction.
// The controller buckets queued requests by the Placement returned here
// and moves the relocated line's queued requests on every gap movement,
// which keeps a single bank-indexed scheduling path correct under both.

#include <optional>
#include <vector>

#include "tw/common/flat_map.hpp"
#include "tw/common/types.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/start_gap.hpp"

namespace tw::mem {

/// Where a line is served: its physical line address and the effective
/// (redirected) flat bank and flat subarray.
struct Placement {
  Addr phys = 0;
  u32 bank = 0;
  u32 sub = 0;
};

/// One gap movement: the line held at physical `src` migrates to `dst`
/// and is served from there from now on.
struct Relocation {
  u64 region = 0;
  Addr src = 0;
  Addr dst = 0;
};

class AddressIndirection {
 public:
  /// `fault` may be null (no stuck banks); only its construction-time
  /// redirect table is read.
  AddressIndirection(const AddressMap& map, bool wear_leveling,
                     const StartGapConfig& start_gap,
                     const fault::FaultModel* fault);

  /// Physical line address of a logical line (identity unless wear
  /// leveling is on; levelers materialize on first touch).
  Addr physical_of(Addr logical);
  /// Physical address plus stuck-bank redirect of a logical line.
  Placement locate(Addr logical) { return place(physical_of(logical)); }
  /// Effective bank and subarray of a physical line address.
  Placement place(Addr phys) const;

  /// Count one demand write to `logical`; returns the relocation when the
  /// write moves its region's gap.
  std::optional<Relocation> on_write(Addr logical);

  /// True when some bank is stuck (placements may leave the decode).
  bool redirects() const { return !redirect_.empty(); }

 private:
  StartGapLeveler& leveler(u64 region);

  AddressMap map_;
  bool wear_leveling_;
  StartGapConfig start_gap_;
  /// Effective bank per decoded flat bank; empty when no bank is stuck.
  std::vector<u32> redirect_;
  /// Region id -> index into levelers_. Sparse: the workload generator
  /// places its shared region far above the private ones.
  FlatIndexMap region_index_;
  std::vector<StartGapLeveler> levelers_;
};

}  // namespace tw::mem
