#include "tw/mem/indirection.hpp"

namespace tw::mem {

AddressIndirection::AddressIndirection(const AddressMap& map,
                                       bool wear_leveling,
                                       const StartGapConfig& start_gap,
                                       const fault::FaultModel* fault)
    : map_(map), wear_leveling_(wear_leveling), start_gap_(start_gap) {
  if (fault != nullptr && fault->any_bank_stuck()) {
    redirect_.resize(map_.total_banks());
    for (u32 b = 0; b < redirect_.size(); ++b) {
      redirect_[b] = fault->remap_bank(b);
    }
  }
}

Addr AddressIndirection::physical_of(Addr logical) {
  if (!wear_leveling_) return logical;
  const u64 li = map_.line_index(logical);
  const u64 n = start_gap_.region_lines;
  const u64 region = li / n;
  const u64 slot = leveler(region).map(li % n);
  return (region * (n + 1) + slot) * map_.line_bytes();
}

Placement AddressIndirection::place(Addr phys) const {
  const u32 sub = map_.flat_subarray(phys);
  const u32 bank = sub / map_.subarrays_per_bank();
  if (redirect_.empty()) return {phys, bank, sub};
  const u32 to = redirect_[bank];
  return {phys, to, sub + (to - bank) * map_.subarrays_per_bank()};
}

std::optional<Relocation> AddressIndirection::on_write(Addr logical) {
  if (!wear_leveling_) return std::nullopt;
  const u64 n = start_gap_.region_lines;
  const u64 region = map_.line_index(logical) / n;
  const std::optional<GapMove> move = leveler(region).on_write();
  if (!move) return std::nullopt;
  const u64 base = region * (n + 1);
  return Relocation{region, (base + move->from_physical) * map_.line_bytes(),
                    (base + move->to_physical) * map_.line_bytes()};
}

StartGapLeveler& AddressIndirection::leveler(u64 region) {
  u32 idx = region_index_.find(region);
  if (idx == FlatIndexMap::kNoIndex) {
    idx = static_cast<u32>(levelers_.size());
    levelers_.emplace_back(start_gap_);
    region_index_.insert(region, idx);
  }
  return levelers_[idx];
}

}  // namespace tw::mem
