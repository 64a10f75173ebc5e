#pragma once
// Runtime-dispatched SIMD kernels for the packing hot path.
//
// The packer and the schemes' read stages reduce to three primitives:
// per-word popcounts, per-word SET/RESET transition counts, and a
// first-fit scan over a slot-power array. Each has a portable scalar
// implementation (the reference semantics) and an AVX2 implementation
// that must be *bit-identical* — same outputs for every input, checked
// exhaustively by tests/simd_packer_test.cpp. The active
// implementation is chosen once per process from the TW_SIMD environment
// variable (auto | scalar | avx2, default auto = best supported ISA) and
// can be overridden programmatically by tests via set_level().

#include <bit>
#include <cstddef>

#include "tw/common/types.hpp"

namespace tw::simd {

/// Instruction-set level of the active kernels.
enum class Level : u8 {
  kScalar = 0,  ///< portable C++ (std::popcount + plain loops)
  kAvx2 = 1,    ///< AVX2 + hardware POPCNT (x86-64 only)
};

/// The level selected for this process: TW_SIMD env (auto|scalar|avx2),
/// clamped to what the CPU supports. Reads the environment once.
Level active_level();

/// Override the active level (tests flip between scalar and AVX2 to
/// prove bit-identity). Requests for an unsupported level fall back to
/// kScalar. Thread-safe (atomic), but callers should quiesce concurrent
/// packs before flipping — determinism within one run assumes a stable
/// level.
void set_level(Level level);

/// True when the CPU (and build) can execute the AVX2 kernels.
bool avx2_supported();

/// Human-readable name of a level ("scalar" / "avx2").
const char* level_name(Level level);

// ---- Kernels -------------------------------------------------------------
// Each kernel has explicit scalar/avx2 entry points (the differential
// test drives both directly) plus dispatching wrappers. The scalar
// kernels are defined inline here so the packer's hot loops inline them
// completely; the AVX2 entry points live in simd.cpp behind per-function
// target attributes and must only be called when avx2_supported() is
// true. Hot callers fetch active_level() once per line/pack and use the
// Level-taking wrapper overloads; the Level-free overloads dispatch per
// call (convenience paths and tests).

/// out[i] = popcount(words[i]) for i in [0, n).
inline void popcount_each_scalar(const u64* words, std::size_t n, u32* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<u32>(std::popcount(words[i]));
  }
}
void popcount_each_avx2(const u64* words, std::size_t n, u32* out);
void popcount_each(const u64* words, std::size_t n, u32* out);
inline void popcount_each(const u64* words, std::size_t n, u32* out,
                          Level level) {
  if (level == Level::kAvx2) {
    popcount_each_avx2(words, n, out);
  } else {
    popcount_each_scalar(words, n, out);
  }
}

/// Per-word SET/RESET transition counts in the physical cell domain:
///   diff     = old_cells[i] ^ new_cells[i]
///   sets[i]  = popcount(diff & new_cells[i])   (cells programmed 0 -> 1)
///   resets[i]= popcount(diff & old_cells[i])   (cells programmed 1 -> 0)
/// Words must be pre-masked to the data-unit width.
inline void transition_counts_scalar(const u64* old_cells,
                                     const u64* new_cells, std::size_t n,
                                     u32* sets, u32* resets) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 diff = old_cells[i] ^ new_cells[i];
    sets[i] = static_cast<u32>(std::popcount(diff & new_cells[i]));
    resets[i] = static_cast<u32>(std::popcount(diff & old_cells[i]));
  }
}
void transition_counts_avx2(const u64* old_cells, const u64* new_cells,
                            std::size_t n, u32* sets, u32* resets);
void transition_counts(const u64* old_cells, const u64* new_cells,
                       std::size_t n, u32* sets, u32* resets);
inline void transition_counts(const u64* old_cells, const u64* new_cells,
                              std::size_t n, u32* sets, u32* resets,
                              Level level) {
  if (level == Level::kAvx2) {
    transition_counts_avx2(old_cells, new_cells, n, sets, resets);
  } else {
    transition_counts_scalar(old_cells, new_cells, n, sets, resets);
  }
}

/// First-fit scan: smallest i in [0, n) with power[i] <= limit, or n if
/// no slot fits. This is the packer's bin-selection primitive (limit =
/// budget - item current); the AVX2 version compares 8 slots per step
/// and extracts the first hit branchlessly (movemask + tzcnt).
inline u32 first_fit_scalar(const u32* power, u32 n, u32 limit) {
  for (u32 i = 0; i < n; ++i) {
    if (power[i] <= limit) return i;
  }
  return n;
}
u32 first_fit_avx2(const u32* power, u32 n, u32 limit);
u32 first_fit(const u32* power, u32 n, u32 limit);
inline u32 first_fit(const u32* power, u32 n, u32 limit, Level level) {
  if (level == Level::kAvx2) {
    return first_fit_avx2(power, n, limit);
  }
  return first_fit_scalar(power, n, limit);
}

}  // namespace tw::simd
