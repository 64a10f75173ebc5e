#include "tw/common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TW_SIMD_X86 1
#include <immintrin.h>
#else
#define TW_SIMD_X86 0
#endif

namespace tw::simd {
namespace {

constexpr u8 kUninitialized = 0xff;
std::atomic<u8> g_level{kUninitialized};

/// Parse TW_SIMD (auto | scalar | avx2). Unknown values and unsupported
/// requests degrade to the best level the machine actually has.
Level level_from_env() {
  const char* v = std::getenv("TW_SIMD");
  if (v != nullptr) {
    if (std::strcmp(v, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(v, "avx2") == 0) {
      return avx2_supported() ? Level::kAvx2 : Level::kScalar;
    }
    // "auto", empty, or unknown: fall through to detection.
  }
  return avx2_supported() ? Level::kAvx2 : Level::kScalar;
}

}  // namespace

bool avx2_supported() {
#if TW_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level active_level() {
  u8 v = g_level.load(std::memory_order_relaxed);
  if (v == kUninitialized) {
    // Benign race: level_from_env() is idempotent.
    const Level init = level_from_env();
    g_level.store(static_cast<u8>(init), std::memory_order_relaxed);
    return init;
  }
  return static_cast<Level>(v);
}

void set_level(Level level) {
  if (level == Level::kAvx2 && !avx2_supported()) level = Level::kScalar;
  g_level.store(static_cast<u8>(level), std::memory_order_relaxed);
}

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

// ---- AVX2 kernels --------------------------------------------------------
// Compiled with per-function target attributes so the rest of the build
// stays baseline x86-64; only executed after __builtin_cpu_supports.

#if TW_SIMD_X86

namespace {

/// Per-64-bit-lane popcount of a 256-bit vector (Mula's nibble-LUT +
/// psadbw reduction): returns four u64 counts in the four lanes.
__attribute__((target("avx2"))) inline __m256i popcount_epi64(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline void store_lane_counts(__m256i counts,
                                                              u32* out) {
  alignas(32) u64 lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), counts);
  out[0] = static_cast<u32>(lanes[0]);
  out[1] = static_cast<u32>(lanes[1]);
  out[2] = static_cast<u32>(lanes[2]);
  out[3] = static_cast<u32>(lanes[3]);
}

}  // namespace

__attribute__((target("avx2,popcnt"))) void popcount_each_avx2(
    const u64* words, std::size_t n, u32* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    store_lane_counts(popcount_epi64(v), out + i);
  }
  // Unaligned tail: hardware POPCNT (exact same counts as the LUT path).
  for (; i < n; ++i) {
    out[i] = static_cast<u32>(__builtin_popcountll(words[i]));
  }
}

__attribute__((target("avx2,popcnt"))) void transition_counts_avx2(
    const u64* old_cells, const u64* new_cells, std::size_t n, u32* sets,
    u32* resets) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(old_cells + i));
    const __m256i nw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(new_cells + i));
    const __m256i diff = _mm256_xor_si256(o, nw);
    store_lane_counts(popcount_epi64(_mm256_and_si256(diff, nw)), sets + i);
    store_lane_counts(popcount_epi64(_mm256_and_si256(diff, o)), resets + i);
  }
  for (; i < n; ++i) {
    const u64 diff = old_cells[i] ^ new_cells[i];
    sets[i] = static_cast<u32>(__builtin_popcountll(diff & new_cells[i]));
    resets[i] = static_cast<u32>(__builtin_popcountll(diff & old_cells[i]));
  }
}

__attribute__((target("avx2"))) u32 first_fit_avx2(const u32* power, u32 n,
                                                   u32 limit) {
  const __m256i lim = _mm256_set1_epi32(static_cast<int>(limit));
  u32 i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(power + i));
    // Unsigned v <= limit via min: min(v, limit) == v.
    const __m256i fits = _mm256_cmpeq_epi32(_mm256_min_epu32(v, lim), v);
    const u32 mask =
        static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(fits)));
    if (mask != 0) return i + static_cast<u32>(__builtin_ctz(mask));
  }
  for (; i < n; ++i) {
    if (power[i] <= limit) return i;
  }
  return n;
}

#else  // !TW_SIMD_X86: AVX2 entry points delegate to the reference kernels.

void popcount_each_avx2(const u64* words, std::size_t n, u32* out) {
  popcount_each_scalar(words, n, out);
}

void transition_counts_avx2(const u64* old_cells, const u64* new_cells,
                            std::size_t n, u32* sets, u32* resets) {
  transition_counts_scalar(old_cells, new_cells, n, sets, resets);
}

u32 first_fit_avx2(const u32* power, u32 n, u32 limit) {
  return first_fit_scalar(power, n, limit);
}

#endif  // TW_SIMD_X86

// ---- Dispatching wrappers ------------------------------------------------

void popcount_each(const u64* words, std::size_t n, u32* out) {
  popcount_each(words, n, out, active_level());
}

void transition_counts(const u64* old_cells, const u64* new_cells,
                       std::size_t n, u32* sets, u32* resets) {
  transition_counts(old_cells, new_cells, n, sets, resets, active_level());
}

u32 first_fit(const u32* power, u32 n, u32 limit) {
  return first_fit(power, n, limit, active_level());
}

}  // namespace tw::simd
