#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator derives its stream from a
// single user seed via SplitMix64, then runs xoshiro256** locally. This
// keeps figures reproducible bit-for-bit regardless of thread scheduling:
// each (workload, scheme) cell gets an independent deterministic stream.

#include <array>
#include <cmath>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"

namespace tw {

namespace rng_detail {

__extension__ using u128 = unsigned __int128;

/// Bounds up to this take Rng::below's division-free path (bit positions
/// within a 64-bit data unit, the generator's hot case).
inline constexpr u64 kSmallBoundMax = 64;

/// 2^64 mod bound, by division. Rng::below redraws values under it so the
/// remainder stays unbiased.
constexpr u64 division_threshold(u64 bound) { return (~bound + 1) % bound; }

/// Per-bound constants of the division-free path, computed at compile time.
struct SmallDivisor {
  u64 threshold;  ///< 2^64 mod d
  u64 fold;       ///< 2^32 mod d
  u64 magic;      ///< ceil(2^64 / d); wraps to 0 for d == 1 (remainder 0)
};

inline constexpr auto kSmallDivisors = [] {
  std::array<SmallDivisor, kSmallBoundMax + 1> t{};
  for (u64 d = 1; d <= kSmallBoundMax; ++d) {
    t[d] = {division_threshold(d), (u64{1} << 32) % d, ~u64{0} / d + 1};
  }
  return t;
}();

/// Rejection threshold of Rng::below: a table entry for small bounds.
constexpr u64 reject_threshold(u64 bound) {
  return bound <= kSmallBoundMax ? kSmallDivisors[bound].threshold
                                 : division_threshold(bound);
}

/// r mod bound for 1 <= bound <= kSmallBoundMax, without a divide. Folding
/// the high half in (2^32 == fold mod d) leaves n < 2^38 with the same
/// remainder; then Lemire's direct remainder, ((M * n) mod 2^64) * d / 2^64
/// with M = ceil(2^64 / d), is exact because 64 >= 38 + log2(d) (Lemire,
/// Kaser & Kurz, "Faster Remainder by Direct Computation", 2019).
constexpr u64 small_mod(u64 r, u64 bound) {
  const SmallDivisor& s = kSmallDivisors[bound];
  const u64 n = (r >> 32) * s.fold + (r & 0xFFFF'FFFFull);
  const u64 low = s.magic * n;
  return static_cast<u64>((static_cast<u128>(low) * bound) >> 64);
}

}  // namespace rng_detail

/// SplitMix64: used for seeding / stream splitting (Steele et al.).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality 64-bit PRNG.
class Rng {
 public:
  using result_type = u64;

  /// Seed the full 256-bit state from one 64-bit seed through SplitMix64.
  explicit Rng(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  /// Derive an independent child stream (for per-component RNGs).
  Rng split() { return Rng(next()); }

  static constexpr u64 min() { return 0; }
  static constexpr u64 max() { return ~u64{0}; }
  u64 operator()() { return next(); }

  u64 next() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound): redraw below 2^64 mod bound, then take
  /// the remainder. Bounds up to 64 skip the hardware divide (same draws,
  /// same results; see rng_detail).
  u64 below(u64 bound) {
    TW_EXPECTS(bound > 0);
    const u64 threshold = rng_detail::reject_threshold(bound);
    u64 r;
    do {
      r = next();
    } while (r < threshold);
    return bound <= rng_detail::kSmallBoundMax
               ? rng_detail::small_mod(r, bound)
               : r % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  u64 range(u64 lo, u64 hi) {
    TW_EXPECTS(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Geometric-ish positive integer with mean `mean` (>= 1).
  u64 geometric(double mean) {
    TW_EXPECTS(mean >= 1.0);
    const double p = 1.0 / mean;
    double u = uniform();
    if (u <= 0.0) u = 1e-18;
    const double v = std::ceil(std::log(u) / std::log(1.0 - p));
    return v < 1.0 ? 1 : static_cast<u64>(v);
  }

  /// The Knuth-loop limit of poisson(lambda): exp(-lambda). Callers that
  /// draw many samples at one mean compute it once.
  static double poisson_limit(double lambda) { return std::exp(-lambda); }

  /// Poisson sample (Knuth for small lambda, normal approx for large).
  u64 poisson(double lambda) { return poisson(lambda, poisson_limit(lambda)); }

  /// poisson(lambda) with its limit precomputed: `limit` must be
  /// poisson_limit(lambda).
  u64 poisson(double lambda, double limit) {
    TW_EXPECTS(lambda >= 0.0);
    if (lambda <= 0.0) return 0;
    if (lambda < 30.0) {
      u64 k = 0;
      double p = 1.0;
      do {
        ++k;
        p *= uniform();
      } while (p > limit);
      return k - 1;
    }
    const double g = gaussian() * std::sqrt(lambda) + lambda;
    return g < 0.0 ? 0 : static_cast<u64>(g + 0.5);
  }

  /// Standard normal sample (Box–Muller; one value per call).
  double gaussian() {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 1e-18;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

}  // namespace tw
