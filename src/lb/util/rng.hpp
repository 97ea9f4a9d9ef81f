// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the library (random graphs, random
// matchings, Algorithm 2 partner choice, workload generators) takes an
// explicit Rng so that runs are reproducible from a single seed.  The
// engine is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64,
// which is the standard recipe for avoiding correlated low-entropy seeds.
//
// Rng satisfies the C++ UniformRandomBitGenerator concept, so it can also
// be used with <random> distributions, but the methods provided here are
// preferred: they are deterministic across standard-library
// implementations, which <random> distributions are not.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "lb/util/assert.hpp"

namespace lb::util {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state, and as a
/// cheap standalone generator for seed derivation.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ generator with convenience distributions.
///
/// The per-draw primitives (next_u64, next_below, next_double, next_bool)
/// are defined here in the header: the matching and partner draws make
/// one or two of them per node, and an out-of-line call costs more than
/// the draw itself.
class Rng {
 public:
  using result_type = std::uint64_t;
  /// xoshiro256++'s four state words.
  using State = std::array<std::uint64_t, 4>;

  /// Construct from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  /// Raw 64 random bits.
  result_type operator()() { return next_u64(); }
  result_type next_u64() { return step(s_); }

  /// One xoshiro256++ step on `s`: returns the output and advances `s`.
  /// With state()/set_state() a loop can keep the words in registers and
  /// pick between candidate states without a branch, drawing exactly the
  /// stream next_u64() would.
  static std::uint64_t step(State& s) {
    const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
  const State& state() const { return s_; }
  void set_state(const State& s) { s_ = s; }

  /// Derive an independent child generator; deterministic given this
  /// generator's current state.  Used to hand seeds to worker threads.
  Rng split();

  /// Uniform integer in [0, bound). bound must be > 0.  Uses Lemire's
  /// nearly-divisionless method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) {
    LB_ASSERT_MSG(bound > 0, "next_below bound must be positive");
    return below(s_, bound);
  }

  /// next_below's draw on a loose state: Lemire's multiply-shift, with
  /// the rejection of the biased region (probability bound / 2^64) out of
  /// line.  `bound` must be > 0.
  static std::uint64_t below(State& s, std::uint64_t bound) {
    const __uint128_t m = static_cast<__uint128_t>(step(s)) * bound;
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] return below_slow(s, bound, m);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 high bits -> uniform in [0, 1) with full double precision.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Standard normal via Box-Muller (cached second value is not kept, to
  /// stay stateless; cost is acceptable for our uses).
  double next_gaussian();

  /// Binomial(n, p) sample.  Exact inversion for small n*p, otherwise a
  /// normal approximation with continuity correction clamped to [0, n]
  /// (adequate for the Monte-Carlo experiments of Lemma 9 where n*p ~ 1).
  std::int64_t next_binomial(std::int64_t n, double p);

  /// Geometric: number of failures before first success, p in (0, 1].
  std::int64_t next_geometric(double p);

  /// Poisson(mean) sample.  Knuth's product-of-uniforms inversion for
  /// small means, otherwise a normal approximation with continuity
  /// correction clamped at 0 (the same split next_binomial uses) —
  /// adequate for the open-system traffic streams where the mean is the
  /// per-round event rate.
  std::int64_t next_poisson(double mean);

  /// Zipf-distributed integer in [1, n] with exponent s >= 0, via inverse
  /// CDF on a precomputable harmonic table-free rejection scheme.
  std::int64_t next_zipf(std::int64_t n, double s);

  /// In-place Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (Floyd's algorithm);
  /// result is unsorted.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  /// below()'s rejection loop, entered when the first product's low word
  /// falls under `bound`; `m` is that product.
  static std::uint64_t below_slow(State& s, std::uint64_t bound, __uint128_t m);

  State s_;
};

}  // namespace lb::util
