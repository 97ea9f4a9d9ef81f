#include "lb/util/rng.hpp"

#include <cmath>
#include <unordered_set>

#include "lb/util/assert.hpp"

namespace lb::util {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // xoshiro's all-zero state is absorbing; SplitMix64 cannot produce four
  // zero outputs from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::split() {
  // Draw a fresh seed from this stream; the child is expanded through
  // SplitMix64 so parent and child states are decorrelated.
  return Rng(next_u64());
}

std::uint64_t Rng::below_slow(State& s, std::uint64_t bound, __uint128_t m) {
  // Lemire's method: reject the biased region [0, 2^64 mod bound).
  const std::uint64_t t = -bound % bound;
  while (static_cast<std::uint64_t>(m) < t) m = static_cast<__uint128_t>(step(s)) * bound;
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  LB_ASSERT_MSG(lo <= hi, "next_in requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  if (span == 0) return static_cast<std::int64_t>(next_u64());
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double(double lo, double hi) {
  LB_ASSERT_MSG(lo <= hi, "next_double requires lo <= hi");
  return lo + (hi - lo) * next_double();
}

double Rng::next_gaussian() {
  // Box-Muller; guard against log(0).
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586476925 * u2);
}

std::int64_t Rng::next_binomial(std::int64_t n, double p) {
  LB_ASSERT_MSG(n >= 0, "binomial n must be non-negative");
  LB_ASSERT_MSG(p >= 0.0 && p <= 1.0, "binomial p must lie in [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Work with p <= 1/2 and mirror at the end.
  bool flipped = false;
  if (p > 0.5) {
    p = 1.0 - p;
    flipped = true;
  }
  std::int64_t k;
  const double np = static_cast<double>(n) * p;
  if (np < 30.0) {
    // Inversion by sequential search over the CDF.  O(np) expected.
    const double q = 1.0 - p;
    const double s = p / q;
    double f = std::pow(q, static_cast<double>(n));  // P[X = 0]
    double u = next_double();
    k = 0;
    while (u > f && k < n) {
      u -= f;
      ++k;
      f *= s * static_cast<double>(n - k + 1) / static_cast<double>(k);
    }
  } else {
    // Normal approximation with continuity correction; accurate to well
    // under the Monte-Carlo noise of our experiments at np >= 30.
    const double mean = np;
    const double sd = std::sqrt(np * (1.0 - p));
    double x = std::floor(mean + sd * next_gaussian() + 0.5);
    if (x < 0.0) x = 0.0;
    if (x > static_cast<double>(n)) x = static_cast<double>(n);
    k = static_cast<std::int64_t>(x);
  }
  return flipped ? n - k : k;
}

std::int64_t Rng::next_geometric(double p) {
  LB_ASSERT_MSG(p > 0.0 && p <= 1.0, "geometric p must lie in (0,1]");
  if (p == 1.0) return 0;
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return static_cast<std::int64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::int64_t Rng::next_poisson(double mean) {
  LB_ASSERT_MSG(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below exp(-mean).
    // Expected draws = mean + 1, fine for per-round event rates.
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= next_double();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; same split as
  // next_binomial, accurate to well under Monte-Carlo noise at mean >= 30.
  double x = std::floor(mean + std::sqrt(mean) * next_gaussian() + 0.5);
  if (x < 0.0) x = 0.0;
  return static_cast<std::int64_t>(x);
}

std::int64_t Rng::next_zipf(std::int64_t n, double s) {
  LB_ASSERT_MSG(n >= 1, "zipf n must be >= 1");
  LB_ASSERT_MSG(s >= 0.0, "zipf exponent must be non-negative");
  if (n == 1) return 1;
  if (s == 0.0) return next_in(1, n);
  // Rejection sampling from the continuous envelope (Devroye).  Handles
  // s == 1 via the logarithmic integral.
  const double nd = static_cast<double>(n);
  for (;;) {
    const double u = next_double();
    double x;
    if (s == 1.0) {
      x = std::exp(u * std::log(nd + 1.0));
    } else {
      const double t = std::pow(nd + 1.0, 1.0 - s);
      x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
    }
    const std::int64_t k = static_cast<std::int64_t>(x);
    if (k < 1 || k > n) continue;
    // Accept with ratio of pmf to envelope density.
    const double ratio = std::pow(static_cast<double>(k) / x, s);
    if (next_double() < ratio) return k;
  }
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  LB_ASSERT_MSG(k <= n, "cannot sample more elements than the population");
  // Floyd's algorithm: expected O(k) with a hash set.
  //
  // Draw-order-independence proof (the determinism linter's worked
  // example, DESIGN.md §8): `chosen` is used membership-only — contains()
  // and insert(), never iterated — so the unordered bucket layout cannot
  // reach the result.  out[i] is a pure function of the next_below()
  // draws and the *set* of previously chosen values, and set membership
  // is independent of iteration order by definition.
  std::unordered_set<std::size_t> chosen;  // lint: order-independent(membership-only: contains/insert, never iterated)
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = static_cast<std::size_t>(next_below(j + 1));
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace lb::util
