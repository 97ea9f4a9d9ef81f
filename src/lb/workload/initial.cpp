#include "lb/workload/initial.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "lb/util/assert.hpp"

namespace lb::workload {

namespace {

/// 0..n-1 in a uniformly random order.  Node ids are uint32 throughout, so
/// the permutation is too: half the bytes of a size_t one to shuffle and
/// scatter through, and the same order, since Rng::shuffle draws
/// next_below(i) whatever the element type.
std::vector<std::uint32_t> shuffled_ids(std::size_t n, util::Rng& rng) {
  LB_ASSERT_MSG(n <= (std::uint64_t{1} << 32), "node ids must fit in uint32");
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  rng.shuffle(order);
  return order;
}

/// Adjust an integer vector (non-negative entries) so its sum equals
/// `total`, never driving an entry negative.  The bulk of the correction
/// is distributed uniformly (an equal share to/from every node), so the
/// cost is O(n · log(correction)) instead of the old one-token-at-a-time
/// O(correction) loop, which degenerated when the draws summed far from
/// `total` (large totals over few nodes).  Only the sub-n remainder is
/// placed one token at a time on random nodes, preserving the randomized
/// placement the generators rely on.  Draw-order contract: the remainder
/// loop consumes one next_below(n) per leftover token (plus re-draws for
/// nodes already at zero when removing); the bulk phase consumes none.
void fix_total(std::vector<std::int64_t>& load, std::int64_t total, util::Rng& rng) {
  const std::int64_t n = static_cast<std::int64_t>(load.size());
  std::int64_t sum = 0;
  for (std::int64_t v : load) sum += v;

  if (sum < total && total - sum >= n) {
    const std::int64_t share = (total - sum) / n;
    for (std::int64_t& v : load) v += share;
    sum += share * n;  // leftover is now < n, placed randomly below
  }
  while (sum > total) {
    // Uniform cut, clamped at zero.  Each pass removes either the full
    // n·share or hits the clamp on some nodes; either way the excess at
    // least halves per pass once share >= 1, so the loop is logarithmic.
    const std::int64_t share = (sum - total) / n;
    if (share == 0) break;
    for (std::int64_t& v : load) {
      const std::int64_t cut = std::min(v, share);
      v -= cut;
      sum -= cut;
    }
  }

  while (sum < total) {
    ++load[static_cast<std::size_t>(rng.next_below(load.size()))];
    ++sum;
  }
  while (sum > total) {
    const std::size_t i = static_cast<std::size_t>(rng.next_below(load.size()));
    if (load[i] > 0) {
      --load[i];
      --sum;
    }
  }
}

/// Scale a non-negative double vector so its sum equals `total` exactly
/// up to floating-point rounding.
void fix_total(std::vector<double>& load, double total, util::Rng& /*rng*/) {
  double sum = 0.0;
  for (double v : load) sum += v;
  if (sum <= 0.0) {
    const double each = total / static_cast<double>(load.size());
    std::fill(load.begin(), load.end(), each);
    return;
  }
  const double scale = total / sum;
  for (double& v : load) v *= scale;
}

}  // namespace

template <class T>
std::vector<T> spike(std::size_t n, T total) {
  LB_ASSERT_MSG(n >= 1, "need at least one node");
  LB_ASSERT_MSG(total >= T{}, "total load must be non-negative");
  std::vector<T> load(n, T{});
  load[0] = total;
  return load;
}

template <class T>
std::vector<T> uniform_random(std::size_t n, T total, util::Rng& rng) {
  LB_ASSERT_MSG(n >= 1, "need at least one node");
  std::vector<T> load(n);
  const double cap = 2.0 * static_cast<double>(total) / static_cast<double>(n);
  for (T& v : load) {
    if constexpr (std::is_integral_v<T>) {
      // Draw a real uniform over [0, cap) and round to the nearest
      // integer.  Truncating the cap itself (the old
      // next_below(floor(cap)+1)) floored fractional caps — total=5, n=4
      // drew from {0,1,2} with mean 1.0 instead of ≈ total/n = 1.25 —
      // biasing every draw low and shifting the whole correction onto
      // fix_total.  Rounding the draw keeps the mean at cap/2 (exactly,
      // for integral caps: the two half-weight endpoints balance).
      v = static_cast<T>(std::llround(rng.next_double(0.0, cap)));
    } else {
      v = static_cast<T>(rng.next_double(0.0, cap));
    }
  }
  fix_total(load, total, rng);
  return load;
}

template <class T>
std::vector<T> bimodal(std::size_t n, T total, util::Rng& rng) {
  LB_ASSERT_MSG(n >= 2, "bimodal needs at least two nodes");
  std::vector<T> load(n, T{});
  const std::size_t heavy = n / 2;
  const double heavy_share = 0.9 * static_cast<double>(total);
  const double light_share = static_cast<double>(total) - heavy_share;
  const std::vector<std::uint32_t> order = shuffled_ids(n, rng);
  for (std::size_t k = 0; k < n; ++k) {
    const double share = k < heavy ? heavy_share / static_cast<double>(heavy)
                                   : light_share / static_cast<double>(n - heavy);
    load[order[k]] = static_cast<T>(share);
  }
  fix_total(load, total, rng);
  return load;
}

template <class T>
std::vector<T> ramp(std::size_t n, double scale) {
  LB_ASSERT_MSG(n >= 1, "need at least one node");
  LB_ASSERT_MSG(scale >= 0.0, "ramp scale must be non-negative");
  std::vector<T> load(n);
  for (std::size_t i = 0; i < n; ++i) {
    load[i] = static_cast<T>(scale * static_cast<double>(i));
  }
  return load;
}

template <class T>
std::vector<T> zipf(std::size_t n, T total, double exponent, util::Rng& rng) {
  LB_ASSERT_MSG(n >= 1, "need at least one node");
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  const std::vector<std::uint32_t> order = shuffled_ids(n, rng);
  std::vector<T> load(n, T{});
  for (std::size_t rank = 0; rank < n; ++rank) {
    const double share = static_cast<double>(total) * weights[rank] / wsum;
    load[order[rank]] = static_cast<T>(share);
  }
  fix_total(load, total, rng);
  return load;
}

template <class T>
std::vector<T> balanced(std::size_t n, T total) {
  LB_ASSERT_MSG(n >= 1, "need at least one node");
  std::vector<T> load(n);
  if constexpr (std::is_integral_v<T>) {
    const T each = total / static_cast<T>(n);
    T rem = total - each * static_cast<T>(n);
    for (std::size_t i = 0; i < n; ++i) {
      load[i] = each + (static_cast<T>(i) < rem ? 1 : 0);
    }
  } else {
    std::fill(load.begin(), load.end(), total / static_cast<T>(n));
  }
  return load;
}

template <class T>
std::vector<T> checkerboard(std::size_t n, T total) {
  LB_ASSERT_MSG(n >= 2, "checkerboard needs at least two nodes");
  // Even nodes share the total; odd nodes start empty.
  const std::size_t evens = (n + 1) / 2;
  std::vector<T> load(n, T{});
  if constexpr (std::is_integral_v<T>) {
    const T each = total / static_cast<T>(evens);
    T rem = total - each * static_cast<T>(evens);
    for (std::size_t i = 0; i < n; i += 2) {
      load[i] = each + (rem > 0 ? 1 : 0);
      if (rem > 0) --rem;
    }
  } else {
    for (std::size_t i = 0; i < n; i += 2) {
      load[i] = total / static_cast<T>(evens);
    }
  }
  return load;
}

template <class T>
std::vector<T> two_spikes(std::size_t n, T total) {
  LB_ASSERT_MSG(n >= 2, "two spikes need at least two nodes");
  std::vector<T> load(n, T{});
  if constexpr (std::is_integral_v<T>) {
    load[0] = total / 2 + (total % 2);
    load[n / 2] = total / 2;
  } else {
    load[0] = total / 2;
    load[n / 2] = total / 2;
  }
  return load;
}

std::vector<std::string> named_workloads() {
  return {"spike", "uniform", "bimodal",      "ramp",
          "zipf",  "balanced", "checkerboard", "twospikes"};
}

template <class T>
std::vector<T> make_named(const std::string& name, std::size_t n, T total,
                          util::Rng& rng) {
  if (name == "spike") return spike(n, total);
  if (name == "uniform") return uniform_random(n, total, rng);
  if (name == "bimodal") return bimodal(n, total, rng);
  if (name == "ramp") return ramp<T>(n, /*scale=*/1.0);
  if (name == "zipf") return zipf(n, total, /*exponent=*/1.0, rng);
  if (name == "balanced") return balanced(n, total);
  if (name == "checkerboard") return checkerboard(n, total);
  if (name == "twospikes") return two_spikes(n, total);
  LB_ASSERT_MSG(false, "unknown workload name");
  return {};
}

#define LB_INSTANTIATE(T)                                                       \
  template std::vector<T> spike<T>(std::size_t, T);                             \
  template std::vector<T> uniform_random<T>(std::size_t, T, util::Rng&);        \
  template std::vector<T> bimodal<T>(std::size_t, T, util::Rng&);               \
  template std::vector<T> ramp<T>(std::size_t, double);                         \
  template std::vector<T> zipf<T>(std::size_t, T, double, util::Rng&);          \
  template std::vector<T> balanced<T>(std::size_t, T);                          \
  template std::vector<T> checkerboard<T>(std::size_t, T);                      \
  template std::vector<T> two_spikes<T>(std::size_t, T);                        \
  template std::vector<T> make_named<T>(const std::string&, std::size_t, T,     \
                                        util::Rng&);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::workload
