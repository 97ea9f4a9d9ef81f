// Tests for the workload generators (lb/workload/initial.hpp).
#include "lb/workload/initial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "lb/core/load.hpp"

namespace {

TEST(SpikeTest, AllLoadOnNodeZero) {
  const auto load = lb::workload::spike<std::int64_t>(10, 500);
  EXPECT_EQ(load[0], 500);
  for (std::size_t i = 1; i < 10; ++i) EXPECT_EQ(load[i], 0);
}

TEST(SpikeTest, ContinuousVariant) {
  const auto load = lb::workload::spike<double>(4, 7.5);
  EXPECT_DOUBLE_EQ(load[0], 7.5);
  EXPECT_DOUBLE_EQ(lb::core::total_load(load), 7.5);
}

TEST(UniformRandomTest, DiscreteTotalIsExact) {
  lb::util::Rng rng(1);
  for (std::int64_t total : {0L, 100L, 99999L}) {
    const auto load = lb::workload::uniform_random<std::int64_t>(13, total, rng);
    EXPECT_EQ(lb::core::total_load(load), total);
    EXPECT_TRUE(lb::core::all_non_negative(load));
  }
}

TEST(UniformRandomTest, ContinuousTotalMatches) {
  lb::util::Rng rng(2);
  const auto load = lb::workload::uniform_random<double>(50, 1234.5, rng);
  EXPECT_NEAR(lb::core::total_load(load), 1234.5, 1e-9);
  EXPECT_TRUE(lb::core::all_non_negative(load));
}

TEST(UniformRandomTest, ValuesVary) {
  lb::util::Rng rng(3);
  const auto load = lb::workload::uniform_random<std::int64_t>(100, 100000, rng);
  EXPECT_GT(lb::core::discrepancy(load), 0.0);
}

TEST(BimodalTest, TotalExactAndSkewed) {
  lb::util::Rng rng(4);
  const auto load = lb::workload::bimodal<std::int64_t>(20, 10000, rng);
  EXPECT_EQ(lb::core::total_load(load), 10000);
  // Two load levels: heavy nodes carry ~9x the light ones.
  std::int64_t mx = *std::max_element(load.begin(), load.end());
  std::int64_t mn = *std::min_element(load.begin(), load.end());
  EXPECT_GT(mx, 5 * std::max<std::int64_t>(mn, 1));
}

TEST(RampTest, LinearInIndex) {
  const auto load = lb::workload::ramp<std::int64_t>(6);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(load[i], static_cast<std::int64_t>(i));
}

TEST(RampTest, ScaledContinuous) {
  const auto load = lb::workload::ramp<double>(4, 2.5);
  EXPECT_DOUBLE_EQ(load[3], 7.5);
}

TEST(ZipfTest, TotalExactAndHeavyTailed) {
  lb::util::Rng rng(5);
  const auto load = lb::workload::zipf<std::int64_t>(64, 64000, 1.0, rng);
  EXPECT_EQ(lb::core::total_load(load), 64000);
  // Heavy tail: the max holds far more than the average.
  EXPECT_GT(*std::max_element(load.begin(), load.end()), 3 * 1000);
}

TEST(BalancedTest, DiscreteSpreadsRemainder) {
  const auto load = lb::workload::balanced<std::int64_t>(4, 10);
  EXPECT_EQ(lb::core::total_load(load), 10);
  EXPECT_LE(lb::core::discrepancy(load), 1.0);
  // 10 = 3+3+2+2.
  EXPECT_EQ(load[0], 3);
  EXPECT_EQ(load[3], 2);
}

TEST(BalancedTest, ContinuousHasZeroPotential) {
  const auto load = lb::workload::balanced<double>(7, 42.0);
  EXPECT_NEAR(lb::core::potential(load), 0.0, 1e-18);
}

TEST(NamedWorkloadTest, AllNamesProduceExactTotals) {
  lb::util::Rng rng(6);
  for (const std::string& name : lb::workload::named_workloads()) {
    if (name == "ramp") continue;  // ramp ignores the total by design
    const auto load = lb::workload::make_named<std::int64_t>(name, 16, 4096, rng);
    EXPECT_EQ(lb::core::total_load(load), 4096) << name;
    EXPECT_TRUE(lb::core::all_non_negative(load)) << name;
  }
}

TEST(NamedWorkloadTest, UnknownNameDies) {
  lb::util::Rng rng(7);
  EXPECT_DEATH((void)lb::workload::make_named<double>("bogus", 4, 1.0, rng),
               "unknown workload");
}

TEST(UniformRandomTest, FractionalCapIsNotFloored) {
  // Regression: with cap = 2·total/n = 6.5, the old draw floored the cap
  // (next_below(6+1): uniform over {0..6}, mean 3.0 < total/n = 3.25) and
  // fix_total back-filled the ~0.27·n deficit with random increments,
  // pushing ~4% of nodes past the cap to 7+.  The rounded draw keeps the
  // mean at ~cap/2, so values above the cap stay rare (~0.6%: only
  // remainder tokens landing on capped nodes).  n is large enough that
  // the draw-sum's own variance (≈ sqrt(n)·1.9 tokens either way) stays
  // small against the pre-fix bias, keeping the two regimes separated.
  lb::util::Rng rng(99);
  std::size_t above_cap = 0, samples = 0;
  for (int rep = 0; rep < 500; ++rep) {
    const auto load = lb::workload::uniform_random<std::int64_t>(400, 1300, rng);
    ASSERT_EQ(lb::core::total_load(load), 1300);
    for (std::int64_t v : load) {
      ASSERT_GE(v, 0);
      if (v >= 7) ++above_cap;
      ++samples;
    }
  }
  EXPECT_LT(static_cast<double>(above_cap) / static_cast<double>(samples), 0.02);
}

TEST(UniformRandomTest, SurplusDrawsAreTrimmedExactly) {
  // Rounding can push the draw sum above the total (small caps round up
  // often); the trim path must land on the exact total without going
  // negative, across many realizations.
  lb::util::Rng rng(123);
  for (int rep = 0; rep < 500; ++rep) {
    const auto load = lb::workload::uniform_random<std::int64_t>(3, 2, rng);
    EXPECT_EQ(lb::core::total_load(load), 2);
    EXPECT_TRUE(lb::core::all_non_negative(load));
  }
}

TEST(UniformRandomTest, HugeCorrectionIsBulkDistributed) {
  // Regression for the O(deficit) fix_total loop: with two nodes and a
  // 4e9 total, a low draw leaves a deficit of ~1e9 tokens, which the old
  // loop paid for one RNG call at a time.  The bulk distribution makes
  // this instantaneous; the exact-total postcondition is unchanged.
  lb::util::Rng rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t total = 4'000'000'000LL;
    const auto load = lb::workload::uniform_random<std::int64_t>(2, total, rng);
    EXPECT_EQ(lb::core::total_load(load), total);
    EXPECT_TRUE(lb::core::all_non_negative(load));
  }
}

TEST(WorkloadDeterminismTest, SameSeedSameLoad) {
  lb::util::Rng a(42), b(42);
  EXPECT_EQ(lb::workload::uniform_random<std::int64_t>(32, 3200, a),
            lb::workload::uniform_random<std::int64_t>(32, 3200, b));
}

TEST(CheckerboardTest, AlternatesAndSumsExactly) {
  const auto load = lb::workload::checkerboard<std::int64_t>(8, 100);
  EXPECT_EQ(lb::core::total_load(load), 100);
  for (std::size_t i = 1; i < 8; i += 2) EXPECT_EQ(load[i], 0);
  for (std::size_t i = 0; i < 8; i += 2) EXPECT_GT(load[i], 0);
}

TEST(CheckerboardTest, OddNodeCount) {
  const auto load = lb::workload::checkerboard<std::int64_t>(5, 31);
  EXPECT_EQ(lb::core::total_load(load), 31);
  EXPECT_EQ(load[1], 0);
  EXPECT_EQ(load[3], 0);
}

TEST(CheckerboardTest, ContinuousVariant) {
  const auto load = lb::workload::checkerboard<double>(4, 10.0);
  EXPECT_DOUBLE_EQ(load[0], 5.0);
  EXPECT_DOUBLE_EQ(load[1], 0.0);
  EXPECT_DOUBLE_EQ(lb::core::total_load(load), 10.0);
}

TEST(TwoSpikesTest, SplitsBetweenEnds) {
  const auto load = lb::workload::two_spikes<std::int64_t>(10, 101);
  EXPECT_EQ(load[0], 51);
  EXPECT_EQ(load[5], 50);
  EXPECT_EQ(lb::core::total_load(load), 101);
  for (std::size_t i : {1u, 4u, 6u, 9u}) EXPECT_EQ(load[i], 0);
}

TEST(TwoSpikesTest, ContinuousHalves) {
  const auto load = lb::workload::two_spikes<double>(6, 12.0);
  EXPECT_DOUBLE_EQ(load[0], 6.0);
  EXPECT_DOUBLE_EQ(load[3], 6.0);
}

TEST(SpikeTest, PotentialIsWorstCaseForGivenTotal) {
  // Among non-negative distributions with a fixed total on n nodes, the
  // spike maximizes Φ; verify against a few alternatives.
  lb::util::Rng rng(8);
  const std::int64_t total = 1000;
  const std::size_t n = 10;
  const double spike_phi = lb::core::potential(lb::workload::spike<std::int64_t>(n, total));
  EXPECT_GE(spike_phi,
            lb::core::potential(lb::workload::uniform_random<std::int64_t>(n, total, rng)));
  EXPECT_GE(spike_phi,
            lb::core::potential(lb::workload::bimodal<std::int64_t>(n, total, rng)));
  EXPECT_GE(spike_phi,
            lb::core::potential(lb::workload::zipf<std::int64_t>(n, total, 1.0, rng)));
}

// ------------------------------------------- size_t-permutation reference

/// The generators' total fix, restated: the int64 bulk share and random
/// remainder, and the double rescale.
void reference_fix_total(std::vector<std::int64_t>& load, std::int64_t total,
                         lb::util::Rng& rng) {
  const auto n = static_cast<std::int64_t>(load.size());
  std::int64_t sum = 0;
  for (const std::int64_t v : load) sum += v;
  if (sum < total && total - sum >= n) {
    const std::int64_t share = (total - sum) / n;
    for (std::int64_t& v : load) v += share;
    sum += share * n;
  }
  while (sum > total) {
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
    const auto i = static_cast<std::size_t>(rng.next_below(load.size()));
    if (load[i] > 0) {
      --load[i];
      --sum;
    }
  }
}

void reference_fix_total(std::vector<double>& load, double total, lb::util::Rng&) {
  double sum = 0.0;
  for (const double v : load) sum += v;
  if (sum <= 0.0) {
    std::fill(load.begin(), load.end(), total / static_cast<double>(load.size()));
    return;
  }
  const double scale = total / sum;
  for (double& v : load) v *= scale;
}

/// bimodal and zipf as they were with a size_t permutation.
std::vector<std::size_t> reference_order(std::size_t n, lb::util::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  return order;
}

template <class T>
std::vector<T> reference_bimodal(std::size_t n, T total, lb::util::Rng& rng) {
  std::vector<T> load(n, T{});
  const std::size_t heavy = n / 2;
  const double heavy_share = 0.9 * static_cast<double>(total);
  const double light_share = static_cast<double>(total) - heavy_share;
  const std::vector<std::size_t> order = reference_order(n, rng);
  for (std::size_t k = 0; k < n; ++k) {
    const double share = k < heavy ? heavy_share / static_cast<double>(heavy)
                                   : light_share / static_cast<double>(n - heavy);
    load[order[k]] = static_cast<T>(share);
  }
  reference_fix_total(load, total, rng);
  return load;
}

template <class T>
std::vector<T> reference_zipf(std::size_t n, T total, double exponent, lb::util::Rng& rng) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  double wsum = 0.0;
  for (const double w : weights) wsum += w;
  const std::vector<std::size_t> order = reference_order(n, rng);
  std::vector<T> load(n, T{});
  for (std::size_t rank = 0; rank < n; ++rank) {
    load[order[rank]] = static_cast<T>(static_cast<double>(total) * weights[rank] / wsum);
  }
  reference_fix_total(load, total, rng);
  return load;
}

/// Same loads bit for bit, and the same Rng state after, as the reference.
template <class T>
void expect_matches_size_t_reference() {
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{1000},
                              std::size_t{1} << 20}) {
    SCOPED_TRACE(n);
    const T total = static_cast<T>(1000.0 * static_cast<double>(n) + 7.0);
    lb::util::Rng rng(41 + n);
    lb::util::Rng ref_rng(41 + n);
    EXPECT_EQ(lb::workload::bimodal<T>(n, total, rng), reference_bimodal<T>(n, total, ref_rng));
    EXPECT_EQ(lb::workload::zipf<T>(n, total, 1.1, rng),
              reference_zipf<T>(n, total, 1.1, ref_rng));
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
  }
}

TEST(WorkloadPermutationTest, BimodalAndZipfMatchSizeTPermutationTokens) {
  expect_matches_size_t_reference<std::int64_t>();
}

TEST(WorkloadPermutationTest, BimodalAndZipfMatchSizeTPermutationReal) {
  expect_matches_size_t_reference<double>();
}

}  // namespace
