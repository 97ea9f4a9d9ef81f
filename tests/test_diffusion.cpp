// Tests for Algorithm 1 (lb/core/diffusion.hpp): conservation,
// non-negativity, monotone potential, fixed points (including the paper's
// line counterexample), convergence, and the denominator ablation knobs.
#include "lb/core/diffusion.hpp"

#include <gtest/gtest.h>

#include "lb/core/fos.hpp"
#include "lb/core/load.hpp"
#include "lb/graph/generators.hpp"
#include "lb/workload/initial.hpp"

namespace {

using lb::core::ContinuousDiffusion;
using lb::core::DiffusionConfig;
using lb::core::DiscreteDiffusion;
using lb::graph::Graph;

TEST(DiffusionContinuousTest, ConservesTotalLoad) {
  lb::util::Rng rng(1);
  const Graph g = lb::graph::make_torus2d(5, 5);
  std::vector<double> load = lb::workload::uniform_random<double>(25, 1000.0, rng);
  const double before = lb::core::total_load(load);
  ContinuousDiffusion alg;
  for (int round = 0; round < 50; ++round) alg.step(g, load, rng);
  EXPECT_NEAR(lb::core::total_load(load), before, 1e-6);
}

TEST(DiffusionContinuousTest, PotentialNeverIncreases) {
  lb::util::Rng rng(2);
  const Graph g = lb::graph::make_cycle(16);
  std::vector<double> load = lb::workload::spike<double>(16, 1600.0);
  ContinuousDiffusion alg;
  double prev = lb::core::potential(load);
  for (int round = 0; round < 100; ++round) {
    alg.step(g, load, rng);
    const double cur = lb::core::potential(load);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(DiffusionContinuousTest, LoadsStayNonNegative) {
  lb::util::Rng rng(3);
  const Graph g = lb::graph::make_star(20);
  std::vector<double> load = lb::workload::spike<double>(20, 100.0);
  ContinuousDiffusion alg;
  for (int round = 0; round < 200; ++round) {
    alg.step(g, load, rng);
    EXPECT_TRUE(lb::core::all_non_negative(load)) << "round " << round;
  }
}

TEST(DiffusionContinuousTest, BalancedIsFixedPoint) {
  lb::util::Rng rng(4);
  const Graph g = lb::graph::make_hypercube(4);
  std::vector<double> load(16, 7.5);
  ContinuousDiffusion alg;
  const auto stats = alg.step(g, load, rng);
  EXPECT_EQ(stats.active_edges, 0u);
  EXPECT_DOUBLE_EQ(stats.transferred, 0.0);
  for (double v : load) EXPECT_DOUBLE_EQ(v, 7.5);
}

TEST(DiffusionContinuousTest, ConvergesOnTorus) {
  lb::util::Rng rng(5);
  const Graph g = lb::graph::make_torus2d(6, 6);
  std::vector<double> load = lb::workload::spike<double>(36, 3600.0);
  ContinuousDiffusion alg;
  const double initial = lb::core::potential(load);
  for (int round = 0; round < 400; ++round) alg.step(g, load, rng);
  EXPECT_LT(lb::core::potential(load), 1e-6 * initial);
}

TEST(DiffusionContinuousTest, TwoNodesExactRate) {
  // K_2: degrees 1, transfer (ℓ0 − ℓ1)/4 each round.  Starting (4, 0):
  // after one round (3, 1), after two (2.5, 1.5).
  lb::util::Rng rng(6);
  const Graph g = lb::graph::make_complete(2);
  std::vector<double> load{4.0, 0.0};
  ContinuousDiffusion alg;
  alg.step(g, load, rng);
  EXPECT_DOUBLE_EQ(load[0], 3.0);
  EXPECT_DOUBLE_EQ(load[1], 1.0);
  alg.step(g, load, rng);
  EXPECT_DOUBLE_EQ(load[0], 2.5);
  EXPECT_DOUBLE_EQ(load[1], 1.5);
}

TEST(DiffusionDiscreteTest, ConservesTokens) {
  lb::util::Rng rng(7);
  const Graph g = lb::graph::make_de_bruijn(5);
  std::vector<std::int64_t> load =
      lb::workload::uniform_random<std::int64_t>(32, 64000, rng);
  const std::int64_t before = lb::core::total_load(load);
  DiscreteDiffusion alg;
  for (int round = 0; round < 100; ++round) alg.step(g, load, rng);
  EXPECT_EQ(lb::core::total_load(load), before);
}

TEST(DiffusionDiscreteTest, TokensStayNonNegative) {
  lb::util::Rng rng(8);
  const Graph g = lb::graph::make_star(12);
  std::vector<std::int64_t> load = lb::workload::spike<std::int64_t>(12, 1201);
  DiscreteDiffusion alg;
  for (int round = 0; round < 300; ++round) {
    alg.step(g, load, rng);
    EXPECT_TRUE(lb::core::all_non_negative(load)) << "round " << round;
  }
}

TEST(DiffusionDiscreteTest, LineRampIsFixedPoint) {
  // The paper's §2.2 example: on the path with ℓ_i = i no pair differs by
  // enough to move a whole token: ⌊(1)/(4·2)⌋ = 0.
  lb::util::Rng rng(9);
  const Graph g = lb::graph::make_path(10);
  std::vector<std::int64_t> load = lb::workload::ramp<std::int64_t>(10);
  DiscreteDiffusion alg;
  const auto stats = alg.step(g, load, rng);
  EXPECT_EQ(stats.transferred, 0.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(load[i], static_cast<std::int64_t>(i));
}

TEST(DiffusionDiscreteTest, PotentialNeverIncreases) {
  lb::util::Rng rng(10);
  const Graph g = lb::graph::make_torus2d(4, 4);
  std::vector<std::int64_t> load = lb::workload::spike<std::int64_t>(16, 16000);
  DiscreteDiffusion alg;
  double prev = lb::core::potential(load);
  for (int round = 0; round < 200; ++round) {
    alg.step(g, load, rng);
    const double cur = lb::core::potential(load);
    EXPECT_LE(cur, prev + 1e-9) << "round " << round;
    prev = cur;
  }
}

TEST(DiffusionDiscreteTest, ReachesSmallDiscrepancyFromSpike) {
  lb::util::Rng rng(11);
  const Graph g = lb::graph::make_hypercube(5);
  std::vector<std::int64_t> load = lb::workload::spike<std::int64_t>(32, 320000);
  DiscreteDiffusion alg;
  for (int round = 0; round < 2000; ++round) alg.step(g, load, rng);
  // Far below the initial discrepancy of 320000; the floor rule leaves a
  // residual gap bounded by the per-edge rounding.
  EXPECT_LT(lb::core::discrepancy(load), 100.0);
}

TEST(DiffusionConfigTest, WeightMatchesPaperFormula) {
  const Graph g = lb::graph::make_star(5);  // deg(0)=4, leaves 1
  DiffusionConfig cfg;
  const double w =
      lb::core::diffusion_edge_weight(g, 0, 1, 10.0, 2.0, cfg);
  EXPECT_DOUBLE_EQ(w, 8.0 / (4.0 * 4.0));
}

TEST(DiffusionConfigTest, DegreePlusOneRule) {
  const Graph g = lb::graph::make_star(5);
  DiffusionConfig cfg;
  cfg.rule = lb::core::DenominatorRule::kDegreePlusOne;
  const double w = lb::core::diffusion_edge_weight(g, 0, 1, 10.0, 2.0, cfg);
  EXPECT_DOUBLE_EQ(w, 8.0 / 5.0);
}

TEST(DiffusionConfigTest, FlowFormFosMatchesMatrixFreeFos) {
  // DiffusionBalancer(kDegreePlusOne) over doubles must equal the
  // FirstOrderScheme sweep: both compute L' = M L.
  lb::util::Rng rng(12);
  const Graph g = lb::graph::make_torus2d(4, 5);
  std::vector<double> a = lb::workload::uniform_random<double>(20, 500.0, rng);
  std::vector<double> b = a;

  DiffusionConfig cfg;
  cfg.rule = lb::core::DenominatorRule::kDegreePlusOne;
  lb::core::DiffusionBalancer<double> flow(cfg);
  lb::core::FirstOrderScheme fos;
  for (int round = 0; round < 20; ++round) {
    flow.step(g, a, rng);
    fos.step(g, b, rng);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-9) << "round " << round << " node " << i;
    }
  }
}

TEST(DiffusionConfigTest, SmallerFactorConvergesFasterOnCycleSpike) {
  // With a spike on a cycle, factor 2 moves more load per round than the
  // default 4 and reaches a lower potential after a fixed horizon.
  lb::util::Rng rng(13);
  const Graph g = lb::graph::make_cycle(32);
  std::vector<double> fast_load = lb::workload::spike<double>(32, 3200.0);
  std::vector<double> slow_load = fast_load;
  DiffusionConfig fast_cfg;
  fast_cfg.factor = 2.0;
  ContinuousDiffusion fast(fast_cfg);
  ContinuousDiffusion slow;  // factor 4
  for (int round = 0; round < 100; ++round) {
    fast.step(g, fast_load, rng);
    slow.step(g, slow_load, rng);
  }
  EXPECT_LT(lb::core::potential(fast_load), lb::core::potential(slow_load));
}

TEST(DiffusionNamesTest, DescriptiveNames) {
  EXPECT_EQ(ContinuousDiffusion().name(), "diffusion-cont");
  EXPECT_EQ(DiscreteDiffusion().name(), "diffusion-disc");
  DiffusionConfig cfg;
  cfg.factor = 2.0;
  EXPECT_EQ(ContinuousDiffusion(cfg).name(), "diffusion-cont(f=2)");
  cfg.rule = lb::core::DenominatorRule::kDegreePlusOne;
  EXPECT_EQ(DiscreteDiffusion(cfg).name(), "fos-disc");
}

TEST(DiffusionNamesTest, NonIntegralFactorIsNotTruncated) {
  // Regression: the seed printed static_cast<int>(factor), so f=2.5 and
  // f=2 collided in bench CSV rows.
  DiffusionConfig cfg;
  cfg.factor = 2.5;
  EXPECT_EQ(ContinuousDiffusion(cfg).name(), "diffusion-cont(f=2.5)");
  cfg.factor = 8.0;
  EXPECT_EQ(DiscreteDiffusion(cfg).name(), "diffusion-disc(f=8)");
}

}  // namespace
