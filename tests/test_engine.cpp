// Tests for the simulation engine (lb/core/engine.hpp) and traces.
#include "lb/core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/graph/generators.hpp"
#include "lb/workload/initial.hpp"

namespace {

using lb::core::EngineConfig;
using lb::core::RunResult;

/// A balancer that neither plans its rounds nor overrides step().
class NeitherPlansNorSteps final : public lb::core::Balancer<double> {
 public:
  std::string name() const override { return "unplanned-probe"; }
};

TEST(EngineTest, BalancerThatNeitherPlansNorStepsAbortsNamingIt) {
  const auto g = lb::graph::make_cycle(8);
  NeitherPlansNorSteps alg;
  lb::core::EngineConfig cfg;
  cfg.max_rounds = 1;
  cfg.target_potential = 0.0;
  std::vector<double> load = lb::workload::spike<double>(8, 80.0);
  EXPECT_DEATH(lb::core::run_static(alg, g, load, cfg), "unplanned-probe");
}

TEST(EngineTest, ReachesTargetPotential) {
  const auto g = lb::graph::make_torus2d(5, 5);
  auto load = lb::workload::spike<double>(25, 2500.0);
  const double phi0 = lb::core::potential(load);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.target_potential = 1e-6 * phi0;
  cfg.max_rounds = 10000;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  EXPECT_TRUE(r.reached_target);
  EXPECT_FALSE(r.stalled);
  EXPECT_LE(r.final_potential, cfg.target_potential);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_DOUBLE_EQ(r.initial_potential, phi0);
}

TEST(EngineTest, MaxRoundsRespected) {
  const auto g = lb::graph::make_cycle(64);
  auto load = lb::workload::spike<double>(64, 6400.0);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.max_rounds = 5;
  cfg.target_potential = 0.0;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_FALSE(r.reached_target);
}

TEST(EngineTest, DiscreteStallDetection) {
  // The discrete line ramp is a fixed point: the engine must detect the
  // stall instead of burning max_rounds.
  const auto g = lb::graph::make_path(12);
  auto load = lb::workload::ramp<std::int64_t>(12);
  lb::core::DiscreteDiffusion alg;
  EngineConfig cfg;
  cfg.max_rounds = 100000;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 3;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  EXPECT_TRUE(r.stalled);
  EXPECT_LE(r.rounds, 10u);
}

TEST(EngineTest, AlreadyBalancedReturnsImmediately) {
  const auto g = lb::graph::make_cycle(8);
  std::vector<double> load(8, 3.0);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.target_potential = 1e-9;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(EngineTest, TraceRecordsMonotonePotential) {
  const auto g = lb::graph::make_hypercube(4);
  auto load = lb::workload::spike<double>(16, 1600.0);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.max_rounds = 50;
  cfg.target_potential = 0.0;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  ASSERT_EQ(r.trace.size(), 50u);
  double prev = r.initial_potential;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_EQ(r.trace[i].round, i + 1);
    EXPECT_LE(r.trace[i].potential, prev + 1e-9);
    prev = r.trace[i].potential;
  }
}

TEST(EngineTest, TraceDisabledWhenRequested) {
  const auto g = lb::graph::make_cycle(8);
  auto load = lb::workload::spike<double>(8, 80.0);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.max_rounds = 10;
  cfg.record_trace = false;
  const RunResult r = lb::core::run_static(alg, g, load, cfg);
  EXPECT_TRUE(r.trace.empty());
}

TEST(EngineTest, DynamicSequenceIsConsumedInOrder) {
  // Alternate cycle / complete; the run must not assert and must converge
  // faster than cycle alone.
  std::vector<lb::graph::Graph> graphs;
  graphs.push_back(lb::graph::make_cycle(16));
  graphs.push_back(lb::graph::make_complete(16));
  auto seq = lb::graph::make_periodic_sequence(std::move(graphs));
  auto load = lb::workload::spike<double>(16, 1600.0);
  const double phi0 = lb::core::potential(load);
  lb::core::ContinuousDiffusion alg;
  EngineConfig cfg;
  cfg.max_rounds = 100;
  cfg.target_potential = 1e-6 * phi0;
  const RunResult r = lb::core::run(alg, *seq, load, cfg);
  EXPECT_TRUE(r.reached_target);
}

TEST(TraceTest, CsvFormat) {
  lb::core::Trace t;
  t.add({1, 100.0, 10.0, 5.0, 3});
  t.add({2, 50.0, 8.0, 4.0, 2});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("round,potential,discrepancy,transferred,active_edges"),
            std::string::npos);
  EXPECT_NE(csv.find("1,100,10,5,3"), std::string::npos);
  EXPECT_NE(csv.find("2,50,8,4,2"), std::string::npos);
}

TEST(TraceTest, FirstRoundAtOrBelow) {
  lb::core::Trace t;
  t.add({1, 100.0, 0, 0, 0});
  t.add({2, 10.0, 0, 0, 0});
  t.add({3, 1.0, 0, 0, 0});
  EXPECT_EQ(t.first_round_at_or_below(10.0), 2u);
  EXPECT_EQ(t.first_round_at_or_below(0.5), 0u);
}

TEST(MetricsTest, AnalyzeGeometricDecay) {
  // Synthetic trace: Φ halves each round.
  lb::core::Trace t;
  double phi = 1024.0;
  for (std::size_t round = 1; round <= 10; ++round) {
    phi /= 2.0;
    t.add({round, phi, 0, 0, 0});
  }
  const auto rep = lb::core::analyze(t, 1024.0, /*epsilon=*/1e-3);
  EXPECT_NEAR(rep.mean_drop_ratio, 0.5, 1e-12);
  EXPECT_NEAR(rep.log_slope, std::log(0.5), 1e-9);
  EXPECT_NEAR(rep.fit_r_squared, 1.0, 1e-9);
  // 1e-3 * 1024 ~ 1.02; Φ reaches 1.0 at round 10.
  EXPECT_EQ(rep.rounds_to_epsilon, 10u);
}

TEST(MetricsTest, EmptyTrace) {
  lb::core::Trace t;
  const auto rep = lb::core::analyze(t, 5.0);
  EXPECT_EQ(rep.rounds, 0u);
  EXPECT_DOUBLE_EQ(rep.final_potential, 5.0);
}

TEST(MetricsTest, SafeRatio) {
  EXPECT_DOUBLE_EQ(lb::core::safe_ratio(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(lb::core::safe_ratio(0.0, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(lb::core::safe_ratio(1.0, 0.0)));
}

TEST(EngineTest, DeterministicGivenSeed) {
  const auto g = lb::graph::make_torus2d(4, 4);
  auto load_a = lb::workload::spike<std::int64_t>(16, 16000);
  auto load_b = load_a;
  lb::core::DiscreteDiffusion alg_a, alg_b;
  EngineConfig cfg;
  cfg.max_rounds = 50;
  cfg.seed = 7;
  const RunResult ra = lb::core::run_static(alg_a, g, load_a, cfg);
  const RunResult rb = lb::core::run_static(alg_b, g, load_b, cfg);
  EXPECT_EQ(load_a, load_b);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_DOUBLE_EQ(ra.final_potential, rb.final_potential);
}

}  // namespace
