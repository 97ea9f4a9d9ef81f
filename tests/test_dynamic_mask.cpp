// Masked-subgraph equivalence suite: a balancer run over a masked
// dynamic sequence (EdgeMask frames, no per-round graph builds) must
// produce a RunResult BIT-identical to the same run over the
// materializing shim (make_materialized: every round rebuilt as a real
// Graph — the pre-mask rebuild path, kept as the oracle), at every
// thread-pool size and for both scalar types.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "lb/core/async.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/heterogeneous.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::graph::Graph;
using lb::graph::GraphSequence;
using lb::util::ThreadPool;

using SeqFactory = std::function<std::unique_ptr<GraphSequence>()>;

struct NamedFactory {
  std::string name;
  SeqFactory make;
};

// Every masked sequence model, over a torus base (72 base edges).
std::vector<NamedFactory> masked_factories(const Graph& base) {
  return {
      {"bernoulli(0.7)",
       [&base] { return lb::graph::make_bernoulli_sequence(base, 0.7, 11); }},
      {"markov(0.15,0.5)",
       [&base] {
         return lb::graph::make_markov_failure_sequence(base, 0.15, 0.5, 12);
       }},
      {"churn(0.8,0.05)",
       [&base] { return lb::graph::make_churn_sequence(base, 0.8, 0.05, 13); }},
      {"partition(4)",
       [&base] { return lb::graph::make_partition_sequence(base, 4); }},
      {"wave(5,2)",
       [&base] { return lb::graph::make_failure_wave_sequence(base, 5, 2); }},
  };
}

std::vector<std::size_t> pool_sizes() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return {1, 2, hw};
}

template <class T>
lb::core::RunResult run_over(lb::core::Balancer<T>& balancer, GraphSequence& seq,
                             std::vector<T> load, std::size_t rounds,
                             ThreadPool* pool) {
  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 1e-12;
  cfg.pool = pool;
  cfg.record_trace = true;
  return lb::core::run(balancer, seq, load, cfg);
}

// Bit-level equality of everything except wall-clock observability.
::testing::AssertionResult results_bits_equal(const lb::core::RunResult& a,
                                              const lb::core::RunResult& b) {
  if (a.rounds != b.rounds)
    return ::testing::AssertionFailure()
           << "rounds " << a.rounds << " vs " << b.rounds;
  if (a.reached_target != b.reached_target || a.stalled != b.stalled)
    return ::testing::AssertionFailure() << "termination flags differ";
  if (a.initial_potential != b.initial_potential)
    return ::testing::AssertionFailure() << "initial potential differs";
  if (a.final_potential != b.final_potential)
    return ::testing::AssertionFailure()
           << "final potential " << a.final_potential << " vs "
           << b.final_potential;
  if (a.final_discrepancy != b.final_discrepancy)
    return ::testing::AssertionFailure() << "final discrepancy differs";
  if (a.trace.size() != b.trace.size())
    return ::testing::AssertionFailure()
           << "trace size " << a.trace.size() << " vs " << b.trace.size();
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& ra = a.trace[i];
    const auto& rb = b.trace[i];
    if (ra.round != rb.round || ra.potential != rb.potential ||
        ra.discrepancy != rb.discrepancy || ra.transferred != rb.transferred ||
        ra.active_edges != rb.active_edges) {
      return ::testing::AssertionFailure() << "trace diverges at round " << ra.round;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Run `make_balancer()` over every masked model at every pool size,
/// masked-vs-materialized-oracle, and expect bit equality.  A fresh
/// balancer per run: per-graph caches must never leak between legs.
template <class T, class MakeBalancer>
void expect_masked_equals_oracle(MakeBalancer&& make_balancer, std::vector<T> load,
                                 std::size_t rounds = 60) {
  const Graph base = lb::graph::make_torus2d(6, 6);
  ASSERT_EQ(load.size(), base.num_nodes());
  for (const NamedFactory& factory : masked_factories(base)) {
    for (const std::size_t threads : pool_sizes()) {
      ThreadPool pool(threads);
      auto masked_seq = factory.make();
      auto balancer = make_balancer();
      const auto masked = run_over(*balancer, *masked_seq, load, rounds, &pool);

      auto oracle_seq = lb::graph::make_materialized(factory.make());
      auto oracle_balancer = make_balancer();
      const auto oracle =
          run_over(*oracle_balancer, *oracle_seq, load, rounds, &pool);

      EXPECT_TRUE(results_bits_equal(masked, oracle))
          << factory.name << ", pool size " << threads;
    }
  }
}

std::vector<std::int64_t> token_spike() {
  return lb::workload::spike<std::int64_t>(36, 36 * 5000);
}

std::vector<double> real_spike() {
  return lb::workload::spike<double>(36, 36.0 * 5000.0);
}

TEST(DynamicMaskTest, DiscreteDiffusionBitIdenticalToOracle) {
  expect_masked_equals_oracle<std::int64_t>(
      [] { return std::make_unique<lb::core::DiscreteDiffusion>(); }, token_spike());
}

TEST(DynamicMaskTest, ContinuousDiffusionBitIdenticalToOracle) {
  expect_masked_equals_oracle<double>(
      [] { return std::make_unique<lb::core::ContinuousDiffusion>(); }, real_spike());
}

TEST(DynamicMaskTest, FosContinuousBitIdenticalToOracle) {
  expect_masked_equals_oracle<double>(
      [] { return std::make_unique<lb::core::FirstOrderScheme>(); }, real_spike());
}

TEST(DynamicMaskTest, FosDiscreteBitIdenticalToOracle) {
  // FOS-disc is DiscreteDiffusion under the δ+1 denominator rule.
  expect_masked_equals_oracle<std::int64_t>([] { return lb::core::make_fos_discrete(); },
                                            token_spike());
}

TEST(DynamicMaskTest, SosBitIdenticalToOracle) {
  // Fixed β: the γ-derived default would materialize round 1 in both
  // legs anyway, but a pinned value keeps this test about the kernels.
  expect_masked_equals_oracle<double>(
      [] { return std::make_unique<lb::core::SecondOrderScheme>(1.5); }, real_spike());
}

TEST(DynamicMaskTest, AsyncDiffusionBitIdenticalToOracle) {
  // Randomized activation: both legs draw from the engine-seeded stream,
  // so the active sets — and therefore the flows — must coincide.
  expect_masked_equals_oracle<std::int64_t>(
      [] { return std::make_unique<lb::core::DiscreteAsyncDiffusion>(0.5); },
      token_spike());
}

TEST(DynamicMaskTest, HeterogeneousBitIdenticalToOracle) {
  std::vector<double> speed(36);
  for (std::size_t i = 0; i < speed.size(); ++i) {
    speed[i] = 1.0 + static_cast<double>(i % 4);
  }
  expect_masked_equals_oracle<double>(
      [&speed] {
        return std::make_unique<lb::core::ContinuousHeterogeneousDiffusion>(speed);
      },
      real_spike());
}

TEST(DynamicMaskTest, MaskedRunsPoolInvariant) {
  // Masked runs must also agree with themselves across pool sizes (the
  // PR-2 determinism contract extended to masked rounds): compare every
  // pool size against the single-worker reference.
  const Graph base = lb::graph::make_torus2d(6, 6);
  for (const NamedFactory& factory : masked_factories(base)) {
    ThreadPool reference_pool(1);
    auto reference_seq = factory.make();
    lb::core::DiscreteDiffusion reference_alg;
    const auto reference = run_over<std::int64_t>(reference_alg, *reference_seq,
                                                  token_spike(), 60, &reference_pool);
    for (const std::size_t threads : pool_sizes()) {
      ThreadPool pool(threads);
      auto seq = factory.make();
      lb::core::DiscreteDiffusion alg;
      const auto result = run_over<std::int64_t>(alg, *seq, token_spike(), 60, &pool);
      EXPECT_TRUE(results_bits_equal(reference, result))
          << factory.name << ", pool size " << threads;
    }
  }
}

TEST(DynamicMaskTest, DimensionExchangeMaterializingViewMatchesOracle) {
  // Matching-based balancers need full adjacency structure, so on masked
  // rounds they go through the context's lazily materializing graph()
  // view (DESIGN.md §5 "materialize vs mask").  Same subgraph, same RNG
  // stream => bit-identical to the explicit rebuild path.
  expect_masked_equals_oracle<std::int64_t>(
      [] {
        return std::make_unique<lb::core::DiscreteDimensionExchange>(
            lb::core::MatchingStrategy::kRandomMaximal);
      },
      token_spike(), /*rounds=*/40);
}

TEST(DynamicMaskTest, EdgeSweepConfigStillRunsOnMaterializedPath) {
  // The seed's edge sweep (seed_oracle.hpp) runs on masked sequences
  // through the context's materializing graph() view; the production
  // masked fast path must match it bit for bit.
  const Graph base = lb::graph::make_torus2d(6, 6);
  ThreadPool pool(2);
  auto masked_seq = lb::graph::make_bernoulli_sequence(base, 0.7, 21);
  seed::Diffusion<std::int64_t> sweep_alg;
  const auto sweep =
      run_over<std::int64_t>(sweep_alg, *masked_seq, token_spike(), 50, &pool);

  auto ledger_seq = lb::graph::make_bernoulli_sequence(base, 0.7, 21);
  lb::core::DiscreteDiffusion ledger_alg;
  const auto ledger =
      run_over<std::int64_t>(ledger_alg, *ledger_seq, token_spike(), 50, &pool);
  EXPECT_TRUE(results_bits_equal(sweep, ledger));
}

}  // namespace
