// Masked-subgraph equivalence suite: a balancer run over a masked
// dynamic sequence (EdgeMask frames, no per-round graph builds) must
// produce a RunResult BIT-identical to the same run over the
// materializing shim (make_materialized: every round rebuilt as a real
// Graph — the pre-mask rebuild path, kept as the oracle), at every
// thread-pool size and for both scalar types.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <thread>

#include "lb/core/async.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/heterogeneous.hpp"
#include "lb/core/ops.hpp"
#include "lb/core/round_context.hpp"
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
  // Matchings are drawn on the frame (graph/matching.hpp): alive-degrees
  // and the base's incident-edge rows, no materialized view.  The draw
  // consumes the RNG exactly as a draw on the materialized graph, so the
  // masked runs are bit-identical to the explicit rebuild path, for both
  // randomized strategies (GM is the campaign's) and both scalars.
  for (const auto strategy : {lb::core::MatchingStrategy::kGhoshMuthukrishnan,
                              lb::core::MatchingStrategy::kRandomMaximal}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    expect_masked_equals_oracle<std::int64_t>(
        [strategy] {
          return std::make_unique<lb::core::DiscreteDimensionExchange>(strategy);
        },
        token_spike(), /*rounds=*/40);
    expect_masked_equals_oracle<double>(
        [strategy] {
          return std::make_unique<lb::core::ContinuousDimensionExchange>(strategy);
        },
        real_spike(), /*rounds=*/40);
  }
}

TEST(DynamicMaskTest, RoundRobinDimensionExchangeSkipsDeadDimensionEdges) {
  // On a masked hypercube the round-robin colour keeps its alive edges:
  // each round balances exactly those pairs and draws no random number.
  constexpr std::size_t kDims = 4;
  const Graph base = lb::graph::make_hypercube(kDims);
  auto seq = lb::graph::make_churn_sequence(base, 0.6, 0.2, 7);
  lb::core::ContinuousDimensionExchange de(lb::core::MatchingStrategy::kHypercubeRoundRobin);
  lb::core::RunArena<double> arena;
  lb::util::Rng rng(3);
  std::vector<double> load = lb::workload::spike<double>(base.num_nodes(), 1600.0);
  for (std::size_t round = 1; round <= 12; ++round) {
    const lb::graph::TopologyFrame& frame = seq->frame_at(round);
    std::vector<double> expected = load;
    std::size_t pairs = 0;
    for (const lb::graph::Edge& e :
         seed::hypercube_dimension_matching(base, kDims, (round - 1) % kDims)) {
      if (!frame.alive(base.edge_index(e.u, e.v))) continue;
      const double half = std::fabs(expected[e.u] - expected[e.v]) / 2.0;
      const bool down = expected[e.u] > expected[e.v];
      expected[down ? e.u : e.v] -= half;
      expected[down ? e.v : e.u] += half;
      ++pairs;
    }
    lb::core::RoundContext<double> ctx(frame, rng, nullptr, arena);
    EXPECT_EQ(de.step(ctx, load).links, pairs) << "round " << round;
    EXPECT_EQ(load, expected) << "round " << round;
  }
  EXPECT_EQ(rng.next_u64(), lb::util::Rng(3).next_u64());
}

/// One masked frame every round: every `stride`-th base edge is dead.
class FixedMaskSequence final : public GraphSequence {
 public:
  FixedMaskSequence(const Graph& base, std::size_t stride) : mask_(base), frame_(mask_) {
    for (std::size_t k = 0; k < base.num_edges(); k += stride) mask_.set_alive(k, false);
    mask_.commit();
  }
  std::size_t num_nodes() const override { return mask_.base().num_nodes(); }
  const lb::graph::TopologyFrame& frame_at(std::size_t) override { return frame_; }
  void reset() override {}
  std::string name() const override { return "fixed-mask"; }
  const Graph& materialized() const { return frame_.view(); }

 private:
  lb::graph::EdgeMask mask_;
  lb::graph::TopologyFrame frame_;
};

TEST(DynamicMaskTest, OpsOnFixedMaskMatchesMaterializedGraph) {
  // OPS binds its schedule to the round's Graph once and runs its rounds
  // on the frame.  One reused scheme over two different fixed masks must
  // match fresh schemes on each mask's materialized graph: a binding to
  // a mask is dropped at the next run start.
  const Graph base = lb::graph::make_torus2d(6, 6);
  lb::core::OptimalPolynomialScheme reused;
  for (const std::size_t stride : {std::size_t{5}, std::size_t{3}}) {
    SCOPED_TRACE(stride);
    FixedMaskSequence masked(base, stride);
    const auto result = run_over(reused, masked, real_spike(), 30, nullptr);
    const Graph materialized = masked.materialized();
    auto oracle_seq = lb::graph::make_static_view(materialized);
    lb::core::OptimalPolynomialScheme fresh;
    const auto oracle = run_over(fresh, *oracle_seq, real_spike(), 30, nullptr);
    EXPECT_TRUE(results_bits_equal(result, oracle));
  }
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
