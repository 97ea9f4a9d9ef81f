// Kernel-equivalence tests for the edge-flow substrate
// (lb/core/flow_ledger.hpp): every balancer's production round must
// produce BIT-identical load vectors and StepStats to the seed's
// sequential round (tests/seed_oracle.hpp), discrete and continuous, on
// random/torus/hypercube graphs and dynamic sequences; the node-parallel
// FlowLedger gather must equal the seed's edge sweep at every thread-pool
// size.
#include "lb/core/flow_ledger.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/load.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::core::FlowLedger;
using lb::graph::Graph;

// Bitwise equality: for doubles, value equality would conflate 0.0/-0.0
// and hide representation drift; the determinism guarantee is stronger.
template <class T>
::testing::AssertionResult bits_equal(const std::vector<T>& a,
                                      const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
        return ::testing::AssertionFailure()
               << "first divergence at node " << i << ": " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<Graph> test_graphs() {
  lb::util::Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(lb::graph::make_erdos_renyi(150, 0.06, rng,
                                               /*require_connected=*/true));
  graphs.push_back(lb::graph::make_torus2d(12, 12));
  graphs.push_back(lb::graph::make_hypercube(7));
  return graphs;
}

template <class T>
std::vector<T> initial_load(const Graph& g, std::uint64_t seed) {
  lb::util::Rng rng(seed);
  return lb::workload::uniform_random<T>(
      g.num_nodes(), static_cast<T>(1000 * g.num_nodes()), rng);
}

// Step a production balancer and its seed oracle `rounds` times from the
// same loads (same RNG seed) and require bit-identical loads and
// StepStats after every round.
template <class T>
void expect_matches_seed(const Graph& g, lb::core::Balancer<T>& alg,
                         lb::core::Balancer<T>& oracle, int rounds) {
  std::vector<T> load = initial_load<T>(g, 99);
  std::vector<T> oracle_load = load;
  lb::util::Rng rng(5), oracle_rng(5);
  const T total = std::accumulate(load.begin(), load.end(), T{});
  for (int r = 0; r < rounds; ++r) {
    const auto stats = alg.step(g, load, rng);
    const auto oracle_stats = oracle.step(g, oracle_load, oracle_rng);
    ASSERT_TRUE(bits_equal(load, oracle_load)) << g.name() << " round " << r;
    EXPECT_EQ(stats.active_edges, oracle_stats.active_edges);
    EXPECT_EQ(stats.transferred, oracle_stats.transferred);
    EXPECT_EQ(stats.links, oracle_stats.links);
  }
  const T final_total = std::accumulate(load.begin(), load.end(), T{});
  if constexpr (std::is_integral_v<T>) {
    EXPECT_EQ(final_total, total);  // tokens conserve exactly
  } else {
    EXPECT_NEAR(static_cast<double>(final_total), static_cast<double>(total),
                1e-6 * static_cast<double>(total));
  }
}

TEST(FlowLedgerEquivalenceTest, DiffusionContinuous) {
  for (const Graph& g : test_graphs()) {
    lb::core::ContinuousDiffusion alg;
    seed::Diffusion<double> oracle;
    expect_matches_seed<double>(g, alg, oracle, 25);
  }
}

TEST(FlowLedgerEquivalenceTest, DiffusionDiscrete) {
  for (const Graph& g : test_graphs()) {
    lb::core::DiscreteDiffusion alg;
    seed::Diffusion<std::int64_t> oracle;
    expect_matches_seed<std::int64_t>(g, alg, oracle, 25);
  }
}

TEST(FlowLedgerEquivalenceTest, FosFlowFormDiscrete) {
  lb::core::DiffusionConfig cfg;
  cfg.rule = lb::core::DenominatorRule::kDegreePlusOne;
  for (const Graph& g : test_graphs()) {
    lb::core::DiscreteDiffusion alg(cfg);
    seed::Diffusion<std::int64_t> oracle(cfg);
    expect_matches_seed<std::int64_t>(g, alg, oracle, 25);
  }
}

TEST(FlowLedgerEquivalenceTest, FirstOrderScheme) {
  for (const Graph& g : test_graphs()) {
    lb::core::FirstOrderScheme alg;
    seed::SecondOrder oracle;  // β unset: FOS
    expect_matches_seed<double>(g, alg, oracle, 25);
  }
}

TEST(FlowLedgerEquivalenceTest, SecondOrderScheme) {
  for (const Graph& g : test_graphs()) {
    lb::core::SecondOrderScheme alg(/*beta=*/1.5);
    seed::SecondOrder oracle(/*beta=*/1.5);
    expect_matches_seed<double>(g, alg, oracle, 25);
  }
}

TEST(FlowLedgerEquivalenceTest, DimensionExchangeContinuous) {
  constexpr auto kStrategy = lb::core::MatchingStrategy::kGhoshMuthukrishnan;
  for (const Graph& g : test_graphs()) {
    lb::core::ContinuousDimensionExchange alg(kStrategy);
    seed::DimensionExchange<double> oracle(kStrategy);
    expect_matches_seed<double>(g, alg, oracle, 25);
  }
}

TEST(FlowLedgerEquivalenceTest, DimensionExchangeDiscrete) {
  constexpr auto kStrategy = lb::core::MatchingStrategy::kRandomMaximal;
  for (const Graph& g : test_graphs()) {
    lb::core::DiscreteDimensionExchange alg(kStrategy);
    seed::DimensionExchange<std::int64_t> oracle(kStrategy);
    expect_matches_seed<std::int64_t>(g, alg, oracle, 25);
  }
}

// The core determinism guarantee: ledger apply is bit-identical to the
// sequential edge sweep at pool sizes 1, 2, and hardware_concurrency.
template <class T>
void expect_apply_identical_across_pools(const Graph& g) {
  // Flows from a real diffusion round so magnitudes/signs are realistic.
  std::vector<T> snapshot = initial_load<T>(g, 31);
  std::vector<double> flows;
  seed::diffusion_flows(g, snapshot, {}, flows);

  std::vector<T> oracle = snapshot;
  seed::apply_edge_sweep(g, flows, oracle);

  FlowLedger ledger;
  ledger.rebuild(g);
  {
    std::vector<T> seq = snapshot;
    ledger.apply(g, flows, seq, nullptr);
    ASSERT_TRUE(bits_equal(seq, oracle)) << g.name() << " sequential ledger";
  }
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    lb::util::ThreadPool pool(threads);
    std::vector<T> out = snapshot;
    ledger.apply(g, flows, out, &pool);
    ASSERT_TRUE(bits_equal(out, oracle))
        << g.name() << " pool size " << threads;
  }
}

TEST(FlowLedgerPoolMatrixTest, ContinuousBitIdenticalAtEveryPoolSize) {
  for (const Graph& g : test_graphs()) {
    expect_apply_identical_across_pools<double>(g);
  }
}

TEST(FlowLedgerPoolMatrixTest, DiscreteBitIdenticalAtEveryPoolSize) {
  for (const Graph& g : test_graphs()) {
    expect_apply_identical_across_pools<std::int64_t>(g);
  }
}

TEST(FlowLedgerEpochTest, RevisionsAreUniquePerBuild) {
  const Graph a = lb::graph::make_torus2d(4, 4);
  const Graph b = lb::graph::make_torus2d(4, 4);
  EXPECT_NE(a.revision(), 0u);
  EXPECT_NE(a.revision(), b.revision());
  const Graph copy = a;  // copies share the topology, hence the epoch
  EXPECT_EQ(copy.revision(), a.revision());
}

TEST(FlowLedgerEpochTest, ValidityTracksRevision) {
  const Graph a = lb::graph::make_hypercube(4);
  const Graph b = lb::graph::make_hypercube(4);
  FlowLedger ledger;
  EXPECT_FALSE(ledger.valid_for(a));
  ledger.rebuild(a);
  EXPECT_TRUE(ledger.valid_for(a));
  EXPECT_FALSE(ledger.valid_for(b));  // identical shape, different epoch
  ledger.invalidate();
  EXPECT_FALSE(ledger.valid_for(a));
  ledger.ensure(a);
  EXPECT_TRUE(ledger.valid_for(a));
}

TEST(FlowLedgerEpochTest, SubgraphRebuildChangesRevision) {
  const Graph base = lb::graph::make_torus2d(6, 6);
  std::vector<lb::graph::Edge> keep(base.edges().begin(),
                                    base.edges().end() - 4);
  const Graph sub = lb::graph::subgraph_with_edges(base, keep, "sub");
  EXPECT_NE(sub.revision(), base.revision());
}

// Dynamic networks: the topology changes every round, so the round's
// per-epoch indexes must re-key per epoch.  The production round must
// stay bit-identical to the seed's sweep on the materialized view through
// a full engine run over a changing topology.
TEST(FlowLedgerDynamicTest, LedgerTracksBernoulliSequence) {
  const Graph base = lb::graph::make_torus2d(8, 8);
  auto run_with = [&](lb::core::Balancer<double>& alg) {
    auto seq = lb::graph::make_bernoulli_sequence(base, 0.7, /*seed=*/11);
    std::vector<double> load = initial_load<double>(base, 3);
    lb::core::EngineConfig ecfg;
    ecfg.max_rounds = 40;
    ecfg.target_potential = 0.0;
    ecfg.stall_rounds = 0;
    ecfg.record_trace = false;
    lb::core::run(alg, *seq, load, ecfg);
    return load;
  };
  lb::core::ContinuousDiffusion alg;
  seed::Diffusion<double> oracle;
  EXPECT_TRUE(bits_equal(run_with(alg), run_with(oracle)));
}

TEST(FlowLedgerDynamicTest, LedgerTracksMarkovSequence) {
  const Graph base = lb::graph::make_hypercube(6);
  auto run_with = [&](lb::core::Balancer<std::int64_t>& alg) {
    auto seq =
        lb::graph::make_markov_failure_sequence(base, 0.2, 0.5, /*seed=*/23);
    std::vector<std::int64_t> load = initial_load<std::int64_t>(base, 17);
    lb::core::EngineConfig ecfg;
    ecfg.max_rounds = 40;
    ecfg.target_potential = 0.0;
    ecfg.stall_rounds = 0;
    ecfg.record_trace = false;
    lb::core::run(alg, *seq, load, ecfg);
    return load;
  };
  lb::core::DiscreteDiffusion alg;
  seed::Diffusion<std::int64_t> oracle;
  EXPECT_TRUE(bits_equal(run_with(alg), run_with(oracle)));
}

TEST(FlowLedgerStructureTest, CsrRowsCoverEveryEdgeTwice) {
  const Graph g = lb::graph::make_torus2d(5, 5);
  FlowLedger ledger;
  ledger.rebuild(g);
  EXPECT_EQ(ledger.num_nodes(), g.num_nodes());
  EXPECT_EQ(ledger.num_edges(), g.num_edges());
  // Moving exactly one unit along every edge u->v changes each node's load
  // by (in-degree − out-degree) under the canonical orientation.
  std::vector<double> flows(g.num_edges(), 1.0);
  std::vector<double> load(g.num_nodes(), 0.0);
  ledger.apply(g, flows, load, nullptr);
  std::vector<double> expected(g.num_nodes(), 0.0);
  for (const lb::graph::Edge& e : g.edges()) {
    expected[e.u] -= 1.0;
    expected[e.v] += 1.0;
  }
  EXPECT_TRUE(bits_equal(load, expected));
}

TEST(FlowLedgerStructureTest, EdgeIndexFindsEveryEdge) {
  lb::util::Rng rng(13);
  const Graph g = lb::graph::make_erdos_renyi(60, 0.1, rng);
  for (std::size_t k = 0; k < g.num_edges(); ++k) {
    const lb::graph::Edge& e = g.edges()[k];
    EXPECT_EQ(g.edge_index(e.u, e.v), k);
    EXPECT_EQ(g.edge_index(e.v, e.u), k);  // order-insensitive
  }
  EXPECT_EQ(g.edge_index(0, 0), g.num_edges());  // absent
}

}  // namespace
