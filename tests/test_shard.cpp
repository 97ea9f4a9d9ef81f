// Tests for the sharded ownership/communication layer (lb/shard/):
// partitioner properties, halo-plan consistency, and the headline
// contract — RunResults bit-identical to the shared-memory engine at
// every (K, pool, balancer, sequence) combination, up to K = n, where
// every node is its own domain and the run is the paper's per-node
// message-passing protocol.
#include "lb/shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lb/check/invariants.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/load.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/sos.hpp"
#include "lb/exp/campaign.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/shard/halo.hpp"
#include "lb/shard/ownership.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::core::EngineConfig;
using lb::core::RunResult;
using lb::graph::Graph;
using lb::shard::OwnershipMap;
using lb::shard::PartitionPolicy;
using lb::shard::ShardConfig;

// ---------------------------------------------------------------- ownership

TEST(OwnershipTest, DeterministicAcrossBuilds) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  for (const PartitionPolicy policy :
       {PartitionPolicy::kContiguous, PartitionPolicy::kStrided,
        PartitionPolicy::kGreedyEdgeCut}) {
    const OwnershipMap a = OwnershipMap::build(g, 4, policy);
    const OwnershipMap b = OwnershipMap::build(g, 4, policy);
    EXPECT_EQ(a.owners(), b.owners()) << lb::shard::to_string(policy);
    EXPECT_EQ(a.cut_edges(), b.cut_edges());
    EXPECT_TRUE(a.valid_for(g, 4, policy));
    EXPECT_FALSE(a.valid_for(g, 8, policy));
  }
}

TEST(OwnershipTest, EveryNodeOwnedExactlyOnce) {
  // Property test over random graphs: owners partition the node set.
  lb::util::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 40 + 17 * static_cast<std::size_t>(trial);
    const Graph g = lb::graph::make_erdos_renyi(n, 0.08, rng);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      for (const PartitionPolicy policy :
           {PartitionPolicy::kContiguous, PartitionPolicy::kStrided,
            PartitionPolicy::kGreedyEdgeCut}) {
        const OwnershipMap map = OwnershipMap::build(g, k, policy);
        std::size_t covered = 0;
        for (std::size_t d = 0; d < k; ++d) {
          EXPECT_FALSE(map.nodes(d).empty());
          lb::graph::NodeId prev = 0;
          for (const lb::graph::NodeId u : map.nodes(d)) {
            EXPECT_EQ(map.owner(u), d);  // membership agrees with owner()
            if (covered > 0 && !map.nodes(d).empty()) {
              EXPECT_TRUE(map.nodes(d).front() == u || prev < u);  // ascending
            }
            prev = u;
            ++covered;
          }
        }
        EXPECT_EQ(covered, n);  // partition: n memberships over n nodes
      }
    }
  }
}

TEST(OwnershipTest, GreedyCutNeverWorseThanStridedOrContiguous) {
  const Graph torus = lb::graph::make_torus2d(16, 16);
  const Graph cube = lb::graph::make_hypercube(8);
  for (const Graph* g : {&torus, &cube}) {
    for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const auto contiguous =
          OwnershipMap::build(*g, k, PartitionPolicy::kContiguous);
      const auto strided = OwnershipMap::build(*g, k, PartitionPolicy::kStrided);
      const auto greedy =
          OwnershipMap::build(*g, k, PartitionPolicy::kGreedyEdgeCut);
      EXPECT_LE(greedy.cut_edges(), contiguous.cut_edges()) << g->name();
      EXPECT_LE(greedy.cut_edges(), strided.cut_edges()) << g->name();
    }
  }
}

/// The greedy refinement as a full scan: every pass visits every node.
/// OwnershipMap::build visits only nodes with a neighbour in another
/// domain (no other node can gain) and tracks the cut through each move's
/// gain; both must agree with this reference.
std::vector<std::uint32_t> full_scan_greedy(const Graph& g, std::size_t domains) {
  const std::size_t n = g.num_nodes();
  const std::size_t cap = (n + domains - 1) / domains;
  std::vector<std::uint32_t> owner =
      OwnershipMap::build(g, domains, PartitionPolicy::kContiguous).owners();
  std::vector<std::size_t> size(domains, 0);
  for (const std::uint32_t d : owner) ++size[d];
  std::vector<std::size_t> tally(domains);
  for (int pass = 0; pass < 8; ++pass) {
    bool moved = false;
    for (lb::graph::NodeId u = 0; u < n; ++u) {
      const std::uint32_t from = owner[u];
      if (size[from] <= 1) continue;
      std::fill(tally.begin(), tally.end(), 0);
      for (const lb::graph::NodeId v : g.neighbors(u)) ++tally[owner[v]];
      std::uint32_t best = from;
      for (std::uint32_t d = 0; d < domains; ++d) {
        if (d != from && size[d] < cap && tally[d] > tally[best]) best = d;
      }
      if (best == from) continue;
      owner[u] = best;
      --size[from];
      ++size[best];
      moved = true;
    }
    if (!moved) break;
  }
  return owner;
}

std::size_t cut_of(const Graph& g, const std::vector<std::uint32_t>& owner) {
  std::size_t cut = 0;
  for (const lb::graph::Edge& e : g.edges()) cut += owner[e.u] != owner[e.v];
  return cut;
}

TEST(OwnershipTest, GreedyRefinementMatchesFullScan) {
  lb::util::Rng rng(67);
  std::vector<Graph> graphs;
  graphs.push_back(lb::graph::make_random_regular(2049, 4, rng));
  graphs.push_back(lb::graph::make_random_regular(500, 3, rng));
  graphs.push_back(lb::graph::make_erdos_renyi(300, 0.03, rng));
  graphs.push_back(lb::graph::make_torus2d(15, 21));
  graphs.push_back(lb::graph::make_hypercube(7));
  std::size_t moved = 0;
  for (const Graph& g : graphs) {
    for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                                std::size_t{7}, std::size_t{16}, g.num_nodes()}) {
      const OwnershipMap map = OwnershipMap::build(g, k, PartitionPolicy::kGreedyEdgeCut);
      const std::vector<std::uint32_t> expected = full_scan_greedy(g, k);
      EXPECT_EQ(map.owners(), expected) << g.name() << " K = " << k;
      EXPECT_EQ(map.cut_edges(), cut_of(g, map.owners())) << g.name() << " K = " << k;
      moved += map.owners() !=
               OwnershipMap::build(g, k, PartitionPolicy::kContiguous).owners();
    }
  }
  EXPECT_GT(moved, 10u) << "the refinement should move nodes in most cases";
}

// --------------------------------------------------------------- halo plans

TEST(HaloTest, LinkListsMirrorBetweenPeers) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  const OwnershipMap map = OwnershipMap::build(g, 4, PartitionPolicy::kGreedyEdgeCut);
  const lb::shard::HaloExchange halo = lb::shard::HaloExchange::build(g, map);
  ASSERT_EQ(halo.domains(), 4u);
  EXPECT_EQ(halo.cut_edges(), map.cut_edges());

  std::size_t owned_total = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    owned_total += halo.plan(d).owned_edges.size();
    for (const lb::shard::HaloLink& l : halo.plan(d).links) {
      // Find the reverse link and check every list mirrors exactly —
      // same node ids, same order (the FIFO-correctness invariant).
      const lb::shard::DomainPlan& peer = halo.plan(l.peer);
      const lb::shard::HaloLink* back = nullptr;
      for (const lb::shard::HaloLink& pl : peer.links) {
        if (pl.peer == d) back = &pl;
      }
      ASSERT_NE(back, nullptr);
      EXPECT_EQ(l.send_nodes, back->recv_nodes);
      EXPECT_EQ(l.recv_nodes, back->send_nodes);
      EXPECT_EQ(l.send_flow_edges, back->recv_flow_edges);
      EXPECT_EQ(l.recv_flow_edges, back->send_flow_edges);
    }
  }
  EXPECT_EQ(owned_total, g.num_edges());  // every edge owned exactly once
}

// ------------------------------------------------------- engine bit-identity

/// Compare two RunResults field by field, bitwise on every deterministic
/// quantity (wall-clock fields excluded by design).
void expect_identical(const RunResult& oracle, const RunResult& sharded,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(oracle.reached_target, sharded.reached_target);
  EXPECT_EQ(oracle.stalled, sharded.stalled);
  EXPECT_EQ(oracle.rounds, sharded.rounds);
  EXPECT_EQ(oracle.initial_potential, sharded.initial_potential);
  EXPECT_EQ(oracle.final_potential, sharded.final_potential);
  EXPECT_EQ(oracle.final_discrepancy, sharded.final_discrepancy);
  ASSERT_EQ(oracle.trace.size(), sharded.trace.size());
  for (std::size_t i = 0; i < oracle.trace.size(); ++i) {
    EXPECT_EQ(oracle.trace[i].potential, sharded.trace[i].potential) << i;
    EXPECT_EQ(oracle.trace[i].discrepancy, sharded.trace[i].discrepancy) << i;
    EXPECT_EQ(oracle.trace[i].transferred, sharded.trace[i].transferred) << i;
    EXPECT_EQ(oracle.trace[i].active_edges, sharded.trace[i].active_edges) << i;
  }
}

template <class T>
struct Case {
  std::string name;
  std::function<std::unique_ptr<lb::core::Balancer<T>>()> make;
};

/// Every case at pools {1, 2, hw} against core::run, bit for bit, at
/// each K in `ks` ({1, 2, 4, 8, n} when empty) under `policy`, with the
/// invariant layer on (so every sharded round also checks its cut flows).
template <class T>
void run_matrix(const std::vector<Case<T>>& cases,
                const std::function<std::unique_ptr<lb::graph::GraphSequence>()>& seq,
                const std::vector<T>& load0, const std::string& seq_label,
                PartitionPolicy policy = PartitionPolicy::kGreedyEdgeCut,
                std::vector<std::size_t> ks = {}, std::size_t rounds = 60) {
  if (ks.empty()) ks = {1, 2, 4, 8, load0.size()};
  EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  cfg.check_invariants = true;
  for (const Case<T>& c : cases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      lb::util::ThreadPool pool(threads);
      cfg.pool = &pool;
      auto oracle_alg = c.make();
      auto oracle_seq = seq();
      std::vector<T> oracle_load = load0;
      const RunResult oracle =
          lb::core::run(*oracle_alg, *oracle_seq, oracle_load, cfg);
      for (const std::size_t k : ks) {
        ShardConfig shard;
        shard.domains = k;
        shard.policy = policy;
        auto alg = c.make();
        auto s = seq();
        std::vector<T> load = load0;
        const RunResult run = lb::shard::run(*alg, *s, load, cfg, shard);
        const std::string label = seq_label + "/" + c.name + "/pool" +
                                  std::to_string(pool.size()) + "/k" +
                                  std::to_string(k);
        expect_identical(oracle, run, label);
        SCOPED_TRACE(label);
        ASSERT_EQ(load.size(), oracle_load.size());
        for (std::size_t i = 0; i < load.size(); ++i) {
          EXPECT_EQ(load[i], oracle_load[i]) << "node " << i;
        }
        EXPECT_EQ(run.domains, k);
        EXPECT_EQ(run.sharded_rounds, run.rounds);
      }
    }
  }
}

std::vector<Case<double>> continuous_cases() {
  using lb::core::MatchingStrategy;
  return {
      {"diffusion-cont", [] { return lb::core::make_diffusion_continuous(); }},
      {"fos", [] { return lb::core::make_fos_continuous(); }},
      {"sos", [] { return lb::core::make_sos(); }},
      {"dimexch-cont",
       [] {
         return lb::core::make_dimension_exchange_continuous(
             MatchingStrategy::kGhoshMuthukrishnan);
       }},
  };
}

std::vector<Case<std::int64_t>> discrete_cases() {
  using lb::core::MatchingStrategy;
  return {
      {"diffusion-disc", [] { return lb::core::make_diffusion_discrete(); }},
      {"dimexch-disc",
       [] {
         return lb::core::make_dimension_exchange_discrete(
             MatchingStrategy::kRandomMaximal);
       }},
  };
}

TEST(ShardEngineTest, BitIdenticalStaticContinuous) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  lb::util::Rng wrng(11);
  const auto load0 = lb::workload::bimodal<double>(64, 6400.0, wrng);
  run_matrix<double>(
      continuous_cases(),
      [&] { return lb::graph::make_static_sequence(g); }, load0, "static");
}

TEST(ShardEngineTest, BitIdenticalStaticDiscrete) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  lb::util::Rng wrng(13);
  const auto load0 = lb::workload::uniform_random<std::int64_t>(64, 64000, wrng);
  run_matrix<std::int64_t>(
      discrete_cases(),
      [&] { return lb::graph::make_static_sequence(g); }, load0, "static");
}

TEST(ShardEngineTest, BitIdenticalMaskedDynamicContinuous) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  lb::util::Rng wrng(17);
  const auto load0 = lb::workload::two_spikes<double>(64, 6400.0);
  run_matrix<double>(
      continuous_cases(),
      [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 99); }, load0,
      "bernoulli");
}

TEST(ShardEngineTest, BitIdenticalMaskedDynamicDiscrete) {
  const Graph g = lb::graph::make_hypercube(6);
  lb::util::Rng wrng(19);
  const auto load0 = lb::workload::spike<std::int64_t>(64, 64000);
  run_matrix<std::int64_t>(
      discrete_cases(),
      [&] { return lb::graph::make_bernoulli_sequence(g, 0.85, 123); }, load0,
      "bernoulli");
}

// ------------------------------------------------------- the sweep's order
//
// Past one summary chunk (n > 1024), on partitions whose domains are not
// contiguous, a domain's incoming cut edges interleave with its owned
// edges and every summary chunk spans several domains: the cases in which
// the order of a domain's sweep, and of the barrier fold, shows in the
// bits of Real loads and StepStats.

/// A 48 × 48 torus: 2304 nodes, three summary chunks.  Under kStrided
/// every row edge is cut and every domain holds every fourth node.
Graph sweep_torus() { return lb::graph::make_torus2d(48, 48); }

/// A random 4-regular graph whose contiguous seed the greedy refinement
/// changes at every K in {2, 4, 8} (n mod K ≠ 0 leaves room to move).
Graph sweep_regular() {
  lb::util::Rng rng(29);
  return lb::graph::make_random_regular(2049, 4, rng);
}

std::vector<double> sweep_load(std::size_t n) {
  lb::util::Rng rng(31);
  return lb::workload::bimodal<double>(n, 1000.0 * static_cast<double>(n), rng);
}

const std::vector<std::size_t> kSweepDomains = {2, 4, 8};

/// continuous_cases() with a fixed SOS β: an auto-β would solve the
/// graph's spectrum (and a masked round-1 view may be disconnected).
std::vector<Case<double>> sweep_cases() {
  std::vector<Case<double>> cases = continuous_cases();
  for (Case<double>& c : cases) {
    if (c.name == "sos") c.make = [] { return lb::core::make_sos(1.5); };
  }
  return cases;
}

TEST(ShardEngineTest, StridedSweepMatchesCore) {
  const Graph g = sweep_torus();
  const auto load0 = sweep_load(g.num_nodes());
  run_matrix<double>(
      sweep_cases(), [&] { return lb::graph::make_static_sequence(g); }, load0,
      "strided/static", PartitionPolicy::kStrided, kSweepDomains, 30);
  run_matrix<double>(
      sweep_cases(), [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 41); },
      load0, "strided/bernoulli", PartitionPolicy::kStrided, kSweepDomains, 30);
}

TEST(ShardEngineTest, GreedySweepOnRefinedPartitionMatchesCore) {
  const Graph g = sweep_regular();
  for (const std::size_t k : kSweepDomains) {
    const OwnershipMap greedy = OwnershipMap::build(g, k, PartitionPolicy::kGreedyEdgeCut);
    const OwnershipMap seed = OwnershipMap::build(g, k, PartitionPolicy::kContiguous);
    EXPECT_NE(greedy.owners(), seed.owners()) << "refinement moved no node at K = " << k;
    EXPECT_LT(greedy.cut_edges(), seed.cut_edges());
  }
  const auto load0 = sweep_load(g.num_nodes());
  run_matrix<double>(
      sweep_cases(), [&] { return lb::graph::make_static_sequence(g); }, load0,
      "greedy/static", PartitionPolicy::kGreedyEdgeCut, kSweepDomains, 30);
  run_matrix<double>(
      sweep_cases(), [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 43); },
      load0, "greedy/bernoulli", PartitionPolicy::kGreedyEdgeCut, kSweepDomains, 30);
}

TEST(ShardEngineTest, SweepTokensMatchCore) {
  for (const Graph& g : {sweep_torus(), sweep_regular()}) {
    lb::util::Rng rng(37);
    const auto load0 = lb::workload::uniform_random<std::int64_t>(
        g.num_nodes(), 1000 * static_cast<std::int64_t>(g.num_nodes()), rng);
    run_matrix<std::int64_t>(
        discrete_cases(), [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 47); },
        load0, g.name(), PartitionPolicy::kStrided, kSweepDomains, 30);
  }
}

/// core::run of `make` against the seed's sequential round (`seed`) at
/// pools {1, 2, hw} and block widths {0, 1024}: every round's
/// StepStats::transferred bits, its active edges and every final load.
/// Both executors run one kernel, so core-vs-shard matrices cannot catch
/// a count both get wrong; these pins can.
template <class T>
void expect_core_matches_seed(const Case<T>& c, const Case<T>& seed,
                              const std::function<std::unique_ptr<lb::graph::GraphSequence>()>& seq,
                              const std::vector<T>& load0, std::size_t rounds,
                              const std::string& label) {
  EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  auto seed_alg = seed.make();
  auto seed_seq = seq();
  std::vector<T> seed_load = load0;
  const RunResult oracle = lb::core::run(*seed_alg, *seed_seq, seed_load, cfg);
  for (const long long width : {0LL, 1024LL}) {
    lb::core::set_blocked_width_override(width);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      lb::util::ThreadPool pool(threads);
      cfg.pool = &pool;
      auto alg = c.make();
      auto s = seq();
      std::vector<T> load = load0;
      const RunResult run = lb::core::run(*alg, *s, load, cfg);
      SCOPED_TRACE(label + "/" + c.name + "/w" + std::to_string(width) + "/pool" +
                   std::to_string(pool.size()));
      ASSERT_EQ(run.trace.size(), oracle.trace.size());
      for (std::size_t i = 0; i < run.trace.size(); ++i) {
        const double got = run.trace[i].transferred;
        const double want = oracle.trace[i].transferred;
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "round " << i + 1;
        EXPECT_EQ(run.trace[i].active_edges, oracle.trace[i].active_edges) << i;
      }
      EXPECT_EQ(load, seed_load);
    }
    cfg.pool = nullptr;
  }
  lb::core::set_blocked_width_override(-1);
}

/// FOS's flow as a per-edge lambda: not a library rule type, so a
/// FlowProgram stores it type-erased (FlowRule::EdgeFn).
auto lambda_fos_rule(const lb::core::RoundContext<double>& ctx) {
  const double alpha = 1.0 / (static_cast<double>(ctx.frame().max_degree()) + 1.0);
  return [alpha](std::size_t, const lb::graph::Edge&, double lu, double lv) {
    return alpha * (lu - lv);
  };
}

/// A caller-written all-edges balancer: it only plans, so both executors
/// run its rule as the FlowRule's type-erased EdgeFn.
class LambdaFos final : public lb::core::Balancer<double> {
 public:
  std::string name() const override { return "lambda-fos"; }
  bool plan_round(lb::core::RoundContext<double>& ctx,
                  lb::core::FlowProgram<double>& program) override {
    program.links = ctx.frame().num_edges();
    program.flow = lambda_fos_rule(ctx);
    return true;
  }
};

TEST(ShardEngineTest, CallerWrittenRuleMatchesSeedFos) {
  // LambdaFos only plans, so core::run steps its EdgeFn through the
  // shared-memory kernel; the seed's FOS is the oracle.
  const Graph g = sweep_torus();
  const auto load0 = sweep_load(g.num_nodes());
  const Case<double> lambda = {"lambda-fos", [] { return std::make_unique<LambdaFos>(); }};
  const Case<double> seed = {"seed-fos", [] { return std::make_unique<seed::SecondOrder>(); }};
  expect_core_matches_seed<double>(
      lambda, seed, [&] { return lb::graph::make_static_sequence(g); }, load0, 20, "static");
  expect_core_matches_seed<double>(
      lambda, seed, [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 61); }, load0, 20,
      "bernoulli");
}

TEST(ShardEngineTest, CallerWrittenRuleMatchesCore) {
  const Graph g = sweep_torus();
  const auto load0 = sweep_load(g.num_nodes());
  const std::vector<Case<double>> cases = {
      {"lambda-fos", [] { return std::make_unique<LambdaFos>(); }}};
  run_matrix<double>(
      cases, [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 61); }, load0,
      "caller-rule", PartitionPolicy::kStrided, kSweepDomains, 20);
}

/// LambdaFos whose rule counts its calls (from any worker).  As each
/// round is planned it records the calls so far and the round's alive
/// edges, and among them the cut edges between `width`-node blocks.
class CountingFos final : public lb::core::Balancer<double> {
 public:
  struct Round {
    std::size_t calls_before = 0;
    std::size_t alive = 0;
    std::size_t cut = 0;
  };

  explicit CountingFos(std::size_t width) : width_(width) {}
  std::string name() const override { return "counting-fos"; }
  bool plan_round(lb::core::RoundContext<double>& ctx,
                  lb::core::FlowProgram<double>& program) override {
    const lb::graph::TopologyFrame& frame = ctx.frame();
    const auto& edges = frame.base().edges();
    Round r{calls_.load()};
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (!frame.alive(k)) continue;
      ++r.alive;
      r.cut += edges[k].u / width_ != edges[k].v / width_ ? 1 : 0;
    }
    rounds_.push_back(r);
    program.links = frame.num_edges();
    program.flow = [rule = lambda_fos_rule(ctx), calls = &calls_](
                       std::size_t k, const lb::graph::Edge& e, double lu, double lv) {
      calls->fetch_add(1, std::memory_order_relaxed);
      return rule(k, e, lu, lv);
    };
    return true;
  }

  const std::vector<Round>& rounds() const { return rounds_; }
  /// Rule calls from round i's plan to the next round's (for the last
  /// round, to now).
  std::size_t calls_in(std::size_t i) const {
    const std::size_t end = i + 1 < rounds_.size() ? rounds_[i + 1].calls_before : calls_.load();
    return end - rounds_[i].calls_before;
  }

 private:
  std::size_t width_;
  std::atomic<std::size_t> calls_{0};
  std::vector<Round> rounds_;
};

TEST(ShardEngineTest, EachRoundEvaluatesEveryFlowOncePerSide) {
  // The shared-memory round at width 1024 evaluates each alive edge once
  // in the block that owns it and each cut edge once more in the block of
  // its v: m + c calls, where counting a cut edge's flow into its chunk
  // apart from applying it would make m + 2c.  The sharded round at
  // K = 4 evaluates each alive edge once, in its owner (the antisymmetry
  // probe adds 2m when the invariant layer is on).
  lb::util::Rng rng(89);
  const Graph torus = lb::graph::make_torus2d(64, 64);
  const Graph twin = lb::graph::subgraph_with_edges(torus, torus.edges(), "twin");
  const Graph regular = lb::graph::make_random_regular(4096, 4, rng);
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<lb::graph::GraphSequence>()>>>
      sequences = {
          {"regular", [&] { return lb::graph::make_static_sequence(regular); }},
          {"masked-twin", [&] { return lb::graph::make_bernoulli_sequence(twin, 0.8, 97); }},
      };
  const std::size_t width = 1024;
  const bool checking = lb::check::env_enabled();
  EngineConfig cfg;
  cfg.max_rounds = 6;
  cfg.target_potential = 0.0;
  for (const auto& [label, make_seq] : sequences) {
    const auto load0 = sweep_load(4096);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      lb::util::ThreadPool pool(threads);
      cfg.pool = &pool;
      SCOPED_TRACE(label + "/pool" + std::to_string(pool.size()));
      lb::core::set_blocked_width_override(static_cast<long long>(width));
      CountingFos shared(width);
      auto seq = make_seq();
      std::vector<double> load = load0;
      lb::core::run(shared, *seq, load, cfg);
      lb::core::set_blocked_width_override(-1);
      ASSERT_EQ(shared.rounds().size(), cfg.max_rounds);
      for (std::size_t i = 0; i < shared.rounds().size(); ++i) {
        const CountingFos::Round& r = shared.rounds()[i];
        EXPECT_GT(r.cut, 0u);
        EXPECT_EQ(shared.calls_in(i), r.alive + r.cut) << "shared-memory round " << i + 1;
      }

      ShardConfig shard;
      shard.domains = 4;
      shard.policy = PartitionPolicy::kContiguous;
      CountingFos sharded(width);
      seq = make_seq();
      load = load0;
      lb::shard::run(sharded, *seq, load, cfg, shard);
      ASSERT_EQ(sharded.rounds().size(), cfg.max_rounds);
      for (std::size_t i = 0; i < sharded.rounds().size(); ++i) {
        const CountingFos::Round& r = sharded.rounds()[i];
        EXPECT_EQ(sharded.calls_in(i), (checking ? 3 : 1) * r.alive) << "shard round " << i + 1;
      }
    }
  }
}

TEST(ShardEngineTest, PerNodeSweepMatchesCoreForEveryRule) {
  // K = n: every edge is a cut entry and every domain one node.
  lb::util::Rng rng(53);
  for (const Graph& g :
       {lb::graph::make_torus2d(6, 6), lb::graph::make_named("regular", 40, rng)}) {
    const auto load0 = sweep_load(g.num_nodes());
    run_matrix<double>(
        sweep_cases(), [&] { return lb::graph::make_static_sequence(g); }, load0,
        g.name() + "/static", PartitionPolicy::kGreedyEdgeCut, {g.num_nodes()}, 20);
    run_matrix<double>(
        sweep_cases(), [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 59); },
        load0, g.name() + "/bernoulli", PartitionPolicy::kGreedyEdgeCut, {g.num_nodes()}, 20);
  }
}

// ------------------------------------------------- the sweep's chunk fold
//
// A domain's sweep counts and finishes the summary chunks it owns whole;
// the barrier pass finishes the chunks that span domains.  Each matrix
// runs Real (with SOS's post) and Tokens, static and masked, at pools
// {1, 2, hw}.

/// A 64 × 64 torus: 4096 nodes, four summary chunks.
Graph chunk_torus() { return lb::graph::make_torus2d(64, 64); }

std::vector<std::int64_t> chunk_tokens(std::size_t n) {
  lb::util::Rng rng(67);
  return lb::workload::uniform_random<std::int64_t>(n, 1000 * static_cast<std::int64_t>(n),
                                                    rng);
}

using SequenceFactory = std::function<std::unique_ptr<lb::graph::GraphSequence>()>;

/// Static, churn and Bernoulli sequences over `g`.
std::vector<std::pair<std::string, SequenceFactory>> chunk_sequences(const Graph& g) {
  return {
      {"static", [&g] { return lb::graph::make_static_sequence(g); }},
      {"churn", [&g] { return lb::graph::make_churn_sequence(g, 0.9, 0.05, 71); }},
      {"bernoulli", [&g] { return lb::graph::make_bernoulli_sequence(g, 0.8, 73); }},
  };
}

/// Both scalars over every sequence of `g`, at each K in `ks`.
void run_chunk_matrix(const Graph& g, const std::string& label, PartitionPolicy policy,
                      const std::vector<std::size_t>& ks, std::size_t rounds = 20) {
  for (const auto& [name, seq] : chunk_sequences(g)) {
    run_matrix<double>(sweep_cases(), seq, sweep_load(g.num_nodes()), label + "/" + name,
                       policy, ks, rounds);
    run_matrix<std::int64_t>(discrete_cases(), seq, chunk_tokens(g.num_nodes()),
                             label + "/" + name, policy, ks, rounds);
  }
}

/// Whether domain owner(lo) owns every node of each summary chunk.
std::vector<bool> whole_chunks(const OwnershipMap& map, std::size_t n) {
  std::vector<bool> whole;
  for (std::size_t lo = 0; lo < n; lo += lb::core::kSummaryChunkWidth) {
    const std::size_t hi = std::min(n, lo + lb::core::kSummaryChunkWidth);
    bool same = true;
    for (std::size_t u = lo; u < hi; ++u) {
      same = same && map.owner(static_cast<lb::graph::NodeId>(u)) ==
                         map.owner(static_cast<lb::graph::NodeId>(lo));
    }
    whole.push_back(same);
  }
  return whole;
}

TEST(ShardEngineTest, ChunkLocalSweepMatchesCore) {
  // Contiguous K ∈ {1, 2, 4} on 4096 nodes: every chunk lies in one
  // domain, so the sweeps finish them all and no barrier pass runs.
  const Graph g = chunk_torus();
  for (const std::size_t k : {1, 2, 4}) {
    const auto whole =
        whole_chunks(OwnershipMap::build(g, k, PartitionPolicy::kContiguous), g.num_nodes());
    EXPECT_EQ(std::count(whole.begin(), whole.end(), true), 4) << "K = " << k;
  }
  run_chunk_matrix(g, "local", PartitionPolicy::kContiguous, {1, 2, 4});
}

TEST(ShardEngineTest, MixedChunkSweepMatchesCore) {
  // Contiguous K = 3: domains of 1366, 1365 and 1365 nodes, so chunks 0
  // and 3 lie in one domain each and chunks 1 and 2 span two.
  const Graph g = chunk_torus();
  const auto whole =
      whole_chunks(OwnershipMap::build(g, 3, PartitionPolicy::kContiguous), g.num_nodes());
  EXPECT_EQ(whole, (std::vector<bool>{true, false, false, true}));
  run_chunk_matrix(g, "mixed", PartitionPolicy::kContiguous, {3});
}

TEST(ShardEngineTest, SpanningChunkSweepMatchesCore) {
  // Strided domains span every chunk, the refined greedy partitions of
  // the 2049-node regular graph split some, and at K = n every chunk of a
  // graph with more than one node spans.
  const Graph torus = sweep_torus();
  run_chunk_matrix(torus, "strided", PartitionPolicy::kStrided, {2, 4}, 12);
  const Graph regular = sweep_regular();
  for (const std::size_t k : kSweepDomains) {
    const auto whole = whole_chunks(
        OwnershipMap::build(regular, k, PartitionPolicy::kGreedyEdgeCut), regular.num_nodes());
    EXPECT_NE(std::count(whole.begin(), whole.end(), false), 0) << "K = " << k;
  }
  run_chunk_matrix(regular, "greedy", PartitionPolicy::kGreedyEdgeCut, kSweepDomains, 12);
  lb::util::Rng rng(53);
  for (const Graph& g :
       {lb::graph::make_torus2d(6, 6), lb::graph::make_named("regular", 40, rng)}) {
    run_chunk_matrix(g, g.name() + "/per-node", PartitionPolicy::kGreedyEdgeCut,
                     {g.num_nodes()}, 12);
  }
}

TEST(ShardEngineTest, TokenCountAbove2To53MatchesCore) {
  // A checkerboard of empty nodes and nodes of 2^50 + 987654321 tokens:
  // each round-1 edge moves some 2^46 tokens, so each chunk's Σ|amount|
  // is far past 2^53, where the double chain rounds and the sweep must
  // recount it rather than convert its integer sum.
  const Graph g = lb::graph::make_torus2d(32, 64);
  std::vector<std::int64_t> load0(g.num_nodes());
  for (std::size_t u = 0; u < load0.size(); ++u) {
    load0[u] = (u / 64 + u) % 2 == 0 ? (std::int64_t{1} << 50) + 987654321 : 0;
  }
  EngineConfig cfg;
  cfg.max_rounds = 1;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  auto alg = lb::core::make_diffusion_discrete();
  std::vector<std::int64_t> load = load0;
  const RunResult first = lb::core::run_static(*alg, g, load, cfg);
  // Every edge joins a full node and an empty one, so every edge moved
  // what node 0 lost over each of its four edges.  The two chunks' exact
  // totals are past 2^53, and the seed's double chain rounds them.
  const std::int64_t amount = (load0[0] - load[0]) / 4;
  const double exact = static_cast<double>(amount) * static_cast<double>(g.num_edges());
  EXPECT_GT(exact / 2, 0x1p53);
  EXPECT_NE(first.trace[0].transferred, exact);
  const std::vector<Case<std::int64_t>> cases = {
      {"diffusion-disc", [] { return lb::core::make_diffusion_discrete(); }}};
  run_matrix<std::int64_t>(
      cases, [&] { return lb::graph::make_static_sequence(g); }, load0, "above-2^53",
      PartitionPolicy::kContiguous, {1, 2, 3}, 8);
  run_matrix<std::int64_t>(
      cases, [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 79); }, load0,
      "above-2^53/bernoulli", PartitionPolicy::kStrided, {2}, 8);
  // The CSR legs against the seed's double chain: the masked torus, its
  // shape-less twin, and a random regular graph with the same load pattern.
  const Case<std::int64_t> seed = {
      "seed-diffusion", [] { return std::make_unique<seed::Diffusion<std::int64_t>>(); }};
  expect_core_matches_seed<std::int64_t>(
      cases[0], seed, [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 79); }, load0, 8,
      "above-2^53/bernoulli");
  const Graph twin = lb::graph::subgraph_with_edges(g, g.edges(), "twin");
  expect_core_matches_seed<std::int64_t>(
      cases[0], seed, [&] { return lb::graph::make_static_sequence(twin); }, load0, 8,
      "above-2^53/twin");
  lb::util::Rng rng(83);
  const Graph regular = lb::graph::make_random_regular(2048, 4, rng);
  expect_core_matches_seed<std::int64_t>(
      cases[0], seed, [&] { return lb::graph::make_static_sequence(regular); }, load0, 8,
      "above-2^53/regular");
}

TEST(ShardEngineTest, AutoBetaSosThrowsOnDisconnectedFirstRound) {
  // This 40-node random regular graph's first Bernoulli(0.8) view is
  // disconnected (γ = 1), so no optimal β exists.
  lb::util::Rng rng(53);
  const Graph g = lb::graph::make_named("regular", 40, rng);
  const auto load0 = sweep_load(g.num_nodes());
  EngineConfig cfg;
  cfg.max_rounds = 5;
  cfg.target_potential = 0.0;
  {
    auto sos = lb::core::make_sos();
    auto seq = lb::graph::make_bernoulli_sequence(g, 0.8, 59);
    std::vector<double> load = load0;
    EXPECT_THROW(lb::core::run(*sos, *seq, load, cfg), std::invalid_argument);
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, g.num_nodes()}) {
    ShardConfig shard;
    shard.domains = k;
    auto sos = lb::core::make_sos();
    auto seq = lb::graph::make_bernoulli_sequence(g, 0.8, 59);
    std::vector<double> load = load0;
    EXPECT_THROW(lb::shard::run(*sos, *seq, load, cfg, shard), std::invalid_argument)
        << "K = " << k;
  }
}

TEST(ShardEngineTest, PartitionPolicyDoesNotChangeResults) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  auto load0 = lb::workload::spike<double>(64, 6400.0);
  EngineConfig cfg;
  cfg.max_rounds = 40;
  cfg.target_potential = 0.0;
  RunResult first;
  std::vector<double> first_load;
  bool have_first = false;
  for (const PartitionPolicy policy :
       {PartitionPolicy::kContiguous, PartitionPolicy::kStrided,
        PartitionPolicy::kGreedyEdgeCut}) {
    ShardConfig shard;
    shard.domains = 4;
    shard.policy = policy;
    auto alg = lb::core::make_diffusion_continuous();
    std::vector<double> load = load0;
    const RunResult r = lb::shard::run_static(*alg, g, load, cfg, shard);
    if (!have_first) {
      first = r;
      first_load = load;
      have_first = true;
    } else {
      expect_identical(first, r, lb::shard::to_string(policy));
      EXPECT_EQ(load, first_load);
    }
  }
}

TEST(ShardEngineTest, UnplannableBalancerFallsBackAndStillMatches) {
  // Random-partner pairing is inherently centralized (global pairing
  // draw), so it falls back to shared-memory step() inside the sharded
  // loop — zero sharded rounds, zero comm, still bit-identical.
  const Graph g = lb::graph::make_torus2d(8, 8);
  auto load0 = lb::workload::spike<double>(64, 6400.0);
  EngineConfig cfg;
  cfg.max_rounds = 30;
  cfg.target_potential = 0.0;
  auto oracle_alg = lb::core::make_random_partner_continuous();
  std::vector<double> oracle_load = load0;
  const RunResult oracle = lb::core::run_static(*oracle_alg, g, oracle_load, cfg);
  ShardConfig shard;
  shard.domains = 4;
  auto alg = lb::core::make_random_partner_continuous();
  std::vector<double> load = load0;
  const RunResult r = lb::shard::run_static(*alg, g, load, cfg, shard);
  expect_identical(oracle, r, "random-partner fallback");
  EXPECT_EQ(load, oracle_load);
  EXPECT_EQ(r.sharded_rounds, 0u);
  EXPECT_EQ(r.comm.messages, 0u);
}

// ------------------------------------------- per-node sharding (K = n)
//
// With one domain per node, every node sees its neighbours only through
// halo messages: the distributed protocol the paper's machine runs.

class ShardEnginePerNodeTest : public ::testing::TestWithParam<std::string> {};

template <class B, class T>
void expect_per_node_matches_core(const Graph& g, const std::vector<T>& load0) {
  B oracle_alg, alg;
  EngineConfig cfg;
  cfg.max_rounds = 30;
  cfg.target_potential = 0.0;
  std::vector<T> oracle_load = load0;
  const RunResult oracle = lb::core::run_static(oracle_alg, g, oracle_load, cfg);
  ShardConfig shard;
  shard.domains = g.num_nodes();
  std::vector<T> load = load0;
  const RunResult r = lb::shard::run_static(alg, g, load, cfg, shard);
  expect_identical(oracle, r, "K = n");
  EXPECT_EQ(load, oracle_load);
  EXPECT_EQ(r.domains, g.num_nodes());
  EXPECT_EQ(r.sharded_rounds, r.rounds);
}

TEST_P(ShardEnginePerNodeTest, DiscreteTrajectoryMatchesCentralizedBalancer) {
  lb::util::Rng rng(17);
  const Graph g = lb::graph::make_named(GetParam(), 48, rng);
  const auto load0 = lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), 1000 * static_cast<std::int64_t>(g.num_nodes()), rng);
  expect_per_node_matches_core<lb::core::DiscreteDiffusion>(g, load0);
}

TEST_P(ShardEnginePerNodeTest, ContinuousTrajectoryMatchesCentralizedBalancer) {
  lb::util::Rng rng(19);
  const Graph g = lb::graph::make_named(GetParam(), 48, rng);
  const auto load0 = lb::workload::spike<double>(
      g.num_nodes(), 100.0 * static_cast<double>(g.num_nodes()));
  expect_per_node_matches_core<lb::core::ContinuousDiffusion>(g, load0);
}

INSTANTIATE_TEST_SUITE_P(Topologies, ShardEnginePerNodeTest,
                         ::testing::Values("path", "cycle", "torus2d", "hypercube",
                                           "star", "tree", "regular"));

TEST(ShardEngineTest, PerNodeFiveCycleGolden) {
  // A 5-cycle with one loaded node has a hand-computable trajectory.
  // Round 1: node 0's round-start load 100 reaches both neighbours'
  // domains, and the default rule moves ⌊100/(4·2)⌋ = 12 along each edge.
  // Had the second edge seen the post-deduction 88, it would ship 11.
  // Round 2, all from {76,12,0,0,12}: node 0 sends ⌊64/8⌋ = 8 to nodes 1
  // and 4, which send ⌊12/8⌋ = 1 on to nodes 2 and 3.
  const Graph g = lb::graph::make_cycle(5);
  const std::vector<std::vector<std::int64_t>> expected = {
      {76, 12, 0, 0, 12}, {60, 19, 1, 1, 19}};
  const double transferred[] = {24.0, 18.0};
  const std::size_t active[] = {2, 4};
  for (std::size_t rounds = 1; rounds <= 2; ++rounds) {
    EngineConfig cfg;
    cfg.max_rounds = rounds;
    cfg.target_potential = 0.0;
    ShardConfig shard;
    shard.domains = 5;
    lb::core::DiscreteDiffusion alg;
    std::vector<std::int64_t> load = {100, 0, 0, 0, 0};
    const RunResult r = lb::shard::run_static(alg, g, load, cfg, shard);
    ASSERT_EQ(r.rounds, rounds);
    EXPECT_EQ(load, expected[rounds - 1]);
    for (std::size_t i = 0; i < rounds; ++i) {
      EXPECT_EQ(r.trace[i].transferred, transferred[i]) << "round " << i + 1;
      EXPECT_EQ(r.trace[i].active_edges, active[i]) << "round " << i + 1;
    }
  }
}

TEST(ShardEngineTest, PerNodeStaticRoundShipsTwoMessagesPerEdge) {
  // At K = n every edge is cut, so a static round ships exactly one load
  // (owner(v) → owner(u)) and one flow (back) per edge — zero flows too.
  lb::util::Rng rng(5);
  for (const Graph& g : {lb::graph::make_cycle(10), lb::graph::make_torus2d(6, 6),
                         lb::graph::make_random_regular(40, 4, rng)}) {
    EngineConfig cfg;
    cfg.max_rounds = 5;
    cfg.target_potential = 0.0;
    cfg.stall_rounds = 0;
    ShardConfig shard;
    shard.domains = g.num_nodes();
    lb::core::DiscreteDiffusion alg;
    auto load = lb::workload::spike<std::int64_t>(g.num_nodes(), 1000);
    const RunResult r = lb::shard::run_static(alg, g, load, cfg, shard);
    SCOPED_TRACE(g.name());
    ASSERT_EQ(r.rounds, 5u);
    const std::uint64_t m = g.num_edges();
    for (const auto& rec : r.trace.records()) {
      EXPECT_EQ(rec.messages, 2 * m);
      EXPECT_EQ(rec.boundary_bytes, m * (sizeof(std::int64_t) + sizeof(double)));
    }
    EXPECT_EQ(r.comm.messages, 2 * m * r.rounds);
  }
}

// -------------------------------------------------------- comm observability

TEST(ShardEngineTest, CommMetricsSurfaceThroughRunResultAndTrace) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  auto load0 = lb::workload::spike<double>(64, 6400.0);
  EngineConfig cfg;
  cfg.max_rounds = 20;
  cfg.target_potential = 0.0;

  ShardConfig shard;
  shard.domains = 4;
  auto alg = lb::core::make_diffusion_continuous();
  std::vector<double> load = load0;
  const RunResult r = lb::shard::run_static(*alg, g, load, cfg, shard);
  EXPECT_EQ(r.domains, 4u);
  EXPECT_EQ(r.sharded_rounds, r.rounds);
  EXPECT_GT(r.comm.messages, 0u);
  EXPECT_GT(r.comm.boundary_bytes, 0u);
  ASSERT_EQ(r.domain_comm.size(), 4u);
  std::uint64_t msg_sum = 0, byte_sum = 0, trace_msgs = 0, trace_bytes = 0;
  for (const auto& d : r.domain_comm) {
    msg_sum += d.messages;
    byte_sum += d.boundary_bytes;
  }
  EXPECT_EQ(msg_sum, r.comm.messages);
  EXPECT_EQ(byte_sum, r.comm.boundary_bytes);
  for (const auto& rec : r.trace.records()) {
    trace_msgs += rec.messages;
    trace_bytes += rec.boundary_bytes;
  }
  EXPECT_EQ(trace_msgs, r.comm.messages);
  EXPECT_EQ(trace_bytes, r.comm.boundary_bytes);
  EXPECT_NE(r.trace.to_csv().find("messages,boundary_bytes,halo_wait_us"),
            std::string::npos);

  // K = 1: the full machinery with no links — zero comm by construction.
  ShardConfig solo;
  solo.domains = 1;
  auto alg1 = lb::core::make_diffusion_continuous();
  std::vector<double> load1 = load0;
  const RunResult r1 = lb::shard::run_static(*alg1, g, load1, cfg, solo);
  EXPECT_EQ(r1.comm.messages, 0u);
  EXPECT_EQ(r1.comm.boundary_bytes, 0u);
}

// ------------------------------------------------------------ campaign axis

TEST(ShardEngineTest, CampaignShardAxisIsBitIdenticalAcrossK) {
  // K as a campaign-grid axis (lb/exp): the per-cell seed derivation
  // ignores the shard coordinate, so cells differing only in K must
  // produce identical trajectories — K varies only comm observability.
  lb::exp::ExperimentPlan plan;
  plan.graphs = {{"torus2d", 36}};
  plan.balancers = {{lb::exp::BalancerKind::kDiffusion, 0.0}};
  plan.scenarios = {lb::exp::static_scenario(),
                    lb::exp::bernoulli_scenario(0.8)};
  plan.shards = {1, 4};
  plan.seeds = {1, 2};
  plan.engine.max_rounds = 25;

  lb::exp::CampaignRunner runner;
  const lb::exp::CampaignReport report = runner.run(plan);
  const std::vector<lb::exp::Cell> cells = plan.cells();
  ASSERT_EQ(report.cells.size(), cells.size());

  // Pair each K=4 cell with its K=1 twin (same coordinates, shard index 0).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].shard == 0) continue;
    std::size_t twin = cells.size();
    for (std::size_t j = 0; j < cells.size(); ++j) {
      if (cells[j].shard == 0 && cells[j].graph == cells[i].graph &&
          cells[j].scenario == cells[i].scenario &&
          cells[j].workload == cells[i].workload &&
          cells[j].balancer == cells[i].balancer &&
          cells[j].scalar == cells[i].scalar &&
          cells[j].seed_index == cells[i].seed_index) {
        twin = j;
      }
    }
    ASSERT_LT(twin, cells.size());
    const lb::core::RunResult& base = report.cells[twin].run;
    const lb::core::RunResult& sharded = report.cells[i].run;
    expect_identical(base, sharded, plan.cell_label(cells[i]));
    EXPECT_EQ(sharded.domains, 4u);
    EXPECT_GT(sharded.comm.messages, 0u);
  }

  // The shard axis shows up in labels and the per-cell CSV.
  const std::string csv = report.cells_csv(plan);
  EXPECT_NE(csv.find("domains"), std::string::npos);
  EXPECT_NE(csv.find("messages"), std::string::npos);
  bool saw_k4_label = false;
  for (const lb::exp::Cell& c : cells) {
    if (c.shard == 1) {
      saw_k4_label = plan.cell_label(c).find("/k4/") != std::string::npos;
      break;
    }
  }
  EXPECT_TRUE(saw_k4_label);
}

TEST(ShardEngineTest, ModeledLinkCostsAreDeterministic) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  auto load0 = lb::workload::spike<double>(64, 6400.0);
  EngineConfig cfg;
  cfg.max_rounds = 10;
  cfg.target_potential = 0.0;
  ShardConfig shard;
  shard.domains = 4;
  shard.default_link = {2.0, 0.01};           // 2µs latency, 100 MB/s-ish
  shard.link_overrides = {{0, 1, {50.0, 0.1}}};  // one straggler link

  auto run_once = [&] {
    auto alg = lb::core::make_diffusion_continuous();
    std::vector<double> load = load0;
    return lb::shard::run_static(*alg, g, load, cfg, shard);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_GT(a.comm.halo_wait_us, 0.0);
  EXPECT_EQ(a.comm.halo_wait_us, b.comm.halo_wait_us);
  ASSERT_EQ(a.domain_comm.size(), b.domain_comm.size());
  for (std::size_t d = 0; d < a.domain_comm.size(); ++d) {
    EXPECT_EQ(a.domain_comm[d].halo_wait_us, b.domain_comm[d].halo_wait_us);
  }
  // The straggler link 0→1 must show up in domain 1's modeled wait.
  EXPECT_GT(a.domain_comm[1].halo_wait_us, a.domain_comm[2].halo_wait_us);
}

}  // namespace
