// The torus stencil round (DESIGN.md §9.6) against its oracles.  A pair
// rule on an unmasked make_torus2d graph runs the stencil; the same run on
// the graph's shape-less twin — subgraph_with_edges(g, g.edges(), ...),
// the identical edge list without a TorusShape — runs the CSR blocked
// round.  Every stencil run must equal the twin's CSR run and the seed's
// sequential rounds (seed_oracle.hpp) field by field: RunResult, per-round
// trace and final loads, for both scalars, every pair rule, pools
// {1, 2, hw}, traces on and off, and block widths that the stencil
// ignores.  The shapes cover single-row-chunk tori, rows longer than a
// stencil group, rows shorter than a chunk, groups that end inside a row,
// and a last group narrower than the rest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/generators.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::core::EngineConfig;
using lb::core::RunResult;
using lb::graph::Graph;

template <class T>
using MakeBalancer = std::function<std::unique_ptr<lb::core::Balancer<T>>()>;

struct BlockWidthGuard {
  explicit BlockWidthGuard(long long width) { lb::core::set_blocked_width_override(width); }
  ~BlockWidthGuard() { lb::core::set_blocked_width_override(-1); }
};

/// The shape-less twin of `g`: the same edge list, so the same flows in
/// the same order, run through the CSR blocked round.
Graph twin_of(const Graph& g) { return lb::graph::subgraph_with_edges(g, g.edges(), "twin"); }

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every deterministic RunResult field, the trace record by record, and
/// the final loads, bit for bit.
template <class T>
void expect_identical(const RunResult& oracle, const std::vector<T>& oracle_load,
                      const RunResult& run, const std::vector<T>& load,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(oracle.reached_target, run.reached_target);
  EXPECT_EQ(oracle.stalled, run.stalled);
  EXPECT_EQ(oracle.rounds, run.rounds);
  EXPECT_TRUE(same_bits(oracle.initial_potential, run.initial_potential));
  EXPECT_TRUE(same_bits(oracle.final_potential, run.final_potential));
  EXPECT_TRUE(same_bits(oracle.final_discrepancy, run.final_discrepancy));
  ASSERT_EQ(oracle.trace.size(), run.trace.size());
  for (std::size_t i = 0; i < oracle.trace.size(); ++i) {
    EXPECT_TRUE(same_bits(oracle.trace[i].potential, run.trace[i].potential)) << i;
    EXPECT_TRUE(same_bits(oracle.trace[i].discrepancy, run.trace[i].discrepancy)) << i;
    EXPECT_TRUE(same_bits(oracle.trace[i].transferred, run.trace[i].transferred)) << i;
    EXPECT_EQ(oracle.trace[i].active_edges, run.trace[i].active_edges) << i;
  }
  EXPECT_TRUE(same_bits(oracle_load, load)) << "final loads differ";
}

template <class T>
struct Config {
  std::string name;
  MakeBalancer<T> make;
  MakeBalancer<T> seed;  // the seed's sequential round, or null
};

template <class T>
RunResult run_on(const Graph& g, const MakeBalancer<T>& make, std::vector<T>& load,
                 EngineConfig cfg, lb::util::ThreadPool& pool) {
  cfg.pool = &pool;
  auto alg = make();
  return lb::core::run_static(*alg, g, load, cfg);
}

/// One (shape, rule, load) cell: the twin's CSR run at pool 1 is the
/// oracle; the seed's rounds, and the stencil at every pool in `pools`,
/// trace on and off, and every width in `widths`, must equal it.
template <class T>
void expect_stencil_matches(const Graph& g, const Config<T>& c, const std::vector<T>& load0,
                            std::size_t rounds, const std::vector<std::size_t>& pools,
                            const std::vector<long long>& widths) {
  ASSERT_FALSE(g.torus_shape().empty());
  const Graph twin = twin_of(g);
  ASSERT_TRUE(twin.torus_shape().empty());
  for (const bool trace : {true, false}) {
    EngineConfig cfg;
    cfg.max_rounds = rounds;
    cfg.target_potential = 0.0;
    cfg.stall_rounds = 0;
    cfg.record_trace = trace;
    const std::string label = g.name() + "/" + c.name + (trace ? "/trace" : "/no-trace");

    lb::util::ThreadPool one(1);
    std::vector<T> oracle_load = load0;
    const RunResult oracle = run_on(twin, c.make, oracle_load, cfg, one);
    if (c.seed) {
      std::vector<T> seed_load = load0;
      const RunResult seed = run_on(g, c.seed, seed_load, cfg, one);
      expect_identical(oracle, oracle_load, seed, seed_load, label + "/seed");
    }
    for (const long long width : widths) {
      BlockWidthGuard guard(width);
      for (const std::size_t threads : pools) {
        lb::util::ThreadPool pool(threads);
        std::vector<T> load = load0;
        const RunResult run = run_on(g, c.make, load, cfg, pool);
        expect_identical(oracle, oracle_load, run, load,
                         label + "/w" + std::to_string(width) + "/pool" +
                             std::to_string(pool.size()));
      }
    }
  }
}

/// Shapes small enough for the full matrix: one-chunk and one-group tori,
/// rows shorter than a chunk, a last group narrower than the others, and
/// rows that straddle groups (3 x 1366 = 4098 nodes).
std::vector<Graph> small_shapes() {
  std::vector<Graph> shapes;
  for (const auto& [a, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 3}, {3, 4}, {4, 3}, {5, 7}, {16, 16}, {17, 13}, {31, 33}, {64, 64},
           {3, 1366}, {64, 80}, {129, 65}, {100, 100}}) {
    shapes.push_back(lb::graph::make_torus2d(a, b));
  }
  return shapes;
}

/// 1024 and 0 are the CSR round's default-sized and single-block widths;
/// the third is random.  None may change a stencil run.
std::vector<long long> widths() {
  lb::util::Rng rng(83);
  return {0, 1024, static_cast<long long>(rng.next_below(40000) + 1)};
}

const std::vector<std::size_t> kAllPools = {1, 2, 0};

std::vector<Config<double>> real_configs() {
  lb::core::DiffusionConfig f25;
  f25.factor = 2.5;
  lb::core::DiffusionConfig plus_one;
  plus_one.rule = lb::core::DenominatorRule::kDegreePlusOne;
  return {
      {"diffusion-cont", [] { return lb::core::make_diffusion_continuous(); },
       [] { return std::make_unique<seed::Diffusion<double>>(); }},
      {"diffusion-cont(f=2.5)",
       [f25] { return std::make_unique<lb::core::ContinuousDiffusion>(f25); },
       [f25] { return std::make_unique<seed::Diffusion<double>>(f25); }},
      {"fos-flow", [plus_one] { return std::make_unique<lb::core::ContinuousDiffusion>(plus_one); },
       [plus_one] { return std::make_unique<seed::Diffusion<double>>(plus_one); }},
      {"fos", [] { return lb::core::make_fos_continuous(); },
       [] { return std::make_unique<seed::SecondOrder>(); }},
      {"sos(1.5)", [] { return lb::core::make_sos(1.5); },
       [] { return std::make_unique<seed::SecondOrder>(1.5); }},
  };
}

std::vector<Config<std::int64_t>> token_configs() {
  lb::core::DiffusionConfig f25;
  f25.factor = 2.5;
  lb::core::DiffusionConfig plus_one;
  plus_one.rule = lb::core::DenominatorRule::kDegreePlusOne;
  return {
      {"diffusion-disc", [] { return lb::core::make_diffusion_discrete(); },
       [] { return std::make_unique<seed::Diffusion<std::int64_t>>(); }},
      {"diffusion-disc(f=2.5)",
       [f25] { return std::make_unique<lb::core::DiscreteDiffusion>(f25); },
       [f25] { return std::make_unique<seed::Diffusion<std::int64_t>>(f25); }},
      {"fos-disc", [] { return lb::core::make_fos_discrete(); },
       [plus_one] { return std::make_unique<seed::Diffusion<std::int64_t>>(plus_one); }},
  };
}

std::vector<double> real_load(const Graph& g, std::uint64_t seed) {
  lb::util::Rng rng(seed);
  return lb::workload::bimodal<double>(g.num_nodes(),
                                       1000.0 * static_cast<double>(g.num_nodes()), rng);
}

std::vector<std::int64_t> token_load(const Graph& g, std::uint64_t seed) {
  lb::util::Rng rng(seed);
  return lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), static_cast<std::int64_t>(1000 * g.num_nodes()), rng);
}

// ------------------------------------------------------------- the shape

TEST(TorusStencilTest, OnlyTheGeneratorRecordsAShape) {
  const Graph g = lb::graph::make_torus2d(5, 7);
  EXPECT_EQ(g.torus_shape().rows, 5u);
  EXPECT_EQ(g.torus_shape().cols, 7u);
  const Graph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.torus_shape().rows, 5u);
  EXPECT_EQ(copy.torus_shape().cols, 7u);
  EXPECT_TRUE(twin_of(g).torus_shape().empty());
  lb::graph::GraphBuilder builder(g.num_nodes(), "built");
  for (const lb::graph::Edge& e : g.edges()) builder.add_edge(e.u, e.v);
  EXPECT_TRUE(builder.build().torus_shape().empty());
  lb::graph::EdgeMask mask(g);
  mask.set_alive(0, false);
  mask.commit();
  EXPECT_TRUE(mask.materialize("view").torus_shape().empty());
  EXPECT_TRUE(lb::graph::make_torus3d(3, 3, 3).torus_shape().empty());
  EXPECT_TRUE(lb::graph::make_hypercube(4).torus_shape().empty());
  EXPECT_TRUE(lb::graph::make_grid2d(5, 7).torus_shape().empty());
}

// ----------------------------------------------------- stencil == twin

TEST(TorusStencilTest, RealRulesMatchTwinAndSeed) {
  for (const Graph& g : small_shapes()) {
    const auto load0 = real_load(g, 11);
    for (const auto& c : real_configs()) {
      expect_stencil_matches<double>(g, c, load0, 12, kAllPools, widths());
    }
  }
}

TEST(TorusStencilTest, TokenRulesMatchTwinAndSeed) {
  for (const Graph& g : small_shapes()) {
    const auto load0 = token_load(g, 13);
    for (const auto& c : token_configs()) {
      expect_stencil_matches<std::int64_t>(g, c, load0, 12, kAllPools, widths());
    }
  }
}

TEST(TorusStencilTest, AutoBetaSosMatchesTwinAndSeed) {
  // γ comes from the spectrum, which the twin shares bit for bit.
  for (const auto& [a, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 3}, {5, 7}, {16, 16}, {17, 13}}) {
    const Graph g = lb::graph::make_torus2d(a, b);
    const double beta =
        lb::core::SecondOrderScheme::optimal_beta(lb::linalg::diffusion_gamma(g));
    const Config<double> c{"sos(auto)", [] { return lb::core::make_sos(); },
                           [beta] { return std::make_unique<seed::SecondOrder>(beta); }};
    expect_stencil_matches<double>(g, c, real_load(g, 17), 12, kAllPools, widths());
  }
}

TEST(TorusStencilTest, LongRowsAndColumnsMatchTwinAndSeed) {
  // Rows longer than a stencil group, three-node rows, and 7-node rows
  // that no chunk or group boundary respects.
  for (const auto& [a, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 5000}, {5000, 3}, {7, 1000}, {1000, 7}}) {
    const Graph g = lb::graph::make_torus2d(a, b);
    expect_stencil_matches<double>(g, real_configs()[0], real_load(g, 19), 6, kAllPools,
                                   {1024});
    expect_stencil_matches<double>(g, real_configs()[4], real_load(g, 19), 6, {1, 0},
                                   {1024});
    expect_stencil_matches<std::int64_t>(g, token_configs()[0], token_load(g, 23), 6,
                                         kAllPools, {1024});
  }
}

TEST(TorusStencilTest, MillionNodeTorusMatchesTwin) {
  // 700 x 1500: many full groups per task slab, each re-evaluating a
  // halo its slab's previous group owns, and a last group of 1424 nodes.
  // Factor 2.5 (d = 10) so that the Real arithmetic rounds from round 1
  // and an update applied out of order shows.
  const Graph g = lb::graph::make_torus2d(700, 1500);
  expect_stencil_matches<double>(g, real_configs()[1], real_load(g, 29), 3, {1, 0}, {16384});
  const Config<std::int64_t> disc{"diffusion-disc",
                                  [] { return lb::core::make_diffusion_discrete(); }, nullptr};
  expect_stencil_matches<std::int64_t>(g, disc, token_load(g, 31), 3, {1, 0}, {16384});
}

TEST(TorusStencilTest, NegativeZeroLoadsKeepTheirBits) {
  // Every flow on an all −0.0 vector is zero, and a zero flow must leave
  // a node's −0.0 untouched on every boundary row and column too.  (SOS's
  // β-combine is arithmetic on the loads and yields +0.0 on every path;
  // it must still match the twin.)
  EngineConfig cfg;
  cfg.max_rounds = 4;
  cfg.target_potential = -1.0;  // Φ = 0 must not end the run
  cfg.stall_rounds = 0;
  for (const Graph& g : small_shapes()) {
    const Graph twin = twin_of(g);
    for (const auto& c : real_configs()) {
      lb::util::ThreadPool one(1);
      std::vector<double> twin_load(g.num_nodes(), -0.0);
      const RunResult oracle = run_on(twin, c.make, twin_load, cfg, one);
      for (const std::size_t threads : kAllPools) {
        lb::util::ThreadPool pool(threads);
        std::vector<double> load(g.num_nodes(), -0.0);
        const RunResult run = run_on(g, c.make, load, cfg, pool);
        const std::string label =
            g.name() + "/" + c.name + "/pool" + std::to_string(pool.size());
        expect_identical(oracle, twin_load, run, load, label);
        if (c.name.rfind("sos", 0) == 0) continue;
        SCOPED_TRACE(label);
        for (const double v : load) ASSERT_TRUE(v == 0.0 && std::signbit(v));
      }
    }
  }
}

TEST(TorusStencilTest, CheckedAndShardedRunsMatch) {
  // LB_CHECK's torus-shape check and the sharded engine's per-edge replay
  // of the same pair rule change no bit.
  const Graph g = lb::graph::make_torus2d(64, 80);
  const auto load0 = real_load(g, 37);
  EngineConfig cfg;
  cfg.max_rounds = 10;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  lb::util::ThreadPool pool(2);
  for (const auto& c : real_configs()) {
    std::vector<double> plain_load = load0;
    const RunResult plain = run_on(g, c.make, plain_load, cfg, pool);
    EngineConfig checked_cfg = cfg;
    checked_cfg.check_invariants = true;
    std::vector<double> checked_load = load0;
    const RunResult checked = run_on(g, c.make, checked_load, checked_cfg, pool);
    expect_identical(plain, plain_load, checked, checked_load, c.name + "/checked");
    lb::shard::ShardConfig shard;
    shard.domains = 4;
    cfg.pool = &pool;
    auto alg = c.make();
    std::vector<double> sharded_load = load0;
    const RunResult sharded = lb::shard::run_static(*alg, g, sharded_load, cfg, shard);
    expect_identical(plain, plain_load, sharded, sharded_load, c.name + "/shardK4");
  }
}

// -------------------------------------------------------------- the path

TEST(TorusStencilTest, TorusRunsBuildNoRoundPlan) {
  const Graph g = lb::graph::make_torus2d(64, 80);
  const Graph twin = twin_of(g);
  EngineConfig cfg;
  cfg.max_rounds = 3;
  cfg.target_potential = 0.0;
  lb::util::ThreadPool pool(1);
  cfg.pool = &pool;
  for (const auto& c : real_configs()) {
    SCOPED_TRACE(c.name);
    lb::core::RunArena<double> arena;
    auto alg = c.make();
    auto seq = lb::graph::make_static_view(g);
    std::vector<double> load = real_load(g, 41);
    lb::core::run(*alg, *seq, load, cfg, arena);
    EXPECT_EQ(arena.round_plan().width(), 0u) << "the stencil built a round plan";

    auto twin_alg = c.make();
    auto twin_seq = lb::graph::make_static_view(twin);
    load = real_load(g, 41);
    lb::core::run(*twin_alg, *twin_seq, load, cfg, arena);
    EXPECT_TRUE(arena.round_plan().valid_for(twin, lb::core::blocked_round_width()));
  }
  // A masked torus frame keeps the CSR round.
  lb::core::RunArena<double> arena;
  auto alg = lb::core::make_diffusion_continuous();
  auto seq = lb::graph::make_bernoulli_sequence(g, 0.8, 5);
  std::vector<double> load = real_load(g, 43);
  lb::core::run(*alg, *seq, load, cfg, arena);
  EXPECT_NE(arena.round_plan().width(), 0u);
}

}  // namespace
