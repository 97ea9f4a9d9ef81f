// Property tests for the million-node substrate (DESIGN.md §9): the
// blocked round must be bit-identical to its oracles — the single-block
// round and the seed's sequential rounds (seed_oracle.hpp) — at every
// block width, pool size, mask state, and shard count, on regular graphs
// and on irregular ones where most edges cross blocks; the round's plan
// must hold exactly the chunk slices and cut lists a brute-force pass
// derives; StepStats::transferred must follow the fixed-chunk contract;
// the width-adaptive index storage must produce identical graphs and runs
// in narrow (uint32) and forced-wide (uint64) modes; the streaming
// generator builds must equal their add_edge counterparts exactly; and
// the linalg scale guard must degrade deterministically.
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
#include "lb/core/dynamic_runner.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/index_array.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::core::EngineConfig;
using lb::core::RunResult;
using lb::graph::Graph;
using lb::util::IndexArray;

/// Restores the process-wide block-width override on scope exit so a
/// failing assertion cannot leak a nonstandard width into other tests.
struct BlockWidthGuard {
  explicit BlockWidthGuard(long long width) {
    lb::core::set_blocked_width_override(width);
  }
  ~BlockWidthGuard() { lb::core::set_blocked_width_override(-1); }
};

struct WideIndexGuard {
  WideIndexGuard() { lb::util::set_force_wide_indices(true); }
  ~WideIndexGuard() { lb::util::set_force_wide_indices(false); }
};

struct SpectralCeilingGuard {
  explicit SpectralCeilingGuard(long long ceiling) {
    lb::linalg::set_max_spectral_n(ceiling);
  }
  ~SpectralCeilingGuard() { lb::linalg::set_max_spectral_n(-1); }
};

/// Bitwise comparison of every deterministic RunResult field (wall-clock
/// fields excluded by design — see DESIGN.md §4).
void expect_identical(const RunResult& oracle, const RunResult& other,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(oracle.reached_target, other.reached_target);
  EXPECT_EQ(oracle.stalled, other.stalled);
  EXPECT_EQ(oracle.rounds, other.rounds);
  EXPECT_EQ(oracle.initial_potential, other.initial_potential);
  EXPECT_EQ(oracle.final_potential, other.final_potential);
  EXPECT_EQ(oracle.final_discrepancy, other.final_discrepancy);
  ASSERT_EQ(oracle.trace.size(), other.trace.size());
  for (std::size_t i = 0; i < oracle.trace.size(); ++i) {
    EXPECT_EQ(oracle.trace[i].potential, other.trace[i].potential) << i;
    EXPECT_EQ(oracle.trace[i].discrepancy, other.trace[i].discrepancy) << i;
    EXPECT_EQ(oracle.trace[i].transferred, other.trace[i].transferred) << i;
    EXPECT_EQ(oracle.trace[i].active_edges, other.trace[i].active_edges) << i;
  }
}

template <class T>
using MakeBalancer = std::function<std::unique_ptr<lb::core::Balancer<T>>()>;

template <class T>
struct Case {
  std::string name;
  MakeBalancer<T> make;
  /// The oracle configuration; empty means `make` run as a single block.
  MakeBalancer<T> oracle = nullptr;
};

/// Run one (balancer, sequence, load) cell through its oracle — the
/// case's oracle configuration, or the single-block round — at pool 1,
/// then replay it across every width in `widths` × pools {1, 2, hw} and —
/// when `shards` is nonempty — through the sharded engine, asserting
/// bitwise equality of results and final loads throughout.
template <class T>
void sweep_widths(const std::vector<Case<T>>& cases,
                  const std::function<std::unique_ptr<lb::graph::GraphSequence>()>& seq,
                  const std::vector<T>& load0, const std::vector<long long>& widths,
                  const std::vector<std::size_t>& shards, const std::string& seq_label,
                  std::size_t rounds = 40) {
  EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  for (const Case<T>& c : cases) {
    RunResult oracle;
    std::vector<T> oracle_load = load0;
    {
      BlockWidthGuard single_block(0);
      lb::util::ThreadPool pool(1);
      cfg.pool = &pool;
      auto alg = c.oracle ? c.oracle() : c.make();
      auto s = seq();
      oracle = lb::core::run(*alg, *s, oracle_load, cfg);
    }
    for (const long long width : widths) {
      BlockWidthGuard blocked(width);
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
        lb::util::ThreadPool pool(threads);
        cfg.pool = &pool;
        auto alg = c.make();
        auto s = seq();
        std::vector<T> load = load0;
        const RunResult run = lb::core::run(*alg, *s, load, cfg);
        const std::string label = seq_label + "/" + c.name + "/w" +
                                  std::to_string(width) + "/pool" +
                                  std::to_string(pool.size());
        expect_identical(oracle, run, label);
        SCOPED_TRACE(label);
        ASSERT_EQ(load.size(), oracle_load.size());
        for (std::size_t i = 0; i < load.size(); ++i) {
          EXPECT_EQ(load[i], oracle_load[i]) << "node " << i;
        }
      }
      for (const std::size_t k : shards) {
        lb::util::ThreadPool pool(2);
        cfg.pool = &pool;
        lb::shard::ShardConfig shard;
        shard.domains = k;
        auto alg = c.make();
        auto s = seq();
        std::vector<T> load = load0;
        const RunResult run = lb::shard::run(*alg, *s, load, cfg, shard);
        expect_identical(oracle, run, seq_label + "/" + c.name + "/w" +
                                          std::to_string(width) + "/shardK" +
                                          std::to_string(k));
      }
    }
  }
}

std::vector<long long> randomized_widths(std::uint64_t seed, std::size_t count) {
  // set_blocked_width_override rounds odd values up to the next multiple
  // of kSummaryChunkWidth, so raw random widths exercise that path too.
  lb::util::Rng rng(seed);
  std::vector<long long> widths = {1024, 4096};
  for (std::size_t i = 0; i < count; ++i) {
    widths.push_back(static_cast<long long>(rng.next_below(40000) + 1));
  }
  return widths;
}

/// BlockedRoundPlan's contents against a brute-force O(m) reference, at
/// each of `widths` plus 1024, 3072, 5120 and a width past n: chunk c's
/// slice starts after every edge whose lower endpoint lies in an earlier
/// chunk; block b's cut entries are every edge with exactly one endpoint
/// in b, in ascending order (so the incoming ones, u in an earlier block,
/// come first); and its runs are the maximal stretches of its uncut edges
/// (u and v in b), each with the count of b's entries below its first.
void expect_plans_match_reference(const Graph& g, std::vector<long long> widths) {
  const auto& edges = g.edges();
  const std::size_t n = g.num_nodes();
  const std::size_t chunks = lb::core::summary_chunk_count(n);
  std::vector<std::uint32_t> chunk_begin(chunks + 1, 0);
  for (const lb::graph::Edge& e : edges) {
    ++chunk_begin[e.u / lb::core::kSummaryChunkWidth + 1];
  }
  for (std::size_t c = 0; c < chunks; ++c) chunk_begin[c + 1] += chunk_begin[c];

  widths.insert(widths.end(), {1024, 3072, 5120, static_cast<long long>(n) + 1});
  for (const long long requested : widths) {
    BlockWidthGuard guard(requested);  // rounds the width as the round does
    const std::size_t width = lb::core::blocked_round_width();
    SCOPED_TRACE(g.name() + "/w" + std::to_string(width));
    const std::size_t blocks = (n + width - 1) / width;
    std::vector<std::vector<std::uint32_t>> entries(blocks);
    std::vector<std::vector<lb::core::SweepRun>> runs(blocks);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const auto id = static_cast<std::uint32_t>(k);
      const std::size_t bu = edges[k].u / width;
      const std::size_t bv = edges[k].v / width;
      if (bu != bv) {
        entries[bv].push_back(id);
        entries[bu].push_back(id);
      } else if (!runs[bu].empty() && runs[bu].back().last == id) {
        ++runs[bu].back().last;
      } else {
        runs[bu].push_back({id, id + 1, static_cast<std::uint32_t>(entries[bu].size())});
      }
    }
    lb::core::BlockedRoundPlan plan;
    plan.rebuild(g, width);
    ASSERT_TRUE(plan.valid_for(g, width));
    for (std::size_t c = 0; c <= chunks; ++c) {
      EXPECT_EQ(plan.chunk_begin(c), chunk_begin[c]) << "chunk " << c;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto got = plan.cut_entries(b);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), entries[b])
          << "block " << b;
      const auto got_runs = plan.runs(b);
      ASSERT_EQ(got_runs.size(), runs[b].size()) << "block " << b;
      for (std::size_t r = 0; r < runs[b].size(); ++r) {
        EXPECT_EQ(got_runs[r].first, runs[b][r].first) << "block " << b << " run " << r;
        EXPECT_EQ(got_runs[r].last, runs[b][r].last) << "block " << b << " run " << r;
        EXPECT_EQ(got_runs[r].cuts_before, runs[b][r].cuts_before)
            << "block " << b << " run " << r;
      }
    }
  }
}

// ------------------------------------------------ blocked ≡ single block

/// `g` and its shape-less twin: a torus takes the torus stencil on its
/// unmasked pair-rule rounds, the twin — the same edge list — the CSR
/// blocked round this file pins.
std::vector<std::pair<std::string, Graph>> with_csr_twin(const Graph& g) {
  return {{"static", g},
          {"static-twin", lb::graph::subgraph_with_edges(g, g.edges(), "twin")}};
}

TEST(BlockedRoundTest, ContinuousStaticMatchesFlatOracle) {
  const Graph torus = lb::graph::make_torus2d(12, 11);
  lb::util::Rng wrng(21);
  const auto load0 = lb::workload::bimodal<double>(torus.num_nodes(), 13200.0, wrng);
  std::vector<Case<double>> cases = {
      {"diffusion-cont", [] { return lb::core::make_diffusion_continuous(); }},
      {"sos", [] { return lb::core::make_sos(); }},
  };
  const auto widths = randomized_widths(31, 3);
  for (const auto& [label, g] : with_csr_twin(torus)) {
    expect_plans_match_reference(g, widths);
    sweep_widths<double>(
        cases, [&] { return lb::graph::make_static_sequence(g); }, load0, widths, {1, 4},
        label);
  }
}

TEST(BlockedRoundTest, DiscreteStaticMatchesFlatOracle) {
  std::vector<Case<std::int64_t>> cases = {
      {"diffusion-disc", [] { return lb::core::make_diffusion_discrete(); }},
  };
  const auto widths = randomized_widths(37, 3);
  std::vector<std::pair<std::string, Graph>> graphs = {
      {"static", lb::graph::make_hypercube(7)}};
  for (auto& torus : with_csr_twin(lb::graph::make_torus2d(16, 8))) {
    graphs.push_back(std::move(torus));
  }
  for (const auto& [label, g] : graphs) {
    lb::util::Rng wrng(23);
    const auto load0 =
        lb::workload::uniform_random<std::int64_t>(g.num_nodes(), 12800, wrng);
    expect_plans_match_reference(g, widths);
    sweep_widths<std::int64_t>(
        cases, [&] { return lb::graph::make_static_sequence(g); }, load0, widths, {1, 4},
        label + "/" + g.name());
  }
}

TEST(BlockedRoundTest, MaskedDynamicMatchesFlatOracle) {
  const Graph g = lb::graph::make_torus2d(10, 10);
  const auto load0 = lb::workload::two_spikes<double>(g.num_nodes(), 10000.0);
  std::vector<Case<double>> cases = {
      {"diffusion-cont", [] { return lb::core::make_diffusion_continuous(); }},
      {"fos", [] { return lb::core::make_fos_continuous(); }},
  };
  const auto widths = randomized_widths(41, 2);
  expect_plans_match_reference(g, widths);
  sweep_widths<double>(
      cases, [&] { return lb::graph::make_bernoulli_sequence(g, 0.8, 77); }, load0,
      widths, {4}, "bernoulli");
}

TEST(BlockedRoundTest, PlanMatchesReferenceWhereBlocksAreCut) {
  // The sweeps above run graphs smaller than one block; these are several
  // blocks wide at every width below n.
  expect_plans_match_reference(lb::graph::make_torus2d(96, 80), randomized_widths(59, 3));
  expect_plans_match_reference(lb::graph::make_hypercube(13), randomized_widths(61, 3));
  // Nodes 100..3999 own no edges, so the lower endpoint jumps whole blocks.
  lb::graph::GraphBuilder gapped(6000, "gapped");
  for (lb::graph::NodeId u = 0; u < 99; ++u) gapped.add_edge(u, u + 1);
  for (lb::graph::NodeId u = 4000; u < 4099; ++u) gapped.add_edge(u, u + 1);
  gapped.add_edge(50, 5000).add_edge(4050, 5999);
  expect_plans_match_reference(gapped.build(), randomized_widths(67, 3));
}

TEST(BlockedRoundTest, WidthPolicyRoundsUpToChunkMultiples) {
  {
    BlockWidthGuard guard(0);
    EXPECT_EQ(lb::core::blocked_round_width(), 0u);  // 0 = a single block
  }
  {
    BlockWidthGuard guard(1);
    EXPECT_EQ(lb::core::blocked_round_width(), 1024u);
  }
  {
    BlockWidthGuard guard(5000);
    EXPECT_EQ(lb::core::blocked_round_width(), 5120u);  // next 1024 multiple
  }
  {
    BlockWidthGuard guard(16384);
    EXPECT_EQ(lb::core::blocked_round_width(), 16384u);
  }
}

// ------------------------------------ cut edges on irregular graphs

/// Real-valued balancers, each checked against its seed oracle: the
/// seed's sequential edge sweep on the materialized view.
std::vector<Case<double>> real_sweep_cases() {
  return {
      {"diffusion-cont", [] { return lb::core::make_diffusion_continuous(); },
       [] { return std::make_unique<seed::Diffusion<double>>(); }},
      {"fos", [] { return lb::core::make_fos_continuous(); },
       [] { return std::make_unique<seed::SecondOrder>(); }},
      {"sos", [] { return lb::core::make_sos(1.5); },
       [] { return std::make_unique<seed::SecondOrder>(1.5); }},
  };
}

std::vector<Case<std::int64_t>> token_sweep_cases() {
  return {
      {"diffusion-disc", [] { return lb::core::make_diffusion_discrete(); },
       [] { return std::make_unique<seed::Diffusion<std::int64_t>>(); }},
      {"fos-disc", [] { return lb::core::make_fos_discrete(); },
       [] {
         lb::core::DiffusionConfig cfg;
         cfg.rule = lb::core::DenominatorRule::kDegreePlusOne;
         return std::make_unique<seed::Diffusion<std::int64_t>>(cfg);
       }},
  };
}

/// Fraction of `g`'s edges whose endpoints lie in different blocks of
/// `width` nodes — the edges the round applies through cut lists.
double cut_fraction(const Graph& g, std::size_t width) {
  std::size_t cut = 0;
  for (const lb::graph::Edge& e : g.edges()) cut += e.u / width != e.v / width ? 1 : 0;
  return static_cast<double>(cut) / static_cast<double>(g.num_edges());
}

/// Both scalars over one irregular graph, static and (when `masked`)
/// under Bernoulli link failures, against the edge-sweep oracles, after
/// checking the graph's round plans.
void sweep_irregular(const Graph& g, const std::string& label, bool masked,
                     std::size_t rounds, const std::vector<long long>& widths) {
  expect_plans_match_reference(g, widths);
  lb::util::Rng wrng(43);
  const auto real0 = lb::workload::bimodal<double>(
      g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()), wrng);
  const auto tokens0 = lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), static_cast<std::int64_t>(1000 * g.num_nodes()), wrng);
  const auto stat = [&] { return lb::graph::make_static_sequence(g); };
  sweep_widths<double>(real_sweep_cases(), stat, real0, widths, {1, 4}, label, rounds);
  sweep_widths<std::int64_t>(token_sweep_cases(), stat, tokens0, widths, {1, 4}, label,
                             rounds);
  if (!masked) return;
  const auto bernoulli = [&] { return lb::graph::make_bernoulli_sequence(g, 0.7, 91); };
  sweep_widths<double>(real_sweep_cases(), bernoulli, real0, widths, {4},
                       label + "/bernoulli", rounds);
  sweep_widths<std::int64_t>(token_sweep_cases(), bernoulli, tokens0, widths, {4},
                             label + "/bernoulli", rounds);
}

TEST(BlockedRoundCutEdgeTest, RandomRegularMatchesEdgeSweep) {
  lb::util::Rng rng(17);
  const Graph g = lb::graph::make_random_regular(3000, 6, rng);
  ASSERT_GT(cut_fraction(g, 1024), 0.5);  // most edges cross blocks
  bool skips_a_block = false;             // some cut edge jumps block 0 -> 2
  for (const lb::graph::Edge& e : g.edges()) skips_a_block |= e.v / 1024 > e.u / 1024 + 1;
  ASSERT_TRUE(skips_a_block);
  // 1024 plus one random width below n (rounded up to a chunk multiple).
  const long long random_width = randomized_widths(53, 1).back() % 3000 + 1;
  sweep_irregular(g, "regular(3000,6)", /*masked=*/true, 20, {1024, random_width});
}

TEST(BlockedRoundCutEdgeTest, ErdosRenyiMatchesEdgeSweep) {
  lb::util::Rng rng(19);
  const Graph g = lb::graph::make_erdos_renyi(2500, 0.004, rng);
  ASSERT_GT(cut_fraction(g, 1024), 0.5);
  sweep_irregular(g, "gnp(2500)", /*masked=*/false, 20, {1024, 2048});
}

TEST(BlockedRoundCutEdgeTest, BarbellMatchesEdgeSweep) {
  // n = 1040: nodes 1024..1039 of the second clique take ~500 incoming
  // cut edges each, interleaved in edge order with their own edges.
  const Graph g = lb::graph::make_barbell(520);
  sweep_irregular(g, "barbell(520)", /*masked=*/false, 8, {1024});
}

// --------------------------------------------- signed zeros and StepStats

bool all_negative_zero(const std::vector<double>& load) {
  for (const double v : load) {
    if (v != 0.0 || !std::signbit(v)) return false;
  }
  return true;
}

TEST(BlockedRoundTest, NegativeZeroLoadsKeepTheirBits) {
  // Every flow on an all −0.0 vector is zero, and a zero flow must leave
  // its endpoints untouched — −0.0 must not turn into +0.0.  Run on the
  // torus (the stencil, unmasked) and on its twin (the CSR round).
  const Graph torus = lb::graph::make_torus2d(48, 48);  // n = 2304: three chunks
  EngineConfig cfg;
  cfg.max_rounds = 5;
  cfg.target_potential = -1.0;  // Φ = 0 must not end the run
  cfg.stall_rounds = 0;
  const std::vector<MakeBalancer<double>> balancers = {
      [] { return lb::core::make_diffusion_continuous(); },
      [] { return lb::core::make_fos_continuous(); },
  };
  for (const long long width : {0LL, 1024LL}) {
    BlockWidthGuard guard(width);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      lb::util::ThreadPool pool(threads);
      cfg.pool = &pool;
      for (const auto& [label, g] : with_csr_twin(torus)) {
        for (const bool masked : {false, true}) {
          for (const MakeBalancer<double>& make : balancers) {
            auto alg = make();
            auto seq = masked ? lb::graph::make_bernoulli_sequence(g, 0.8, 3)
                              : lb::graph::make_static_sequence(g);
            std::vector<double> load(g.num_nodes(), -0.0);
            const RunResult run = lb::core::run(*alg, *seq, load, cfg);
            SCOPED_TRACE(label + "/" + alg->name() + "/w" + std::to_string(width) + "/pool" +
                         std::to_string(pool.size()) + (masked ? "/masked" : ""));
            EXPECT_EQ(run.rounds, cfg.max_rounds);
            EXPECT_TRUE(all_negative_zero(load));
          }
        }
      }
    }
  }
}

/// StepStats::transferred under the fixed-chunk contract, computed by
/// hand: Σ|f| per 1024-node chunk of each edge's lower endpoint, in edge
/// order, then the chunk partials in chunk order.
double fixed_chunk_fold(const Graph& g, const std::vector<double>& flows) {
  std::vector<double> chunk(lb::core::summary_chunk_count(g.num_nodes()), 0.0);
  for (std::size_t k = 0; k < flows.size(); ++k) {
    chunk[g.edges()[k].u / lb::core::kSummaryChunkWidth] += std::fabs(flows[k]);
  }
  double total = 0.0;
  for (const double c : chunk) total += c;
  return total;
}

TEST(BlockedRoundTest, TransferredIsTheFixedChunkFold) {
  lb::util::Rng rng(61);
  const Graph g = lb::graph::make_random_regular(3000, 4, rng);
  lb::util::Rng wrng(67);
  const auto load0 = lb::workload::bimodal<double>(g.num_nodes(), 3.0e6, wrng);

  // The hand oracle: the seed's flows and edge sweep, round by round.
  constexpr std::size_t kRounds = 12;
  std::vector<double> expected;
  {
    std::vector<double> load = load0;
    std::vector<double> flows;
    for (std::size_t r = 0; r < kRounds; ++r) {
      seed::diffusion_flows(g, load, {}, flows);
      expected.push_back(fixed_chunk_fold(g, flows));
      seed::apply_edge_sweep(g, flows, load);
    }
  }

  EngineConfig cfg;
  cfg.max_rounds = kRounds;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  const auto check = [&](const RunResult& run, const std::string& label) {
    SCOPED_TRACE(label);
    ASSERT_EQ(run.trace.size(), kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      const double got = run.trace[r].transferred;
      EXPECT_EQ(std::memcmp(&got, &expected[r], sizeof got), 0)
          << "round " << r + 1 << ": " << got << " vs " << expected[r];
    }
  };
  for (const long long width : {0LL, 1024LL, 2048LL}) {
    BlockWidthGuard guard(width);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      lb::util::ThreadPool pool(threads);
      cfg.pool = &pool;
      auto alg = lb::core::make_diffusion_continuous();
      std::vector<double> load = load0;
      check(lb::core::run_static(*alg, g, load, cfg),
            "w" + std::to_string(width) + "/pool" + std::to_string(pool.size()));
    }
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    lb::util::ThreadPool pool(2);
    cfg.pool = &pool;
    lb::shard::ShardConfig shard;
    shard.domains = k;
    auto alg = lb::core::make_diffusion_continuous();
    std::vector<double> load = load0;
    check(lb::shard::run_static(*alg, g, load, cfg, shard), "shardK" + std::to_string(k));
  }
}

// ------------------------------------------------- index-width adaptivity

TEST(IndexArrayTest, NarrowWideBoundary) {
  EXPECT_TRUE(IndexArray::fits_narrow(IndexArray::kNarrowMax));
  EXPECT_FALSE(IndexArray::fits_narrow(IndexArray::kNarrowMax + 1));

  IndexArray narrow;
  narrow.reset(4, IndexArray::kNarrowMax);
  EXPECT_EQ(narrow.size_bytes(), 4 * sizeof(std::uint32_t));
  narrow.set(2, IndexArray::kNarrowMax);
  EXPECT_EQ(narrow[2], IndexArray::kNarrowMax);

  // One past the uint32 ceiling: storage must widen and round-trip a
  // value that cannot be represented in 32 bits.  (The synthetic stand-in
  // for a 2m >= 2^32 graph, which no test-sized topology can reach.)
  IndexArray wide;
  wide.reset(4, IndexArray::kNarrowMax + 1);
  EXPECT_EQ(wide.size_bytes(), 4 * sizeof(std::uint64_t));
  wide.set(3, IndexArray::kNarrowMax + 1);
  EXPECT_EQ(wide[3], IndexArray::kNarrowMax + 1);
}

TEST(IndexArrayTest, ForcedWideMatchesNarrowContents) {
  std::vector<std::size_t> values = {0, 5, 17, 123456, 999};
  IndexArray narrow;
  narrow.assign_copy(values, 999999);
  EXPECT_EQ(narrow.size_bytes(), values.size() * sizeof(std::uint32_t));

  WideIndexGuard force_wide;
  IndexArray wide;
  wide.assign_copy(values, 999999);
  EXPECT_EQ(wide.size_bytes(), values.size() * sizeof(std::uint64_t));
  EXPECT_EQ(narrow.to_u64(), wide.to_u64());
}

/// The torus, its shape-less twin (the CSR blocked round) and the twin
/// less its last edge (irregular, so the factor rule reads per-edge
/// degrees), built under the caller's index-width setting.
std::vector<std::pair<std::string, Graph>> wide_test_graphs() {
  const Graph torus = lb::graph::make_torus2d(8, 8);
  std::vector<lb::graph::Edge> cut = torus.edges();
  cut.pop_back();
  std::vector<std::pair<std::string, Graph>> graphs = with_csr_twin(torus);
  graphs.emplace_back("irregular", lb::graph::subgraph_with_edges(torus, cut, "irregular"));
  return graphs;
}

TEST(IndexArrayTest, WideGraphStorageIsBitIdenticalToNarrow) {
  const auto narrow_graphs = wide_test_graphs();
  lb::util::Rng wrng(29);
  const auto load0 = lb::workload::bimodal<double>(64, 6400.0, wrng);

  EngineConfig cfg;
  cfg.max_rounds = 30;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  lb::util::ThreadPool pool(1);
  cfg.pool = &pool;

  auto run_once = [&](const Graph& g) {
    auto alg = lb::core::make_diffusion_continuous();
    auto seq = lb::graph::make_static_view(g);
    std::vector<double> load = load0;
    return lb::core::run(*alg, *seq, load, cfg);
  };
  std::vector<RunResult> narrow_runs;
  for (const auto& [label, g] : narrow_graphs) narrow_runs.push_back(run_once(g));

  WideIndexGuard force_wide;
  const auto wide_graphs = wide_test_graphs();
  ASSERT_EQ(wide_graphs.size(), narrow_graphs.size());
  for (std::size_t i = 0; i < wide_graphs.size(); ++i) {
    const auto& [label, wide_g] = wide_graphs[i];
    const Graph& narrow_g = narrow_graphs[i].second;
    SCOPED_TRACE(label);
    EXPECT_GT(wide_g.memory_bytes(), narrow_g.memory_bytes());
    ASSERT_EQ(wide_g.num_edges(), narrow_g.num_edges());
    for (std::size_t u = 0; u < wide_g.num_nodes(); ++u) {
      const auto a = narrow_g.neighbors(static_cast<lb::graph::NodeId>(u));
      const auto b = wide_g.neighbors(static_cast<lb::graph::NodeId>(u));
      ASSERT_EQ(a.size(), b.size()) << u;
      for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
    }
    expect_identical(narrow_runs[i], run_once(wide_g), label + " wide-index run");
  }
}

// ------------------------------------------------- streaming generators

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t k = 0; k < a.num_edges(); ++k) {
    EXPECT_EQ(a.edges()[k].u, b.edges()[k].u) << "edge " << k;
    EXPECT_EQ(a.edges()[k].v, b.edges()[k].v) << "edge " << k;
  }
  for (std::size_t u = 0; u < a.num_nodes(); ++u) {
    const auto an = a.neighbors(static_cast<lb::graph::NodeId>(u));
    const auto bn = b.neighbors(static_cast<lb::graph::NodeId>(u));
    ASSERT_EQ(an.size(), bn.size()) << "node " << u;
    for (std::size_t i = 0; i < an.size(); ++i) {
      EXPECT_EQ(an[i], bn[i]) << "node " << u << " slot " << i;
    }
  }
}

TEST(StreamingBuildTest, Torus2dMatchesAddEdgePath) {
  const std::size_t a = 6, b = 7;
  lb::graph::GraphBuilder builder(a * b, "oracle");
  for (std::size_t r = 0; r < a; ++r) {
    for (std::size_t c = 0; c < b; ++c) {
      const auto u = static_cast<lb::graph::NodeId>(r * b + c);
      const auto right = static_cast<lb::graph::NodeId>(r * b + (c + 1) % b);
      const auto down = static_cast<lb::graph::NodeId>(((r + 1) % a) * b + c);
      builder.add_edge(u, right);
      builder.add_edge(u, down);
    }
  }
  expect_same_graph(builder.build(), lb::graph::make_torus2d(a, b));
}

TEST(StreamingBuildTest, Torus3dMatchesAddEdgePath) {
  const std::size_t a = 3, b = 4, c = 5;
  lb::graph::GraphBuilder builder(a * b * c, "oracle");
  auto id = [&](std::size_t x, std::size_t y, std::size_t z) {
    return static_cast<lb::graph::NodeId>((x * b + y) * c + z);
  };
  for (std::size_t x = 0; x < a; ++x)
    for (std::size_t y = 0; y < b; ++y)
      for (std::size_t z = 0; z < c; ++z) {
        builder.add_edge(id(x, y, z), id((x + 1) % a, y, z));
        builder.add_edge(id(x, y, z), id(x, (y + 1) % b, z));
        builder.add_edge(id(x, y, z), id(x, y, (z + 1) % c));
      }
  expect_same_graph(builder.build(), lb::graph::make_torus3d(a, b, c));
}

TEST(StreamingBuildTest, HypercubeMatchesAddEdgePath) {
  const std::size_t d = 6;
  const std::size_t n = std::size_t{1} << d;
  lb::graph::GraphBuilder builder(n, "oracle");
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t bit = 0; bit < d; ++bit) {
      const std::size_t v = u ^ (std::size_t{1} << bit);
      if (u < v) {
        builder.add_edge(static_cast<lb::graph::NodeId>(u),
                         static_cast<lb::graph::NodeId>(v));
      }
    }
  }
  expect_same_graph(builder.build(), lb::graph::make_hypercube(d));
}

// ------------------------------------------------------- spectral guard

TEST(SpectralGuardTest, GuardedQuantitiesDegradeDeterministically) {
  const Graph g = lb::graph::make_torus2d(8, 8);  // n = 64
  SpectralCeilingGuard ceiling(16);               // 64 > 16: guard active
  EXPECT_EQ(lb::linalg::max_spectral_n(), 16u);
  EXPECT_TRUE(lb::linalg::spectral_guard_active(g.num_nodes()));
  EXPECT_FALSE(lb::linalg::spectral_guard_active(16));

  EXPECT_EQ(lb::linalg::lambda2(g), 0.0);
  EXPECT_EQ(lb::linalg::diffusion_gamma(g), 0.0);
  const lb::linalg::SpectralSummary s = lb::linalg::spectral_summary(g);
  EXPECT_EQ(s.lambda2, 0.0);
  EXPECT_EQ(s.lambda_max, 0.0);
  EXPECT_EQ(s.gamma, 0.0);
  EXPECT_EQ(s.eigen_gap, 1.0);
  EXPECT_EQ(s.n, g.num_nodes());
}

TEST(SpectralGuardTest, ProfileRecordsSkipsAndRunReportsThem) {
  const Graph g = lb::graph::make_torus2d(8, 8);
  const std::size_t rounds = 5;

  SpectralCeilingGuard ceiling(16);
  auto seq = lb::graph::make_static_sequence(g);
  const lb::core::DynamicSpectralProfile profile =
      lb::core::profile_sequence(*seq, rounds);
  EXPECT_EQ(profile.spectral_skipped_rounds, rounds);
  ASSERT_EQ(profile.lambda2_per_round.size(), rounds);
  for (const double l2 : profile.lambda2_per_round) EXPECT_EQ(l2, 0.0);

  auto balancer = lb::core::make_diffusion_continuous();
  auto run_seq = lb::graph::make_static_sequence(g);
  std::vector<double> load = lb::workload::two_spikes<double>(64, 6400.0);
  const lb::core::DynamicRunResult out =
      lb::core::run_dynamic(*balancer, *run_seq, std::move(load), rounds, 0.01);
  EXPECT_TRUE(out.run.spectral_skipped);
  EXPECT_EQ(out.profile.spectral_skipped_rounds, rounds);
}

TEST(SpectralGuardTest, UnguardedRunsDoNotReportSkips) {
  const Graph g = lb::graph::make_torus2d(4, 4);  // n = 16, below any ceiling
  auto balancer = lb::core::make_diffusion_continuous();
  auto seq = lb::graph::make_static_sequence(g);
  std::vector<double> load = lb::workload::two_spikes<double>(16, 1600.0);
  const lb::core::DynamicRunResult out =
      lb::core::run_dynamic(*balancer, *seq, std::move(load), 4, 0.01);
  EXPECT_FALSE(out.run.spectral_skipped);
  EXPECT_EQ(out.profile.spectral_skipped_rounds, 0u);
}

}  // namespace
