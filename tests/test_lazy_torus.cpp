// The lazily filled torus (DESIGN.md §9.1): make_torus2d makes a graph
// that knows its counts, degrees, revision, name and shape, and fills its
// CSR arrays on the first call that reads adjacency.  These tests hold
// every accessor of such a graph to an eager GraphBuilder build of the
// same edges, show that copies share one fill, that stencil-only runs
// never fill, that concurrent first calls from pool workers fill once,
// and pin the allocation counts of making, filling and copying graphs.
// The allocation counter replaces the global operator new, which is why
// this is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "lb/check/invariants.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/generators.hpp"
#include "lb/graph/graph.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/index_array.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"

namespace {

using lb::graph::Edge;
using lb::graph::Graph;
using lb::graph::NodeId;

struct WideIndexGuard {
  WideIndexGuard() { lb::util::set_force_wide_indices(true); }
  ~WideIndexGuard() { lb::util::set_force_wide_indices(false); }
};

/// The torus's edges added in grid order, neither sorted nor canonical,
/// and built by GraphBuilder: the eager reference.
Graph eager_torus(std::size_t rows, std::size_t cols) {
  lb::graph::GraphBuilder b(rows * cols, "eager");
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto u = static_cast<NodeId>(r * cols + c);
      b.add_edge(u, static_cast<NodeId>(r * cols + (c + 1) % cols));
      b.add_edge(u, static_cast<NodeId>(((r + 1) % rows) * cols + c));
    }
  }
  return b.build();
}

/// The adjacency-reading accessors; each may be a fresh torus's first call.
enum class FirstCall { kNeighbors, kEdges, kDegree, kHasEdge, kEdgeIndex };
constexpr FirstCall kFirstCalls[] = {FirstCall::kNeighbors, FirstCall::kEdges,
                                     FirstCall::kDegree, FirstCall::kHasEdge,
                                     FirstCall::kEdgeIndex};

void call(const Graph& g, FirstCall first) {
  const NodeId last = static_cast<NodeId>(g.num_nodes() - 1);
  switch (first) {
    case FirstCall::kNeighbors: (void)g.neighbors(last); break;
    case FirstCall::kEdges: (void)g.edges(); break;
    case FirstCall::kDegree: (void)g.degree(last); break;
    case FirstCall::kHasEdge: (void)g.has_edge(0, 1); break;
    case FirstCall::kEdgeIndex: (void)g.edge_index(0, last); break;
  }
}

/// Node pairs to probe has_edge and edge_index on: every edge, both
/// orientations, plus non-edges at a few fixed id distances.
std::vector<std::pair<NodeId, NodeId>> probe_pairs(const Graph& eager) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  const std::size_t n = eager.num_nodes();
  for (const Edge& e : eager.edges()) {
    pairs.emplace_back(e.u, e.v);
    pairs.emplace_back(e.v, e.u);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::size_t step : {std::size_t{0}, std::size_t{2}, n / 2, n - 3}) {
      pairs.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>((u + step) % n));
    }
  }
  return pairs;
}

/// Every accessor of `lazy` equals the eager build's.
void expect_same_graph(const Graph& lazy, const Graph& eager) {
  ASSERT_EQ(lazy.num_nodes(), eager.num_nodes());
  ASSERT_EQ(lazy.num_edges(), eager.num_edges());
  EXPECT_EQ(lazy.max_degree(), eager.max_degree());
  EXPECT_EQ(lazy.min_degree(), eager.min_degree());
  EXPECT_EQ(lazy.is_regular(), eager.is_regular());
  EXPECT_EQ(lazy.average_degree(), eager.average_degree());
  EXPECT_EQ(lazy.edges(), eager.edges());
  for (std::size_t u = 0; u < lazy.num_nodes(); ++u) {
    const auto id = static_cast<NodeId>(u);
    const auto a = lazy.neighbors(id);
    const auto b = eager.neighbors(id);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()), std::vector<NodeId>(b.begin(), b.end()))
        << "node " << u;
    ASSERT_EQ(lazy.degree(id), eager.degree(id)) << "node " << u;
  }
  for (const auto& [u, v] : probe_pairs(eager)) {
    ASSERT_EQ(lazy.has_edge(u, v), eager.has_edge(u, v)) << u << "-" << v;
    ASSERT_EQ(lazy.edge_index(u, v), eager.edge_index(u, v)) << u << "-" << v;
  }
  // Same arrays at the same width, so the same resident bytes.
  EXPECT_EQ(lazy.memory_bytes(), eager.memory_bytes());
}

constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
    {3, 3}, {3, 4}, {4, 3}, {5, 7}, {16, 16}, {17, 13}, {3, 1366}, {64, 80}};

void expect_accessors_match(bool wide) {
  for (const auto& [rows, cols] : kShapes) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << (wide ? " wide" : " narrow"));
    const Graph eager = eager_torus(rows, cols);
    for (const FirstCall first : kFirstCalls) {
      SCOPED_TRACE(static_cast<int>(first));
      const Graph lazy = lb::graph::make_torus2d(rows, cols);
      // Made, not filled: the counts and the shape are there already.
      EXPECT_EQ(lazy.memory_bytes(), 0u);
      EXPECT_EQ(lazy.num_nodes(), rows * cols);
      EXPECT_EQ(lazy.num_edges(), 2 * rows * cols);
      EXPECT_EQ(lazy.max_degree(), 4u);
      EXPECT_EQ(lazy.min_degree(), 4u);
      EXPECT_TRUE(lazy.is_regular());
      EXPECT_EQ(lazy.torus_shape().rows, rows);
      EXPECT_EQ(lazy.torus_shape().cols, cols);
      EXPECT_NE(lazy.revision(), 0u);
      call(lazy, first);
      EXPECT_GT(lazy.memory_bytes(), 0u);
      expect_same_graph(lazy, eager);
    }
  }
}

TEST(LazyTorusTest, AccessorsMatchEagerBuild) { expect_accessors_match(false); }

TEST(LazyTorusTest, AccessorsMatchEagerBuildWide) {
  WideIndexGuard force_wide;
  expect_accessors_match(true);
}

TEST(LazyTorusTest, IndexWidthIsFixedWhenMade) {
  const Graph eager_narrow = eager_torus(8, 8);
  Graph eager_wide;
  const Graph made_narrow = lb::graph::make_torus2d(8, 8);
  Graph made_wide;
  {
    WideIndexGuard force_wide;
    eager_wide = eager_torus(8, 8);
    made_wide = lb::graph::make_torus2d(8, 8);
    call(made_narrow, FirstCall::kEdges);  // filled while wide is forced
  }
  call(made_wide, FirstCall::kEdges);  // filled after the guard is gone
  ASSERT_GT(eager_wide.memory_bytes(), eager_narrow.memory_bytes());
  expect_same_graph(made_narrow, eager_narrow);
  expect_same_graph(made_wide, eager_wide);
}

TEST(LazyTorusTest, CopiesTakenBeforeTheFillShareIt) {
  const Graph g = lb::graph::make_torus2d(16, 16);
  const Graph copy = g;
  Graph assigned = lb::graph::make_cycle(5);
  assigned = g;
  EXPECT_EQ(copy.revision(), g.revision());
  EXPECT_EQ(assigned.revision(), g.revision());
  EXPECT_EQ(copy.memory_bytes(), 0u);

  const Edge* filled = copy.edges().data();  // the copy fills the shared arrays
  EXPECT_GT(g.memory_bytes(), 0u);
  EXPECT_EQ(g.memory_bytes(), copy.memory_bytes());
  EXPECT_EQ(g.edges().data(), filled);
  EXPECT_EQ(assigned.edges().data(), filled);
  EXPECT_EQ(g.neighbors(7).data(), copy.neighbors(7).data());
  EXPECT_EQ(g.name(), copy.name());
  EXPECT_EQ(copy.revision(), g.revision());
}

TEST(LazyTorusTest, EmptyGraphIsBuiltAndEmpty) {
  const Graph g;
  const Graph copy = g;
  EXPECT_EQ(copy.num_nodes(), 0u);
  EXPECT_EQ(copy.num_edges(), 0u);
  EXPECT_TRUE(copy.edges().empty());
  EXPECT_EQ(copy.memory_bytes(), 0u);
  EXPECT_EQ(copy.revision(), 0u);
  EXPECT_TRUE(copy.name().empty());
}

/// The final loads of a 20-round static run of `balancer` on `g` at
/// `pool`: `core::run_static`, or `shard::run_static` with K = 4.
template <class T>
std::vector<T> run_on(const Graph& g, lb::core::Balancer<T>& balancer,
                      lb::util::ThreadPool& pool, const std::vector<T>& load0, bool sharded) {
  lb::core::EngineConfig cfg;
  cfg.max_rounds = 20;
  cfg.target_potential = 0.0;
  cfg.record_trace = false;
  cfg.pool = &pool;
  std::vector<T> load = load0;
  if (sharded) {
    lb::shard::ShardConfig shard;
    shard.domains = 4;
    lb::shard::run_static(balancer, g, load, cfg, shard);
  } else {
    lb::core::run_static(balancer, g, load, cfg);
  }
  return load;
}

template <class T>
using MakeBalancer = std::function<std::unique_ptr<lb::core::Balancer<T>>()>;

/// Runs on a fresh torus leave it unfilled (the stencil reads only the
/// shape) with the same loads as on a filled one; LB_CHECK's shape check
/// reads the edge list, so a checked run fills it.
template <class T>
void expect_stencil_runs_leave_torus_unfilled(const MakeBalancer<T>& make,
                                              const std::vector<T>& load0) {
  const bool checking = lb::check::env_enabled();
  const Graph filled = lb::graph::make_torus2d(64, 64);
  call(filled, FirstCall::kEdges);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    lb::util::ThreadPool pool(threads);
    SCOPED_TRACE(testing::Message() << "pool " << pool.size());
    const Graph fresh = lb::graph::make_torus2d(64, 64);
    auto balancer = make();
    const std::vector<T> loads = run_on<T>(fresh, *balancer, pool, load0, false);
    EXPECT_EQ(fresh.memory_bytes() == 0, !checking);
    auto reference = make();
    EXPECT_EQ(loads, run_on<T>(filled, *reference, pool, load0, false));
  }
}

std::vector<double> real_load(std::size_t n) {
  lb::util::Rng rng(5);
  return lb::workload::bimodal<double>(n, 1000.0 * static_cast<double>(n), rng);
}

std::vector<std::int64_t> token_load(std::size_t n) {
  lb::util::Rng rng(7);
  return lb::workload::uniform_random<std::int64_t>(n, static_cast<std::int64_t>(1000 * n),
                                                    rng);
}

TEST(LazyTorusTest, StencilRunsLeaveTheCsrUnfilled) {
  const std::size_t n = 64 * 64;
  expect_stencil_runs_leave_torus_unfilled<double>(
      [] { return lb::core::make_diffusion_continuous(); }, real_load(n));
  expect_stencil_runs_leave_torus_unfilled<std::int64_t>(
      [] { return lb::core::make_diffusion_discrete(); }, token_load(n));
  expect_stencil_runs_leave_torus_unfilled<double>(
      [] { return lb::core::make_fos_continuous(); }, real_load(n));
  expect_stencil_runs_leave_torus_unfilled<double>([] { return lb::core::make_sos(1.5); },
                                                   real_load(n));
}

TEST(LazyTorusTest, ShardedRunFillsTheCsr) {
  const Graph fresh = lb::graph::make_torus2d(64, 64);
  const Graph filled = lb::graph::make_torus2d(64, 64);
  call(filled, FirstCall::kEdges);
  lb::util::ThreadPool pool(1);
  const auto load0 = real_load(fresh.num_nodes());
  auto balancer = lb::core::make_diffusion_continuous();
  const auto loads = run_on<double>(fresh, *balancer, pool, load0, true);
  EXPECT_EQ(fresh.memory_bytes(), filled.memory_bytes());
  auto reference = lb::core::make_diffusion_continuous();
  EXPECT_EQ(loads, run_on<double>(filled, *reference, pool, load0, true));
}

/// What one task saw of the graph, first call included.
struct Seen {
  const Edge* edges = nullptr;
  const NodeId* row = nullptr;
  std::size_t degree = 0;
  bool has_edge = false;
  std::size_t edge_index = 0;

  friend bool operator==(const Seen&, const Seen&) = default;
};

TEST(LazyTorusTest, ConcurrentFirstUseFillsOnce) {
  constexpr std::size_t kTasks = 8;
  // One fill's allocations, measured on a fresh torus from one thread.
  const Graph sequential = lb::graph::make_torus2d(64, 64);
  const long long one_fill = count_allocations([&] { call(sequential, FirstCall::kEdges); });
  EXPECT_EQ(one_fill, 4);  // the cursor, the offsets, the adjacency and the edge list

  lb::util::ThreadPool pool(kTasks);
  std::vector<Seen> seen(kTasks);
  for (int episode = 0; episode < 10; ++episode) {
    SCOPED_TRACE(episode);
    const Graph g = lb::graph::make_torus2d(64, 64);
    std::atomic<std::size_t> arrived{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> go{false};
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit([&, t] {
        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Every accessor leads in some task; then each task reads all five.
        call(g, kFirstCalls[t % std::size(kFirstCalls)]);
        seen[t] = Seen{g.edges().data(), g.neighbors(100).data(), g.degree(100),
                       g.has_edge(100, 101), g.edge_index(100, 164)};
        done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    // Every task is parked on a worker of its own before the clock starts.
    while (arrived.load(std::memory_order_acquire) < kTasks) std::this_thread::yield();
    const long long allocs = count_allocations([&] {
      go.store(true, std::memory_order_release);
      while (done.load(std::memory_order_acquire) < kTasks) std::this_thread::yield();
    });
    pool.wait_idle();
    EXPECT_EQ(allocs, one_fill);
    const Seen expected{g.edges().data(), g.neighbors(100).data(), 4, true,
                        g.edge_index(100, 164)};
    EXPECT_NE(expected.edge_index, g.num_edges());
    for (std::size_t t = 0; t < kTasks; ++t) EXPECT_EQ(seen[t], expected) << "task " << t;
    expect_same_graph(g, eager_torus(64, 64));
  }
}

TEST(LazyTorusTest, AllocationCountsArePinned) {
  // Making a torus allocates the holder every copy shares; its fill the
  // cursor and the three CSR arrays.  GraphBuilder::build allocates the
  // sort bucket (reused as the placement cursor), the sort scratch, the
  // holder, the offsets and the adjacency; subgraph_with_edges adds its
  // builder's edge list.  A copy allocates nothing.
  Graph torus;
  EXPECT_EQ(count_allocations([&] { torus = lb::graph::make_torus2d(64, 64); }), 1);
  EXPECT_EQ(count_allocations([&] { call(torus, FirstCall::kEdges); }), 4);

  lb::graph::GraphBuilder builder(torus.num_nodes(), "builder");
  builder.reserve_edges(torus.num_edges());
  for (const Edge& e : torus.edges()) builder.add_edge(e.u, e.v);
  Graph built;
  EXPECT_EQ(count_allocations([&] { built = builder.build(); }), 5);
  expect_same_graph(torus, built);

  Graph sub;
  EXPECT_EQ(count_allocations(
                [&] { sub = lb::graph::subgraph_with_edges(torus, torus.edges(), "twin"); }),
            6);
  EXPECT_EQ(sub.edges(), torus.edges());

  // A copy shares the holder, whatever the name's length.
  const Graph big = lb::graph::make_hypercube(10);
  ASSERT_GT(big.name().size(), 15u);  // past the short-string buffer
  EXPECT_EQ(count_allocations([&] {
              const Graph a = torus;
              const Graph b = big;
              Graph c;
              c = a;
            }),
            0);
}

}  // namespace
