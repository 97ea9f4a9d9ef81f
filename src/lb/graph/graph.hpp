// Immutable undirected graph in CSR adjacency form.
//
// This is the "network" substrate of the paper: n identical nodes joined
// by edges along which tokens may move.  Graphs are built once (via
// GraphBuilder or the generators) and never mutated; dynamic networks are
// modelled as *sequences* of these immutable graphs (graph/dynamic.hpp),
// exactly as in the Elsässer et al. model the paper adopts in Section 5.
//
// Memory layout (DESIGN.md §9): the CSR offsets live in a width-adaptive
// util::IndexArray — uint32 whenever the incident-slot count 2m fits,
// uint64 past the 2^32 boundary — and adjacency/edge storage is uint32
// NodeIds throughout, so a 4-regular torus costs 36 bytes/node of
// topology (4 of offsets, 16 of adjacency, 16 of edge list) instead of
// the seed's size_t-heavy layout.
//
// Construction (DESIGN.md §9.1): every generator but make_torus2d fills
// the arrays when it makes the graph.  A make_torus2d graph is made with
// everything a stencil round reads — n, m, its degrees, revision, name
// and shape — and fills its arrays from the closed-form emission on the
// first call that reads adjacency, so a stencil-only run never holds
// them.  The arrays live in one holder that every copy shares.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lb/util/assert.hpp"
#include "lb/util/index_array.hpp"

namespace lb::graph {

using NodeId = std::uint32_t;

/// An undirected edge; canonical form has u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

namespace detail {
/// Process-unique nonzero topology-epoch ids (see Graph::revision()).
std::uint64_t next_graph_revision();
}  // namespace detail

/// Row/column shape of a graph built by make_torus2d(rows, cols): node
/// r·cols + c is joined to its four wrap-around grid neighbours, and the
/// edge list is the generator's closed-form emission.  Empty (0 × 0) on
/// every other graph.
struct TorusShape {
  std::size_t rows = 0;
  std::size_t cols = 0;

  bool empty() const { return rows == 0; }
};

class Graph {
 public:
  /// The empty graph: no nodes, revision 0.
  Graph();
  /// Copies share the CSR holder and the revision, so a copy (a move is
  /// one) allocates nothing and every copy stays a valid graph.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;

  std::size_t num_nodes() const { return n_; }
  std::size_t num_edges() const { return m_; }

  /// Neighbours of node u (sorted ascending).  Reads adjacency: the first
  /// such call on a make_torus2d graph fills its CSR (the same for
  /// degree, edges, has_edge and edge_index).
  std::span<const NodeId> neighbors(NodeId u) const;

  /// Degree of node u.  Inline: the per-edge denominator fills and the
  /// per-round flow rules call it once per endpoint.
  std::size_t degree(NodeId u) const {
    LB_ASSERT_MSG(u < num_nodes(), "node id out of range");
    const Shared& s = csr();
    return static_cast<std::size_t>(s.offsets[u + 1] - s.offsets[u]);
  }
  /// Maximum degree δ of the graph (0 for edgeless graphs).  This and
  /// the other counts below never fill a CSR.
  std::size_t max_degree() const { return max_degree_; }
  std::size_t min_degree() const { return min_degree_; }
  double average_degree() const;

  /// All edges in canonical (u < v) order, sorted lexicographically.
  const std::vector<Edge>& edges() const { return csr().edges; }

  bool has_edge(NodeId u, NodeId v) const;

  /// True if every degree equals d.
  bool is_regular() const { return max_degree_ == min_degree_; }

  /// Human-readable label attached by the generator ("torus2d(16x16)" etc).
  const std::string& name() const { return shared_->name; }

  /// The 2-D torus shape make_torus2d recorded, or an empty shape.  Only
  /// that generator sets it, so it always describes this edge list:
  /// copies keep it, and GraphBuilder, subgraph_with_edges (and with it
  /// every materialized masked view) and the other generators build
  /// graphs without one.  The torus stencil round (DESIGN.md §9.6) runs
  /// on graphs that have one.
  const TorusShape& torus_shape() const { return torus_shape_; }

  /// Topology epoch: a process-unique nonzero id assigned at build time
  /// (0 only for default-constructed empty graphs).  Copies share the id —
  /// they are the same topology — while every GraphBuilder::build() mints
  /// a fresh one, so caches keyed on revision() (e.g. core::FlowLedger)
  /// stay correct even when a dynamic sequence rebuilds its current graph
  /// in place at the same address.
  std::uint64_t revision() const { return revision_; }

  /// Index of canonical edge (u,v) in edges(), or num_edges() if absent.
  std::size_t edge_index(NodeId u, NodeId v) const;

  /// Resident bytes of the topology arrays (offsets + adjacency + edge
  /// list) — the numerator of the bytes/node scale metric.  0 for a
  /// make_torus2d graph whose CSR no call has filled yet.
  std::size_t memory_bytes() const {
    const Shared& s = *shared_;
    if (!s.built.load(std::memory_order_acquire)) return 0;
    return s.offsets.size_bytes() + s.adjacency.size() * sizeof(NodeId) +
           s.edges.size() * sizeof(Edge);
  }

 private:
  friend class GraphBuilder;
  friend Graph make_torus2d(std::size_t a, std::size_t b);

  /// What every copy shares: the label and the CSR arrays.  The arrays
  /// are written once — when the graph is made, or by `fill` on first
  /// use, under `fill_mutex` — and `built` is released after them.
  struct Shared {
    explicit Shared(bool built_now = false) : built(built_now) {}

    std::atomic<bool> built;
    bool wide_indices = false;  // the offsets' width, fixed when the graph is made
    void (*fill)(const Graph&, Shared&) = nullptr;
    std::mutex fill_mutex;
    std::string name;
    util::IndexArray offsets;        // CSR offsets, n+1 entries (narrow when 2m < 2^32)
    std::vector<NodeId> adjacency;   // concatenated sorted neighbour lists
    std::vector<Edge> edges;         // canonical edge list
  };

  /// A graph on `num_nodes` nodes with a fresh revision and no arrays.
  Graph(std::size_t num_nodes, std::string name);
  /// The empty graph's holder: built, empty and never written.
  static Shared& empty_shared();

  /// The CSR arrays: one acquire load and a predicted branch once built.
  const Shared& csr() const {
    const Shared& s = *shared_;
    if (!s.built.load(std::memory_order_acquire)) [[unlikely]] fill_csr();
    return s;
  }
  [[gnu::cold, gnu::noinline]] void fill_csr() const;

  /// Shared tail of the eager builds: m and the degree extrema from the
  /// filled arrays, then mark them built.
  void finish_build();

  /// The streaming CSR fill (GraphBuilder::build_stream's contract):
  /// `emit` runs twice, count pass then place pass.  A lexicographic
  /// stream lands the edge list in order and every adjacency row sorted,
  /// with one n+1 cursor array as the only temporary.
  template <class EmitFn>
  static void fill_stream(Shared& s, std::size_t num_nodes, EmitFn&& emit) {
    // Pass 1: CSR degree per endpoint.
    std::vector<std::size_t> cursor(num_nodes + 1, 0);
    std::size_t m = 0;
#ifndef NDEBUG
    NodeId prev_u = 0;
    NodeId prev_v = 0;
#endif
    emit([&](NodeId u, NodeId v) {
      LB_DEBUG_ASSERT(u < v && v < num_nodes);
#ifndef NDEBUG
      LB_ASSERT_MSG(m == 0 || u > prev_u || (u == prev_u && v > prev_v),
                    "build_stream emission must be lexicographic");
      prev_u = u;
      prev_v = v;
#endif
      ++cursor[u + 1];
      ++cursor[v + 1];
      ++m;
    });
    for (std::size_t i = 1; i <= num_nodes; ++i) cursor[i] += cursor[i - 1];
    s.offsets.assign_copy(cursor, 2 * m, s.wide_indices);
    s.edges.resize(m);
    s.adjacency.resize(2 * m);

    // Pass 2: place.  The sorted emission lands the edge list in
    // canonical order as it comes, and each adjacency row receives its
    // lower neighbours (x, w) in ascending x before its upper neighbours
    // (w, y) in ascending y with every x < w < y — sorted rows, no sort.
    std::size_t placed = 0;
    emit([&](NodeId u, NodeId v) {
      LB_DEBUG_ASSERT(placed < m);
      s.edges[placed++] = Edge{u, v};
      s.adjacency[cursor[u]++] = v;
      s.adjacency[cursor[v]++] = u;
    });
    LB_ASSERT_MSG(placed == m, "build_stream passes emitted different streams");
  }

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t max_degree_ = 0;
  std::size_t min_degree_ = 0;
  std::uint64_t revision_ = 0;
  TorusShape torus_shape_;
  std::shared_ptr<Shared> shared_;
};

/// Accumulates edges, validates them, and produces an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes, std::string name = "graph");

  /// Add an undirected edge.  Self-loops are rejected; duplicate edges are
  /// coalesced at build time (the paper's model has simple graphs).
  GraphBuilder& add_edge(NodeId u, NodeId v);

  /// Pre-size the edge accumulator; generators that know their edge count
  /// call this so add_edge never reallocates mid-build.
  GraphBuilder& reserve_edges(std::size_t edge_count) {
    edges_.reserve(edge_count);
    return *this;
  }

  std::size_t num_nodes() const { return n_; }

  /// Build the immutable graph.  May be called once.  Edges are put in
  /// canonical order by a two-pass counting sort (stable by v, then by u)
  /// — O(m + n) instead of the comparison sort — and the cursor placement
  /// of the sorted edge list (the sort's bucket array, reused) emits each
  /// adjacency row already sorted, so no per-row sort runs at all.
  Graph build();

  /// Streaming build: construct a Graph directly from an edge *stream*
  /// without accumulating an intermediate edge vector.  `emit` is invoked
  /// exactly twice with a sink callable and must produce the identical
  /// stream both times (count pass, then place pass).  The stream
  /// contract: sink(u, v) with u < v < num_nodes, u non-decreasing across
  /// calls, v strictly ascending within each u group, no duplicates —
  /// i.e. the canonical lexicographic edge order, which the structured
  /// generators (torus2d/3d, hypercube) can emit closed-form.  Both the
  /// edge list and every adjacency row then land sorted with no sort and
  /// no temporary beyond one n+1 cursor array.
  template <class EmitFn>
  static Graph build_stream(std::size_t num_nodes, std::string name, EmitFn&& emit) {
    LB_ASSERT_MSG(num_nodes >= 1, "graph needs at least one node");
    Graph g(num_nodes, std::move(name));
    Graph::fill_stream(*g.shared_, num_nodes, emit);
    g.finish_build();
    return g;
  }

 private:
  std::size_t n_;
  std::string name_;
  std::vector<Edge> edges_;
  bool built_ = false;
};

/// Restrict `g` to the given subset of its edges (same node set); used by
/// the dynamic-network sequences.  `name` labels the result.
Graph subgraph_with_edges(const Graph& g, const std::vector<Edge>& keep,
                          std::string name);

}  // namespace lb::graph
