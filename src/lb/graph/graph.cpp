#include "lb/graph/graph.hpp"

#include <algorithm>
#include <atomic>

#include "lb/util/assert.hpp"

namespace lb::graph {

namespace detail {

std::uint64_t next_graph_revision() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

std::span<const NodeId> Graph::neighbors(NodeId u) const {
  LB_ASSERT_MSG(u < num_nodes(), "node id out of range");
  const std::size_t begin = static_cast<std::size_t>(offsets_[u]);
  return {adjacency_.data() + begin, static_cast<std::size_t>(offsets_[u + 1]) - begin};
}

double Graph::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / static_cast<double>(num_nodes());
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes() || u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::size_t Graph::edge_index(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  const Edge key{u, v};
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), key);
  if (it == edges_.end() || *it != key) return edges_.size();
  return static_cast<std::size_t>(it - edges_.begin());
}

void Graph::finalize_degree_stats() {
  const std::size_t n = num_nodes();
  max_degree_ = 0;
  min_degree_ = n == 0 ? 0 : degree(0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t d = static_cast<std::size_t>(offsets_[u + 1] - offsets_[u]);
    max_degree_ = std::max(max_degree_, d);
    min_degree_ = std::min(min_degree_, d);
  }
}

GraphBuilder::GraphBuilder(std::size_t num_nodes, std::string name)
    : n_(num_nodes), name_(std::move(name)) {
  LB_ASSERT_MSG(num_nodes >= 1, "graph needs at least one node");
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  LB_ASSERT_MSG(!built_, "builder already consumed");
  LB_ASSERT_MSG(u < n_ && v < n_, "edge endpoint out of range");
  LB_ASSERT_MSG(u != v, "self-loops are not allowed");
  if (u > v) std::swap(u, v);
  edges_.push_back(Edge{u, v});
  return *this;
}

Graph GraphBuilder::build() {
  LB_ASSERT_MSG(!built_, "builder already consumed");
  built_ = true;

  // Canonical (u, v) order via LSD counting sort: a stable pass keyed on
  // v, then a stable pass keyed on u — two O(m + n) sweeps instead of the
  // seed's O(m log m) comparison sort, and the exact same final order.
  {
    std::vector<std::size_t> bucket(n_ + 1, 0);
    std::vector<Edge> tmp(edges_.size());
    for (const Edge& e : edges_) ++bucket[e.v + 1];
    for (std::size_t i = 1; i <= n_; ++i) bucket[i] += bucket[i - 1];
    for (const Edge& e : edges_) tmp[bucket[e.v]++] = e;
    std::fill(bucket.begin(), bucket.end(), 0);
    for (const Edge& e : tmp) ++bucket[e.u + 1];
    for (std::size_t i = 1; i <= n_; ++i) bucket[i] += bucket[i - 1];
    for (const Edge& e : tmp) edges_[bucket[e.u]++] = e;
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.revision_ = detail::next_graph_revision();
  g.name_ = std::move(name_);
  g.edges_ = std::move(edges_);
  const std::size_t slots = 2 * g.edges_.size();
  std::vector<std::size_t> cursor(n_ + 1, 0);
  for (const Edge& e : g.edges_) {
    ++cursor[e.u + 1];
    ++cursor[e.v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) cursor[i] += cursor[i - 1];
  g.offsets_.assign_copy(cursor, slots);
  g.adjacency_.resize(slots);
  // Cursor placement over the sorted edge list leaves every adjacency row
  // already sorted: row w first receives its lower neighbours x from the
  // edges (x, w) in ascending x, then its upper neighbours y from (w, y)
  // in ascending y, and every x < w < y — so the per-row sort the seed
  // ran here was redundant and is gone.
  for (const Edge& e : g.edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  g.finalize_degree_stats();
  return g;
}

Graph subgraph_with_edges(const Graph& g, const std::vector<Edge>& keep,
                          std::string name) {
  GraphBuilder b(g.num_nodes(), std::move(name));
  b.reserve_edges(keep.size());
  for (const Edge& e : keep) {
    LB_ASSERT_MSG(g.has_edge(e.u, e.v), "subgraph edge not present in parent graph");
    b.add_edge(e.u, e.v);
  }
  return b.build();
}

}  // namespace lb::graph
