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

Graph::Shared& Graph::empty_shared() {
  static Shared empty(/*built_now=*/true);
  return empty;
}

// Non-owning: every empty graph points at the one static holder.
Graph::Graph() : shared_(std::shared_ptr<Shared>(), &empty_shared()) {}

Graph::Graph(std::size_t num_nodes, std::string name)
    : n_(num_nodes), revision_(detail::next_graph_revision()),
      shared_(std::make_shared<Shared>()) {
  shared_->wide_indices = util::force_wide_indices();
  shared_->name = std::move(name);
}

void Graph::fill_csr() const {
  Shared& s = *shared_;
  const std::lock_guard<std::mutex> lock(s.fill_mutex);
  if (s.built.load(std::memory_order_relaxed)) return;  // another caller filled it
  LB_ASSERT_MSG(s.fill != nullptr, "graph has no CSR to fill");
  s.fill(*this, s);
  LB_ASSERT_MSG(s.offsets.size() == n_ + 1 && s.edges.size() == m_,
                "CSR fill disagrees with the graph's recorded counts");
  s.built.store(true, std::memory_order_release);
}

void Graph::finish_build() {
  Shared& s = *shared_;
  m_ = s.edges.size();
  max_degree_ = 0;
  min_degree_ = n_ == 0 ? 0 : static_cast<std::size_t>(s.offsets[1] - s.offsets[0]);
  for (std::size_t u = 0; u < n_; ++u) {
    const std::size_t d = static_cast<std::size_t>(s.offsets[u + 1] - s.offsets[u]);
    max_degree_ = std::max(max_degree_, d);
    min_degree_ = std::min(min_degree_, d);
  }
  s.built.store(true, std::memory_order_release);
}

std::span<const NodeId> Graph::neighbors(NodeId u) const {
  LB_ASSERT_MSG(u < num_nodes(), "node id out of range");
  const Shared& s = csr();
  const std::size_t begin = static_cast<std::size_t>(s.offsets[u]);
  return {s.adjacency.data() + begin, static_cast<std::size_t>(s.offsets[u + 1]) - begin};
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
  const std::vector<Edge>& edges = csr().edges;
  const auto it = std::lower_bound(edges.begin(), edges.end(), key);
  if (it == edges.end() || *it != key) return edges.size();
  return static_cast<std::size_t>(it - edges.begin());
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
  std::vector<std::size_t> bucket(n_ + 1, 0);
  {
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

  Graph g(n_, std::move(name_));
  Graph::Shared& s = *g.shared_;
  s.edges = std::move(edges_);
  const std::size_t slots = 2 * s.edges.size();
  // The sort's bucket array, zeroed, becomes the placement cursor.
  std::vector<std::size_t>& cursor = bucket;
  std::fill(cursor.begin(), cursor.end(), 0);
  for (const Edge& e : s.edges) {
    ++cursor[e.u + 1];
    ++cursor[e.v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) cursor[i] += cursor[i - 1];
  s.offsets.assign_copy(cursor, slots, s.wide_indices);
  s.adjacency.resize(slots);
  // Cursor placement over the sorted edge list leaves every adjacency row
  // already sorted: row w first receives its lower neighbours x from the
  // edges (x, w) in ascending x, then its upper neighbours y from (w, y)
  // in ascending y, and every x < w < y — so the per-row sort the seed
  // ran here was redundant and is gone.
  for (const Edge& e : s.edges) {
    s.adjacency[cursor[e.u]++] = e.v;
    s.adjacency[cursor[e.v]++] = e.u;
  }
  g.finish_build();
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
