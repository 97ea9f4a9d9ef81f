#include "lb/graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "lb/graph/properties.hpp"
#include "lb/util/assert.hpp"

namespace lb::graph {

namespace {

std::string sized_name(const char* family, std::size_t n) {
  std::ostringstream os;
  os << family << "(" << n << ")";
  return os.str();
}

}  // namespace

Graph make_path(std::size_t n) {
  GraphBuilder b(n, sized_name("path", n));
  b.reserve_edges(n > 0 ? n - 1 : 0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return b.build();
}

Graph make_cycle(std::size_t n) {
  LB_ASSERT_MSG(n >= 3, "cycle needs at least 3 nodes");
  GraphBuilder b(n, sized_name("cycle", n));
  b.reserve_edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return b.build();
}

Graph make_complete(std::size_t n) {
  LB_ASSERT_MSG(n >= 2, "complete graph needs at least 2 nodes");
  GraphBuilder b(n, sized_name("complete", n));
  b.reserve_edges(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
  return b.build();
}

Graph make_star(std::size_t n) {
  LB_ASSERT_MSG(n >= 2, "star needs at least 2 nodes");
  GraphBuilder b(n, sized_name("star", n));
  b.reserve_edges(n - 1);
  for (std::size_t i = 1; i < n; ++i) b.add_edge(0, static_cast<NodeId>(i));
  return b.build();
}

Graph make_wheel(std::size_t n) {
  LB_ASSERT_MSG(n >= 4, "wheel needs at least 4 nodes");
  GraphBuilder b(n, sized_name("wheel", n));
  b.reserve_edges(2 * (n - 1));
  const std::size_t rim = n - 1;  // nodes 1..n-1 form the cycle, 0 is the hub
  for (std::size_t i = 0; i < rim; ++i) {
    b.add_edge(static_cast<NodeId>(1 + i), static_cast<NodeId>(1 + (i + 1) % rim));
    b.add_edge(0, static_cast<NodeId>(1 + i));
  }
  return b.build();
}

Graph make_binary_tree(std::size_t n) {
  LB_ASSERT_MSG(n >= 1, "tree needs at least one node");
  GraphBuilder b(n, sized_name("tree", n));
  b.reserve_edges(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    b.add_edge(static_cast<NodeId>((i - 1) / 2), static_cast<NodeId>(i));
  }
  return b.build();
}

Graph make_grid2d(std::size_t a, std::size_t b) {
  LB_ASSERT_MSG(a >= 1 && b >= 1, "grid sides must be positive");
  std::ostringstream name;
  name << "grid2d(" << a << "x" << b << ")";
  GraphBuilder builder(a * b, name.str());
  builder.reserve_edges(a * (b - 1) + (a - 1) * b);
  auto id = [b](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * b + c);
  };
  for (std::size_t r = 0; r < a; ++r) {
    for (std::size_t c = 0; c < b; ++c) {
      if (c + 1 < b) builder.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < a) builder.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return builder.build();
}

// The big regular families build through GraphBuilder::build_stream: each
// node emits its canonical upper neighbours (v > u) in closed form and in
// ascending order, so the whole CSR assembles in two streaming passes with
// no intermediate edge vector and no sorting anywhere.  The 2-D torus
// runs the same fill, on the first call that reads its adjacency.

Graph make_torus2d(std::size_t a, std::size_t b) {
  LB_ASSERT_MSG(a >= 3 && b >= 3, "torus sides must be >= 3 (simple graph)");
  std::ostringstream name;
  name << "torus2d(" << a << "x" << b << ")";
  Graph g(a * b, name.str());
  // Sides >= 3 give every node four distinct neighbours: m = 2n, degree 4.
  g.m_ = 2 * a * b;
  g.max_degree_ = 4;
  g.min_degree_ = 4;
  g.torus_shape_ = TorusShape{a, b};
  g.shared_->fill = [](const Graph& torus, Graph::Shared& s) {
    const std::size_t rows = torus.torus_shape().rows;
    const std::size_t cols = torus.torus_shape().cols;
    // Upper neighbours of u = (r, c), in ascending id order (sides >= 3
    // make the four offsets 1 < cols-1 < cols < (rows-1)cols strictly
    // ordered): right (c+1 < cols), wrap-right owned by the row head
    // (c == 0), down (r+1 < rows), wrap-down owned by the column head
    // (r == 0).
    Graph::fill_stream(s, torus.num_nodes(), [rows, cols](auto&& sink) {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          const std::size_t u = r * cols + c;
          const auto uid = static_cast<NodeId>(u);
          if (c + 1 < cols) sink(uid, static_cast<NodeId>(u + 1));
          if (c == 0) sink(uid, static_cast<NodeId>(u + cols - 1));
          if (r + 1 < rows) sink(uid, static_cast<NodeId>(u + cols));
          if (r == 0) sink(uid, static_cast<NodeId>(u + (rows - 1) * cols));
        }
      }
    });
  };
  return g;
}

Graph make_torus3d(std::size_t a, std::size_t b, std::size_t c) {
  LB_ASSERT_MSG(a >= 3 && b >= 3 && c >= 3, "torus sides must be >= 3");
  std::ostringstream name;
  name << "torus3d(" << a << "x" << b << "x" << c << ")";
  // Same closed-form upper-neighbour emission as the 2d torus, one axis
  // pair at a time; sides >= 3 order the six offsets
  // 1 < c-1 < c < (b-1)c < bc < (a-1)bc strictly.
  auto emit = [a, b, c](auto&& sink) {
    for (std::size_t x = 0; x < a; ++x)
      for (std::size_t y = 0; y < b; ++y)
        for (std::size_t z = 0; z < c; ++z) {
          const std::size_t u = (x * b + y) * c + z;
          const auto uid = static_cast<NodeId>(u);
          if (z + 1 < c) sink(uid, static_cast<NodeId>(u + 1));
          if (z == 0) sink(uid, static_cast<NodeId>(u + c - 1));
          if (y + 1 < b) sink(uid, static_cast<NodeId>(u + c));
          if (y == 0) sink(uid, static_cast<NodeId>(u + (b - 1) * c));
          if (x + 1 < a) sink(uid, static_cast<NodeId>(u + b * c));
          if (x == 0) sink(uid, static_cast<NodeId>(u + (a - 1) * b * c));
        }
  };
  return GraphBuilder::build_stream(a * b * c, name.str(), emit);
}

Graph make_hypercube(std::size_t dimensions) {
  LB_ASSERT_MSG(dimensions >= 1 && dimensions < 31, "hypercube dimension out of range");
  const std::size_t n = std::size_t{1} << dimensions;
  std::ostringstream name;
  name << "hypercube(d=" << dimensions << ",n=" << n << ")";
  // Upper neighbours of u are u | (1 << bit) over u's zero bits, ascending
  // in bit — already ascending in id.
  auto emit = [n, dimensions](auto&& sink) {
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t bit = 0; bit < dimensions; ++bit) {
        const std::size_t v = u | (std::size_t{1} << bit);
        if (v != u) sink(static_cast<NodeId>(u), static_cast<NodeId>(v));
      }
    }
  };
  return GraphBuilder::build_stream(n, name.str(), emit);
}

Graph make_de_bruijn(std::size_t dimensions) {
  LB_ASSERT_MSG(dimensions >= 2 && dimensions < 31, "de Bruijn dimension out of range");
  const std::size_t n = std::size_t{1} << dimensions;
  std::ostringstream name;
  name << "debruijn(d=" << dimensions << ",n=" << n << ")";
  GraphBuilder b(n, name.str());
  b.reserve_edges(2 * n);  // upper bound; self-loops and duplicates drop out
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t bit = 0; bit <= 1; ++bit) {
      const std::size_t v = ((u << 1) | bit) & (n - 1);
      if (u != v) {
        b.add_edge(static_cast<NodeId>(std::min(u, v)),
                   static_cast<NodeId>(std::max(u, v)));
      }
    }
  }
  return b.build();
}

Graph make_random_regular(std::size_t n, std::size_t d, util::Rng& rng) {
  LB_ASSERT_MSG(n >= d + 1, "random regular needs n > d");
  LB_ASSERT_MSG((n * d) % 2 == 0, "n*d must be even for a d-regular graph");
  LB_ASSERT_MSG(d >= 1, "degree must be positive");
  LB_ASSERT_MSG(d < 2 || n >= 3, "cycle layers need at least 3 nodes");
  std::ostringstream name;
  name << "regular(n=" << n << ",d=" << d << ")";

  // Superposed random Hamiltonian cycles (plus one random perfect
  // matching when d is odd).  Unlike the plain pairing model — whose
  // acceptance probability decays like exp(-Theta(d^2)) and becomes
  // impractical already at d = 6 — each layer here only needs to avoid
  // the previously placed edges, which succeeds after O(1) retries for
  // n >> d.  The first cycle makes the graph connected by construction,
  // and such unions are expanders with high probability.
  constexpr std::size_t kLayerRetries = 2000;
  std::set<std::pair<NodeId, NodeId>> edges;
  auto try_add_layer = [&](const std::vector<std::pair<NodeId, NodeId>>& layer) {
    for (const auto& [u, v] : layer) {
      if (u == v) return false;
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      if (edges.contains(key)) return false;
    }
    for (const auto& [u, v] : layer) {
      edges.emplace(std::min(u, v), std::max(u, v));
    }
    return true;
  };

  std::vector<NodeId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);

  const std::size_t cycle_layers = d / 2;
  for (std::size_t layer = 0; layer < cycle_layers; ++layer) {
    bool placed = false;
    for (std::size_t attempt = 0; attempt < kLayerRetries && !placed; ++attempt) {
      rng.shuffle(perm);
      std::vector<std::pair<NodeId, NodeId>> cycle;
      cycle.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        cycle.emplace_back(perm[i], perm[(i + 1) % n]);
      }
      placed = try_add_layer(cycle);
    }
    LB_ASSERT_MSG(placed, "failed to place a cycle layer; n too close to d?");
  }
  if (d % 2 == 1) {
    LB_ASSERT_MSG(n % 2 == 0, "odd degree needs an even node count");
    bool placed = false;
    for (std::size_t attempt = 0; attempt < kLayerRetries && !placed; ++attempt) {
      rng.shuffle(perm);
      std::vector<std::pair<NodeId, NodeId>> matching;
      matching.reserve(n / 2);
      for (std::size_t i = 0; i < n; i += 2) {
        matching.emplace_back(perm[i], perm[i + 1]);
      }
      placed = try_add_layer(matching);
    }
    LB_ASSERT_MSG(placed, "failed to place the matching layer; n too close to d?");
  }

  GraphBuilder b(n, name.str());
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  Graph g = b.build();
  // d >= 2 graphs contain a Hamiltonian cycle; d == 1 is a matching and
  // disconnected for n > 2, which callers needing connectivity must not
  // request.
  LB_ASSERT_MSG(d < 2 || is_connected(g), "cycle construction must connect");
  return g;
}

Graph make_erdos_renyi(std::size_t n, double p, util::Rng& rng, bool require_connected) {
  LB_ASSERT_MSG(n >= 2, "G(n,p) needs at least 2 nodes");
  LB_ASSERT_MSG(p >= 0.0 && p <= 1.0, "edge probability must lie in [0,1]");
  std::ostringstream name;
  name << "gnp(n=" << n << ",p=" << p << ")";
  for (std::size_t attempt = 0; attempt < 1000; ++attempt) {
    GraphBuilder b(n, name.str());
    // Skip-based sampling: geometric jumps between present edges, O(pn^2).
    if (p > 0.0) {
      const double log1mp = std::log1p(-std::min(p, 1.0 - 1e-16));
      std::size_t total = n * (n - 1) / 2;
      std::size_t idx = 0;
      while (idx < total) {
        double u = rng.next_double();
        while (u <= 0.0) u = rng.next_double();
        const std::size_t skip =
            p >= 1.0 ? 0 : static_cast<std::size_t>(std::floor(std::log(u) / log1mp));
        idx += skip;
        if (idx >= total) break;
        // Decode linear index -> (i, j) with i < j.
        std::size_t i = 0;
        std::size_t remaining = idx;
        std::size_t row_len = n - 1;
        while (remaining >= row_len) {
          remaining -= row_len;
          ++i;
          --row_len;
        }
        const std::size_t j = i + 1 + remaining;
        b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
        ++idx;
      }
    }
    Graph g = b.build();
    if (!require_connected || is_connected(g)) return g;
  }
  LB_ASSERT_MSG(false, "failed to sample a connected G(n,p); p too small?");
  return Graph{};
}

Graph make_barbell(std::size_t m) {
  LB_ASSERT_MSG(m >= 2, "barbell cliques need at least 2 nodes each");
  std::ostringstream name;
  name << "barbell(m=" << m << ")";
  GraphBuilder b(2 * m, name.str());
  b.reserve_edges(m * (m - 1) + 1);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j) {
      b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      b.add_edge(static_cast<NodeId>(m + i), static_cast<NodeId>(m + j));
    }
  b.add_edge(static_cast<NodeId>(m - 1), static_cast<NodeId>(m));
  return b.build();
}

Graph make_lollipop(std::size_t m, std::size_t p) {
  LB_ASSERT_MSG(m >= 2 && p >= 1, "lollipop needs clique >= 2 and path >= 1");
  std::ostringstream name;
  name << "lollipop(m=" << m << ",p=" << p << ")";
  GraphBuilder b(m + p, name.str());
  b.reserve_edges(m * (m - 1) / 2 + p);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j)
      b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
  b.add_edge(static_cast<NodeId>(m - 1), static_cast<NodeId>(m));
  for (std::size_t i = 0; i + 1 < p; ++i)
    b.add_edge(static_cast<NodeId>(m + i), static_cast<NodeId>(m + i + 1));
  return b.build();
}

Graph make_petersen() {
  GraphBuilder b(10, "petersen");
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  for (NodeId i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(5 + i, 5 + (i + 2) % 5);
    b.add_edge(i, 5 + i);
  }
  return b.build();
}

Graph make_chordal_ring(std::size_t n, const std::vector<std::size_t>& skips) {
  LB_ASSERT_MSG(n >= 4, "chordal ring needs at least 4 nodes");
  std::ostringstream name;
  name << "chordal(n=" << n;
  for (std::size_t s : skips) name << ",+" << s;
  name << ")";
  GraphBuilder b(n, name.str());
  b.reserve_edges(n * (1 + skips.size()));
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  for (std::size_t s : skips) {
    LB_ASSERT_MSG(s >= 2 && s < n, "chord skip must lie in [2, n)");
    for (std::size_t i = 0; i < n; ++i) {
      b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + s) % n));
    }
  }
  return b.build();
}

Graph make_cube_connected_cycles(std::size_t dimensions) {
  LB_ASSERT_MSG(dimensions >= 3 && dimensions < 26, "CCC needs 3 <= d < 26");
  const std::size_t corners = std::size_t{1} << dimensions;
  const std::size_t n = dimensions * corners;
  std::ostringstream name;
  name << "ccc(d=" << dimensions << ",n=" << n << ")";
  GraphBuilder b(n, name.str());
  b.reserve_edges(n + n / 2);  // d*2^d ring edges + d*2^(d-1) cube edges
  auto id = [dimensions](std::size_t corner, std::size_t pos) {
    return static_cast<NodeId>(corner * dimensions + pos);
  };
  for (std::size_t corner = 0; corner < corners; ++corner) {
    for (std::size_t pos = 0; pos < dimensions; ++pos) {
      // Cycle edge within the corner's ring.
      b.add_edge(id(corner, pos), id(corner, (pos + 1) % dimensions));
      // Hypercube edge along dimension `pos`.
      const std::size_t other = corner ^ (std::size_t{1} << pos);
      if (corner < other) b.add_edge(id(corner, pos), id(other, pos));
    }
  }
  return b.build();
}

std::vector<std::string> named_families() {
  return {"path",   "cycle",   "complete", "star",    "wheel",  "tree",
          "grid2d", "torus2d", "torus3d",  "hypercube", "debruijn", "regular",
          "gnp",    "barbell", "lollipop", "petersen", "chordal", "ccc"};
}

Graph make_named(const std::string& family, std::size_t n, util::Rng& rng) {
  if (family == "path") return make_path(std::max<std::size_t>(n, 2));
  if (family == "cycle") return make_cycle(std::max<std::size_t>(n, 3));
  if (family == "complete") return make_complete(std::max<std::size_t>(n, 2));
  if (family == "star") return make_star(std::max<std::size_t>(n, 2));
  if (family == "wheel") return make_wheel(std::max<std::size_t>(n, 4));
  if (family == "tree") return make_binary_tree(std::max<std::size_t>(n, 1));
  if (family == "grid2d" || family == "torus2d") {
    std::size_t a = static_cast<std::size_t>(std::round(std::sqrt(static_cast<double>(n))));
    a = std::max<std::size_t>(a, family == "torus2d" ? 3 : 1);
    const std::size_t b = std::max<std::size_t>(
        (n + a - 1) / a, family == "torus2d" ? 3 : 1);
    return family == "grid2d" ? make_grid2d(a, b) : make_torus2d(a, b);
  }
  if (family == "torus3d") {
    std::size_t a = static_cast<std::size_t>(std::round(std::cbrt(static_cast<double>(n))));
    a = std::max<std::size_t>(a, 3);
    return make_torus3d(a, a, a);
  }
  if (family == "hypercube") {
    std::size_t d = 1;
    while ((std::size_t{1} << (d + 1)) <= n) ++d;
    return make_hypercube(d);
  }
  if (family == "debruijn") {
    std::size_t d = 2;
    while ((std::size_t{1} << (d + 1)) <= n) ++d;
    return make_de_bruijn(d);
  }
  if (family == "regular") {
    std::size_t nn = std::max<std::size_t>(n, 6);
    if ((nn * 4) % 2 != 0) ++nn;
    return make_random_regular(nn, 4, rng);
  }
  if (family == "gnp") {
    const std::size_t nn = std::max<std::size_t>(n, 8);
    // p chosen safely above the connectivity threshold ln(n)/n.
    const double p = std::min(1.0, 3.0 * std::log(static_cast<double>(nn)) /
                                       static_cast<double>(nn));
    return make_erdos_renyi(nn, p, rng, /*require_connected=*/true);
  }
  if (family == "barbell") return make_barbell(std::max<std::size_t>(n / 2, 2));
  if (family == "lollipop") {
    const std::size_t m = std::max<std::size_t>(n / 2, 2);
    return make_lollipop(m, std::max<std::size_t>(n - m, 1));
  }
  if (family == "petersen") return make_petersen();
  if (family == "chordal") {
    const std::size_t nn = std::max<std::size_t>(n, 8);
    // One chord at roughly sqrt(n) gives good expansion at degree 4.
    const std::size_t skip = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::round(std::sqrt(static_cast<double>(nn)))));
    return make_chordal_ring(nn, {skip});
  }
  if (family == "ccc") {
    std::size_t d = 3;
    while ((d + 1) * (std::size_t{1} << (d + 1)) <= n) ++d;
    return make_cube_connected_cycles(d);
  }
  LB_ASSERT_MSG(false, "unknown graph family");
  return Graph{};
}

}  // namespace lb::graph
