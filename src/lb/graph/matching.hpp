// Matchings for the dimension-exchange baseline of Ghosh & Muthukrishnan
// (SPAA'94), the comparator the paper measures its constant-factor speedup
// against.  Their analysis needs every edge to enter the random matching
// with probability >= 1/(8δ); the classic local protocol below achieves
// that, and random_maximal_matching is the cheaper centralized stand-in.
//
// Every draw runs on a TopologyFrame, so a masked round builds no Graph
// (DESIGN.md §5): it reads alive-degrees from the frame and walks the
// base's incident-edge rows, which MatchingScratch builds once per
// Graph::revision().  A row's ascending edge ids are its ascending
// neighbours, so the k-th alive entry of u's row is exactly
// frame.view().neighbors(u)[k]: each draw consumes the Rng exactly as the
// same protocol run on the materialized view, and returns that matching
// as base edge ids in the same order (tests/seed_oracle.hpp holds the
// Graph-based draws the tests compare against).  Once the scratch has
// seen the base, a draw allocates nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/rng.hpp"

namespace lb::graph {

/// A matching: a set of vertex-disjoint edges.
using Matching = std::vector<Edge>;

/// Reused storage of the frame draws: the base's incident-edge rows
/// (rebuilt when the base revision changes), per-node work arrays and the
/// drawn edge ids.  Holds no trajectory state — every array a draw reads
/// is rebuilt or reassigned first — so it may be shared by any sequence
/// of draws on any frames.
class MatchingScratch {
 public:
  /// Bind the rows to `base` (a no-op while its revision is unchanged)
  /// and size the work arrays for it.
  void bind(const Graph& base);

 private:
  friend class MatchingDraw;  // the draw bodies (matching.cpp)

  std::uint64_t revision_ = 0;
  std::vector<std::uint32_t> row_begin_;  // n + 1 row offsets into row_edges_
  std::vector<std::uint32_t> row_edges_;  // 2m incident base edge ids
  std::vector<std::uint32_t> proposal_;   // GM: u's proposed edge, kNone if asleep
  std::vector<std::uint8_t> matched_;     // maximal: node already matched
  std::vector<NodeId> awake_list_;        // GM: the awake nodes, ascending
  std::vector<std::uint32_t> incoming_;   // GM: proposals a sleeper received
  std::vector<std::uint32_t> accepted_;   // GM: the edge a sleeper accepted
  std::vector<std::uint32_t> ids_;        // the drawn matching (base edge ids)
};

/// Ghosh–Muthukrishnan local random matching: every node independently
/// "wakes" with probability 1/2, each awake node proposes to a uniformly
/// random neighbour, and an edge joins the matching when its proposal is
/// accepted by a sleeping endpoint with no competing accepted proposal.
/// Guarantees Pr[e in M] >= 1/(8δ) for every edge e.  Returns base edge
/// ids ordered by the accepting node; valid until the scratch's next draw.
std::span<const std::uint32_t> gm_random_matching(const TopologyFrame& frame,
                                                  util::Rng& rng, MatchingScratch& scratch);

/// Greedy maximal matching over a uniformly random permutation of the
/// frame's alive edges, in that order.
std::span<const std::uint32_t> random_maximal_matching(const TopologyFrame& frame,
                                                       util::Rng& rng,
                                                       MatchingScratch& scratch);

/// Round-robin dimension exchange for edge-colorable structured graphs:
/// partition the hypercube's edges by dimension; round t uses colour
/// t mod d.  Returns the colour's alive edges in ascending u order (the
/// base's whole perfect matching when unmasked) and draws nothing.
/// Asserts that the base is a d-dimensional hypercube.
std::span<const std::uint32_t> hypercube_dimension_matching(const TopologyFrame& frame,
                                                            std::size_t dimensions,
                                                            std::size_t colour,
                                                            MatchingScratch& scratch);

/// The edges of `g` with the given ids, in order.
Matching matching_edges(const Graph& g, std::span<const std::uint32_t> ids);

/// The frame draws on a whole graph, as edges.
Matching gm_random_matching(const Graph& g, util::Rng& rng);
Matching random_maximal_matching(const Graph& g, util::Rng& rng);
Matching hypercube_dimension_matching(const Graph& g, std::size_t dimensions,
                                      std::size_t colour);

/// True if `m` is vertex-disjoint and every edge exists in g.
bool is_valid_matching(const Graph& g, const Matching& m);

}  // namespace lb::graph
