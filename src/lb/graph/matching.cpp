#include "lb/graph/matching.hpp"

#include <algorithm>
#include <numeric>

#include "lb/util/assert.hpp"

namespace lb::graph {

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

using State = util::Rng::State;

/// s = take ? a : s, word by word with no branch: the draws' decisions
/// are coin flips, which a branch would mispredict half the time.
inline void select(State& s, const State& a, bool take) {
  const std::uint64_t keep = static_cast<std::uint64_t>(take) - 1;  // 0 or ~0
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = (s[i] & keep) | (a[i] & ~keep);
}

}  // namespace

void MatchingScratch::bind(const Graph& base) {
  const std::size_t n = base.num_nodes();
  if (revision_ == base.revision() && row_begin_.size() == n + 1) return;
  const auto& edges = base.edges();
  LB_ASSERT_MSG(edges.size() < (std::size_t{1} << 31),
                "matching draws index edges in 32 bits");
  // Counting sort of the edge ids by endpoint: each row receives its
  // lower neighbours' edges (x, u), then its upper ones (u, y), both in
  // ascending id — so ascending ids are ascending neighbours.
  row_begin_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++row_begin_[e.u + 1];
    ++row_begin_[e.v + 1];
  }
  std::partial_sum(row_begin_.begin(), row_begin_.end(), row_begin_.begin());
  row_edges_.resize(2 * edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    row_edges_[row_begin_[edges[k].u]++] = static_cast<std::uint32_t>(k);
    row_edges_[row_begin_[edges[k].v]++] = static_cast<std::uint32_t>(k);
  }
  // The fill advanced every offset to its row's end: shift them back.
  std::copy_backward(row_begin_.begin(), row_begin_.end() - 1, row_begin_.end());
  row_begin_[0] = 0;

  proposal_.resize(n);
  matched_.resize(n);
  awake_list_.resize(n);
  incoming_.resize(n);
  accepted_.resize(n);
  ids_.reserve(std::max(n, edges.size()));
  revision_ = base.revision();
}

/// The draw bodies, with access to the scratch's arrays.
class MatchingDraw {
 public:
  /// GM's three passes.  The Rng's state words stay in locals: a node
  /// computes the state after each possible draw and selects the one its
  /// decision leaves, so no wake, propose or accept decision branches.
  /// The loops read the scratch through local pointers and store no
  /// bytes, so nothing they read needs reloading after a store.
  template <bool kMasked>
  static std::span<const std::uint32_t> gm(const TopologyFrame& frame, util::Rng& rng,
                                           MatchingScratch& sc) {
    sc.bind(frame.base());
    const std::size_t n = frame.num_nodes();
    const Edge* edges = frame.base().edges().data();
    const EdgeMask* mask = frame.mask();
    const std::uint32_t* row_begin = sc.row_begin_.data();
    const std::uint32_t* row_edges = sc.row_edges_.data();
    std::uint32_t* proposal = sc.proposal_.data();
    NodeId* awake_list = sc.awake_list_.data();
    State s = rng.state();

    // Phase 1: each node with an alive edge wakes w.p. 1/2 (next_bool's
    // next_double() < 0.5, i.e. a clear top bit); an awake node proposes
    // along the next_below(d)-th alive edge of its row.  An isolated node
    // draws nothing.  proposal[u] is kNone for a node that sleeps; on a
    // masked frame it holds the index k until the awake nodes' rows are
    // scanned below.
    std::size_t awake = 0;
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t d = kMasked ? mask->alive_degree(static_cast<NodeId>(u))
                                    : row_begin[u + 1] - row_begin[u];
      proposal[u] = kNone;
      if (d == 0) continue;
      State woke = s;
      const bool wake = (util::Rng::step(woke) >> 63) == 0;
      State proposed = woke;
      const auto k = static_cast<std::uint32_t>(util::Rng::below(proposed, d));
      const std::uint32_t id = kMasked ? k : row_edges[row_begin[u] + k];
      proposal[u] = wake ? id : kNone;
      awake_list[awake] = static_cast<NodeId>(u);
      awake += wake;
      s = woke;
      select(s, proposed, wake);
    }
    if constexpr (kMasked) {
      // The k-th alive entry of each awake node's row.
      for (std::size_t i = 0; i < awake; ++i) {
        const NodeId u = awake_list[i];
        const std::uint32_t k = proposal[u];
        std::uint32_t id = 0;
        std::uint32_t seen = 0;
        for (std::uint32_t j = row_begin[u]; j < row_begin[u + 1]; ++j) {
          const std::uint32_t alive = mask->alive(row_edges[j]);
          id |= row_edges[j] & (0 - (alive & (seen == k)));
          seen += alive;
        }
        proposal[u] = id;
      }
    }

    // Phase 2: a sleeping node accepts one incoming proposal, uniform
    // among those it received (reservoir: the c-th proposer replaces the
    // choice w.p. 1/c).  Proposals to awake nodes are dropped undrawn.
    std::uint32_t* incoming = sc.incoming_.data();
    std::uint32_t* accepted = sc.accepted_.data();
    std::fill_n(incoming, n, 0u);
    std::fill_n(accepted, n, kNone);
    for (std::size_t i = 0; i < awake; ++i) {
      const NodeId u = awake_list[i];
      const std::uint32_t id = proposal[u];
      const NodeId v = edges[id].u ^ edges[id].v ^ u;
      const bool deliver = proposal[v] == kNone;
      const std::uint32_t c = incoming[v] + deliver;
      incoming[v] = c;
      State drawn = s;
      const bool first = util::Rng::below(drawn, std::max(c, 1u)) == 0;
      accepted[v] = deliver & first ? id : accepted[v];
      select(s, drawn, deliver);
    }
    rng.set_state(s);

    // Phase 3: the matching, ordered by accepting node.
    sc.ids_.resize(n);
    std::uint32_t* ids = sc.ids_.data();
    std::size_t size = 0;
    for (std::size_t v = 0; v < n; ++v) {
      ids[size] = accepted[v];
      size += accepted[v] != kNone;
    }
    sc.ids_.resize(size);
    return sc.ids_;
  }

  static std::span<const std::uint32_t> maximal(const TopologyFrame& frame, util::Rng& rng,
                                                MatchingScratch& sc) {
    sc.bind(frame.base());
    const std::size_t m = frame.num_base_edges();
    const Edge* edges = frame.base().edges().data();
    // The alive edges in ascending id — the materialized view's edge
    // list — shuffled exactly as Rng::shuffle shuffles its indices.
    sc.ids_.resize(m);
    std::uint32_t* order = sc.ids_.data();
    std::size_t alive = 0;
    for (std::size_t k = 0; k < m; ++k) {
      order[alive] = static_cast<std::uint32_t>(k);
      alive += frame.alive(k);
    }
    State s = rng.state();
    for (std::size_t i = alive; i > 1; --i) {
      std::swap(order[i - 1], order[util::Rng::below(s, i)]);
    }
    rng.set_state(s);

    // Greedy in permutation order, compacted in place.
    std::uint8_t* matched = sc.matched_.data();
    std::fill_n(matched, frame.num_nodes(), std::uint8_t{0});
    std::size_t size = 0;
    for (std::size_t i = 0; i < alive; ++i) {
      const std::uint32_t id = order[i];
      const Edge e = edges[id];
      const std::uint8_t take = (matched[e.u] | matched[e.v]) ^ 1;
      matched[e.u] |= take;
      matched[e.v] |= take;
      order[size] = id;
      size += take;
    }
    sc.ids_.resize(size);
    return sc.ids_;
  }

  static std::span<const std::uint32_t> hypercube(const TopologyFrame& frame,
                                                  std::size_t dimensions, std::size_t colour,
                                                  MatchingScratch& sc) {
    sc.bind(frame.base());
    const Graph& base = frame.base();
    LB_ASSERT_MSG(colour < dimensions, "colour must be a hypercube dimension");
    LB_ASSERT_MSG(base.num_nodes() == (std::size_t{1} << dimensions),
                  "graph is not a hypercube of the stated dimension");
    const std::size_t bit = std::size_t{1} << colour;
    sc.ids_.clear();
    for (std::size_t u = 0; u < base.num_nodes(); ++u) {
      const std::size_t v = u ^ bit;
      if (u > v) continue;
      const auto nb = base.neighbors(static_cast<NodeId>(u));
      const auto at = std::lower_bound(nb.begin(), nb.end(), static_cast<NodeId>(v));
      LB_ASSERT_MSG(at != nb.end() && *at == v, "hypercube edge missing");
      const std::uint32_t id = sc.row_edges_[sc.row_begin_[u] + (at - nb.begin())];
      if (frame.alive(id)) sc.ids_.push_back(id);
    }
    return sc.ids_;
  }
};

std::span<const std::uint32_t> gm_random_matching(const TopologyFrame& frame,
                                                  util::Rng& rng, MatchingScratch& scratch) {
  return frame.masked() ? MatchingDraw::gm<true>(frame, rng, scratch)
                        : MatchingDraw::gm<false>(frame, rng, scratch);
}

std::span<const std::uint32_t> random_maximal_matching(const TopologyFrame& frame,
                                                       util::Rng& rng,
                                                       MatchingScratch& scratch) {
  return MatchingDraw::maximal(frame, rng, scratch);
}

std::span<const std::uint32_t> hypercube_dimension_matching(const TopologyFrame& frame,
                                                            std::size_t dimensions,
                                                            std::size_t colour,
                                                            MatchingScratch& scratch) {
  return MatchingDraw::hypercube(frame, dimensions, colour, scratch);
}

Matching matching_edges(const Graph& g, std::span<const std::uint32_t> ids) {
  Matching m;
  m.reserve(ids.size());
  for (const std::uint32_t k : ids) m.push_back(g.edges()[k]);
  return m;
}

Matching gm_random_matching(const Graph& g, util::Rng& rng) {
  MatchingScratch scratch;
  return matching_edges(g, gm_random_matching(TopologyFrame(g), rng, scratch));
}

Matching random_maximal_matching(const Graph& g, util::Rng& rng) {
  MatchingScratch scratch;
  return matching_edges(g, random_maximal_matching(TopologyFrame(g), rng, scratch));
}

Matching hypercube_dimension_matching(const Graph& g, std::size_t dimensions,
                                      std::size_t colour) {
  MatchingScratch scratch;
  return matching_edges(g, hypercube_dimension_matching(TopologyFrame(g), dimensions,
                                                        colour, scratch));
}

bool is_valid_matching(const Graph& g, const Matching& m) {
  std::vector<bool> used(g.num_nodes(), false);
  for (const Edge& e : m) {
    if (!g.has_edge(e.u, e.v)) return false;
    if (used[e.u] || used[e.v]) return false;
    used[e.u] = used[e.v] = true;
  }
  return true;
}

}  // namespace lb::graph
