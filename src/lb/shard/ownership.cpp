#include "lb/shard/ownership.hpp"

#include <algorithm>
#include <numeric>

#include "lb/util/assert.hpp"

namespace lb::shard {

std::string to_string(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::kContiguous: return "contiguous";
    case PartitionPolicy::kStrided: return "strided";
    case PartitionPolicy::kGreedyEdgeCut: return "greedy";
  }
  return "?";
}

namespace {

std::size_t count_cut(const graph::Graph& g, const std::vector<std::uint32_t>& owner) {
  std::size_t cut = 0;
  for (const graph::Edge& e : g.edges()) {
    if (owner[e.u] != owner[e.v]) ++cut;
  }
  return cut;
}

/// fn(d, lo, hi) for each maximal run [lo, hi) of consecutive nodes owned
/// by one domain d, ascending: one run per domain for contiguous blocks.
template <class Fn>
void for_each_owner_run(const std::vector<std::uint32_t>& owner, Fn&& fn) {
  for (std::size_t lo = 0, hi = 0; lo < owner.size(); lo = hi) {
    const std::uint32_t d = owner[lo];
    while (hi < owner.size() && owner[hi] == d) ++hi;
    fn(d, lo, hi);
  }
}

std::vector<std::size_t> domain_sizes(const std::vector<std::uint32_t>& owner,
                                      std::size_t domains) {
  std::vector<std::size_t> size(domains, 0);
  for_each_owner_run(owner, [&size](std::uint32_t d, std::size_t lo, std::size_t hi) {
    size[d] += hi - lo;
  });
  return size;
}

// Bounded deterministic refinement of a contiguous seed.  Each pass
// visits nodes in ascending id order and moves a node to the domain
// holding the (strict) majority of its neighbours when that strictly
// reduces the cut, subject to balance guards: the destination stays at
// or below the contiguous cap ⌈n/K⌉ and the source keeps at least one
// node.  Ties between candidate domains break toward the lowest id.
// Every accepted move strictly decreases the global cut, so the loop
// terminates; the pass cap just bounds worst-case work.  The final cut
// is therefore <= the contiguous seed's cut by construction.  Returns
// the final cut: the seed's, less each move's gain.
std::size_t refine(const graph::Graph& g, std::size_t domains,
                   std::vector<std::uint32_t>& owner) {
  const std::size_t n = g.num_nodes();
  const std::size_t cap = (n + domains - 1) / domains;
  std::vector<std::size_t> size = domain_sizes(owner, domains);

  // A node with no neighbour in another domain cannot gain, so passes
  // visit only candidates: the seed's cut-edge endpoints, and the
  // neighbours of every node that moves.  Candidates are never dropped,
  // so they always include every node with a remote neighbour.
  std::vector<std::uint8_t> candidate(n, 0);
  std::size_t cut = 0;
  for (const graph::Edge& e : g.edges()) {
    if (owner[e.u] == owner[e.v]) continue;
    ++cut;
    candidate[e.u] = 1;
    candidate[e.v] = 1;
  }

  constexpr int kMaxPasses = 8;
  std::vector<std::size_t> tally(domains, 0);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (candidate[u] == 0) continue;
      const std::uint32_t from = owner[u];
      if (size[from] <= 1) continue;
      std::fill(tally.begin(), tally.end(), 0);
      for (graph::NodeId v : g.neighbors(u)) ++tally[owner[v]];
      // Best destination: most neighbours, lowest id on ties, and it
      // must beat the current domain strictly (strict cut gain).
      std::uint32_t best = from;
      std::size_t best_tally = tally[from];
      for (std::uint32_t d = 0; d < domains; ++d) {
        if (d == from || size[d] >= cap) continue;
        if (tally[d] > best_tally) {
          best = d;
          best_tally = tally[d];
        }
      }
      if (best == from) continue;
      owner[u] = best;
      --size[from];
      ++size[best];
      cut -= best_tally - tally[from];
      for (graph::NodeId v : g.neighbors(u)) candidate[v] = 1;
      moved = true;
    }
    if (!moved) break;
  }
  return cut;
}

}  // namespace

OwnershipMap OwnershipMap::build(const graph::Graph& g, std::size_t domains,
                                 PartitionPolicy policy) {
  LB_ASSERT_MSG(domains > 0, "need at least one ownership domain");
  LB_ASSERT_MSG(g.num_nodes() > 0, "cannot shard an empty graph");
  LB_ASSERT_MSG(domains <= g.num_nodes(),
                "more ownership domains than nodes");
  const std::size_t n = g.num_nodes();

  OwnershipMap map;
  map.revision_ = g.revision();
  map.domains_ = domains;
  map.policy_ = policy;
  map.owner_.resize(n);

  // Balanced contiguous blocks: the first n mod K domains get ⌈n/K⌉
  // nodes, the rest ⌊n/K⌋ — every domain nonempty whenever K <= n
  // (a plain ⌈n/K⌉ block size can starve trailing domains).
  const auto assign_contiguous = [&map, n, domains] {
    const std::size_t q = n / domains;
    const std::size_t r = n % domains;
    auto block = map.owner_.begin();
    for (std::size_t d = 0; d < domains; ++d) {
      const std::size_t size = q + (d < r ? 1 : 0);
      std::fill_n(block, size, static_cast<std::uint32_t>(d));
      block += static_cast<std::ptrdiff_t>(size);
    }
  };
  switch (policy) {
    case PartitionPolicy::kContiguous:
      assign_contiguous();
      map.cut_edges_ = count_cut(g, map.owner_);
      break;
    case PartitionPolicy::kStrided:
      for (std::size_t u = 0; u < n; ++u) {
        map.owner_[u] = static_cast<std::uint32_t>(u % domains);
      }
      map.cut_edges_ = count_cut(g, map.owner_);
      break;
    case PartitionPolicy::kGreedyEdgeCut:
      assign_contiguous();
      map.cut_edges_ = refine(g, domains, map.owner_);
      break;
  }

  // Owned-node lists, each allocated once at its size and filled run by
  // run.
  const std::vector<std::size_t> size = domain_sizes(map.owner_, domains);
  map.nodes_.resize(domains);
  std::vector<graph::NodeId*> next(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    map.nodes_[d].resize(size[d]);
    next[d] = map.nodes_[d].data();
  }
  for_each_owner_run(map.owner_, [&next](std::uint32_t d, std::size_t lo, std::size_t hi) {
    std::iota(next[d], next[d] + (hi - lo), static_cast<graph::NodeId>(lo));
    next[d] += hi - lo;
  });
  return map;
}

}  // namespace lb::shard
