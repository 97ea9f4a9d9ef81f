#include "lb/shard/halo.hpp"

#include <algorithm>
#include <compare>
#include <limits>
#include <utility>

#include "lb/util/assert.hpp"

namespace lb::shard {

namespace {

/// A cut edge (u, v) as the halo sees it: `owner` = owner(u) computes its
/// flow from v's load, which `peer` = owner(v) ships.  Sorted, the cut
/// edges group by link, and each link's boundary nodes ascend.
struct CutEdge {
  std::uint32_t owner = 0;
  std::uint32_t peer = 0;
  graph::NodeId v = 0;
  friend auto operator<=>(const CutEdge&, const CutEdge&) = default;
};

/// Sizes of one domain's arrays, from the counting pass.
struct DomainCounts {
  std::size_t owned = 0;
  std::size_t runs = 0;
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t links = 0;
};

/// The run an edge belongs to is its domain when both endpoints share
/// one; a cut edge belongs to none.  A run is a maximal stretch of
/// consecutive edges of one domain, so both passes find runs by comparing
/// each edge's run with the previous edge's.
constexpr std::uint32_t kNoRun = std::numeric_limits<std::uint32_t>::max();

/// Per-link bookkeeping, indexed by a global link number.
struct LinkCounts {
  std::size_t send_flows = 0;
  std::size_t recv_flows = 0;
  std::size_t send_nodes = 0;
  std::size_t recv_nodes = 0;
  std::size_t send_base = 0;  // first send_slots/send_halo entry
  std::size_t recv_base = 0;  // first recv_slots entry
  std::size_t halo_base = 0;  // first compact-halo entry
};

/// Index of `peer` in the plan's links, which hold it by construction.
std::uint32_t link_index(const DomainPlan& plan, std::uint32_t peer) {
  const auto it = std::lower_bound(
      plan.links.begin(), plan.links.end(), peer,
      [](const HaloLink& l, std::uint32_t p) { return l.peer < p; });
  LB_DEBUG_ASSERT(it != plan.links.end() && it->peer == peer);
  return static_cast<std::uint32_t>(it - plan.links.begin());
}

}  // namespace

HaloExchange HaloExchange::build(const graph::Graph& g, const OwnershipMap& map) {
  LB_ASSERT_MSG(map.valid_for(g, map.domains(), map.policy()),
                "ownership map was built for a different topology");
  const std::size_t K = map.domains();
  const auto& owner = map.owners();
  const auto& edges = g.edges();
  LB_ASSERT_MSG(2 * edges.size() <= std::numeric_limits<std::uint32_t>::max(),
                "domain plans store 32-bit edge ids and slice offsets");

  HaloExchange halo;
  halo.revision_ = g.revision();
  halo.plans_.resize(K);
  std::vector<DomainPlan>& plans = halo.plans_;

  // Counting pass over the ascending edges: every array's size, and the
  // cut edges.  The halo counts its cut itself; the map's count only
  // sizes the list.
  std::vector<DomainCounts> count(K);
  std::vector<CutEdge> cuts;
  cuts.reserve(map.cut_edges());
  std::uint32_t run = kNoRun;  // edge k − 1's run
  std::size_t run_first = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const std::uint32_t a = owner[edges[k].u];
    const std::uint32_t b = owner[edges[k].v];
    if (const std::uint32_t r = a == b ? a : kNoRun; r != run) {
      if (run != kNoRun) count[run].owned += k - run_first;
      if (r != kNoRun) ++count[r].runs;
      run = r;
      run_first = k;
    }
    if (run != kNoRun) continue;
    ++count[a].owned;
    ++count[a].sends;
    ++count[b].recvs;
    cuts.push_back({a, b, edges[k].v});
  }
  if (run != kNoRun) count[run].owned += edges.size() - run_first;
  halo.cut_edges_ = cuts.size();
  std::sort(cuts.begin(), cuts.end());

  // Links: one per domain pair that shares a cut edge, from both sides,
  // peers ascending, numbered globally in that order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(2 * cuts.size());
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (i > 0 && cuts[i].owner == cuts[i - 1].owner && cuts[i].peer == cuts[i - 1].peer) continue;
    pairs.emplace_back(cuts[i].owner, cuts[i].peer);
    pairs.emplace_back(cuts[i].peer, cuts[i].owner);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [d, peer] : pairs) ++count[d].links;
  std::vector<std::size_t> first_link(K);  // global number of each domain's link 0
  for (std::size_t d = 0, total = 0; d < K; ++d) {
    plans[d].links.resize(count[d].links);
    first_link[d] = total;
    total += count[d].links;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    plans[pairs[i].first].links[i - first_link[pairs[i].first]].peer = pairs[i].second;
  }

  // Per link (a, b): its cut edges are a's flows out and b's flows in;
  // their distinct v are a's halo nodes and b's boundary nodes.
  std::vector<LinkCounts> lc(pairs.size());
  const auto for_each_link_group = [&](auto&& fn) {
    for (std::size_t i = 0, end = 0; i < cuts.size(); i = end) {
      const CutEdge& c = cuts[i];
      while (end < cuts.size() && cuts[end].owner == c.owner && cuts[end].peer == c.peer) ++end;
      fn(c.owner, link_index(plans[c.owner], c.peer), c.peer, link_index(plans[c.peer], c.owner),
         i, end);
    }
  };
  for_each_link_group([&](std::uint32_t a, std::uint32_t la, std::uint32_t b, std::uint32_t lb,
                          std::size_t first, std::size_t last) {
    std::size_t distinct = 0;
    for (std::size_t i = first; i < last; ++i) distinct += i == first || cuts[i].v != cuts[i - 1].v;
    LinkCounts& out = lc[first_link[a] + la];
    LinkCounts& in = lc[first_link[b] + lb];
    out.send_flows = in.recv_flows = last - first;
    out.recv_nodes = in.send_nodes = distinct;
  });
  for (std::size_t d = 0; d < K; ++d) {
    DomainPlan& plan = plans[d];
    std::size_t sends = 0, recvs = 0, halo_nodes = 0;
    for (std::size_t l = 0; l < plan.links.size(); ++l) {
      HaloLink& link = plan.links[l];
      LinkCounts& c = lc[first_link[d] + l];
      link.send_nodes.reserve(c.send_nodes);
      link.recv_nodes.reserve(c.recv_nodes);
      link.send_flow_edges.reserve(c.send_flows);
      link.recv_flow_edges.reserve(c.recv_flows);
      c.send_base = sends;
      c.recv_base = recvs;
      c.halo_base = halo_nodes;
      sends += c.send_flows;
      recvs += c.recv_flows;
      halo_nodes += c.recv_nodes;
    }
  }
  for_each_link_group([&](std::uint32_t a, std::uint32_t la, std::uint32_t b, std::uint32_t lb,
                          std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      if (i > first && cuts[i].v == cuts[i - 1].v) continue;
      plans[a].links[la].recv_nodes.push_back(cuts[i].v);
      plans[b].links[lb].send_nodes.push_back(cuts[i].v);
    }
  });

  // The CSR slices' row starts (a row holds its node's whole degree), and
  // every other array at its counted size.
  std::vector<std::uint32_t> cursor(g.num_nodes());  // each node's next CSR slot
  for (std::size_t d = 0; d < K; ++d) {
    DomainPlan& plan = plans[d];
    const DomainCounts& c = count[d];
    plan.nodes = map.nodes(d);
    plan.row_ptr.resize(plan.nodes.size() + 1);
    std::uint32_t row = 0;
    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
      plan.row_ptr[i] = row;
      cursor[plan.nodes[i]] = row;
      row += static_cast<std::uint32_t>(g.degree(plan.nodes[i]));
    }
    plan.row_ptr.back() = row;
    plan.edge_idx.resize(row);
    plan.sign.resize(row);
    plan.owned_edges.resize(c.owned);
    plan.runs.reserve(c.runs);
    plan.cut_edges.reserve(c.sends + c.recvs);
    plan.send_slots.resize(c.sends);
    plan.send_halo.resize(c.sends);
    plan.recv_slots.resize(c.recvs);
  }

  // Filling pass over the ascending edges: every list is appended in
  // base order, so it comes out sorted.  A run's edges are consecutive,
  // so its owned slots are written through one cursor.
  struct Fill {
    std::uint32_t* owned;
    std::uint32_t* edge_idx;
    std::int8_t* sign;
  };
  std::vector<Fill> at(K);
  for (std::size_t d = 0; d < K; ++d) {
    DomainPlan& plan = plans[d];
    at[d] = {plan.owned_edges.data(), plan.edge_idx.data(), plan.sign.data()};
  }
  run = kNoRun;
  std::uint32_t* run_owned = nullptr;  // the run's next owned_edges slot
  const auto end_run = [&](std::size_t end) {
    if (run == kNoRun) return;
    plans[run].runs.back().last = static_cast<std::uint32_t>(end);
    at[run].owned = run_owned;
  };
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const graph::Edge e = edges[k];
    const auto id = static_cast<std::uint32_t>(k);
    const std::uint32_t a = owner[e.u];
    const std::uint32_t b = owner[e.v];
    const std::uint32_t pu = cursor[e.u]++;
    const std::uint32_t pv = cursor[e.v]++;
    at[a].edge_idx[pu] = id;
    at[a].sign[pu] = -1;  // the row's node is the edge's u
    at[b].edge_idx[pv] = id;
    at[b].sign[pv] = 1;
    if (const std::uint32_t r = a == b ? a : kNoRun; r != run) {
      end_run(k);
      run = r;
      if (run != kNoRun) {
        DomainPlan& plan = plans[run];
        plan.runs.push_back({id, id, static_cast<std::uint32_t>(plan.cut_edges.size())});
        run_owned = at[run].owned;
      }
    }
    if (run != kNoRun) {
      *run_owned++ = id;
      continue;
    }
    *at[a].owned++ = id;
    // a computes the flow from v's halo copy and ships it; b applies it.
    DomainPlan& pa = plans[a];
    DomainPlan& pb = plans[b];
    const std::uint32_t la = link_index(pa, b);
    const std::uint32_t lb = link_index(pb, a);
    HaloLink& out = pa.links[la];
    HaloLink& in = pb.links[lb];
    const LinkCounts& lca = lc[first_link[a] + la];
    const std::size_t s = lca.send_base + out.send_flow_edges.size();
    pa.send_slots[s] = static_cast<std::uint32_t>(pa.cut_edges.size());
    pa.send_halo[s] = static_cast<std::uint32_t>(
        lca.halo_base +
        (std::lower_bound(out.recv_nodes.begin(), out.recv_nodes.end(), e.v) -
         out.recv_nodes.begin()));
    pa.cut_edges.push_back(id);
    out.send_flow_edges.push_back(id);
    pb.recv_slots[lc[first_link[b] + lb].recv_base + in.recv_flow_edges.size()] =
        static_cast<std::uint32_t>(pb.cut_edges.size());
    pb.cut_edges.push_back(id);
    in.recv_flow_edges.push_back(id);
  }
  end_run(edges.size());
  return halo;
}

}  // namespace lb::shard
