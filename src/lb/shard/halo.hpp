// Halo-exchange plans: the per-domain routing tables the sharded engine
// executes each round.
//
// For a cut edge k = (u, v) with a = owner(u) ≠ owner(v) = b, the round
// protocol is fixed by convention on the *u endpoint*: domain a owns
// edge k, computes its flow, and applies u's side; domain b contributes
// v's round-start load beforehand and receives the computed flow after.
// So per ordered domain pair there are two payload kinds:
//
//   loads:  b → a   load[v] for every boundary node v (deduplicated —
//                   one copy feeds all of a's edges into v),
//   flows:  a → b   the flow of every cut edge a owns toward b, which
//                   each side keeps only in its cut entry's slot.
//
// Both sides derive each list from the same ascending base-edge sweep
// (node lists sorted + deduplicated, edge lists naturally ascending), so
// sender pack order and receiver unpack order agree by construction —
// the channel is a FIFO with no per-message framing.
//
// Each DomainPlan also carries the tables of its round sweep (DESIGN.md
// §7, core::detail::sweep_domain): the runs of owned edges whose
// endpoints are both owned, and the
// cut entries between them — each cut edge incident to an owned node, in
// ascending base order, with the slot its share is staged in.  Walking the
// two merged visits every edge incident to an owned node in ascending
// base order, so each owned node takes its ±flows in the seed's edge
// order.  The CSR slice over the owned nodes (core::FlowLedger's layout:
// incident edge ids ascending per row, sign −1 when the row's node is the
// edge's u) stays for the plan check and external replays; no round
// walks it.
//
// Every array is allocated once, at its exact size: a counting pass over
// the edges sizes them, a filling pass writes them.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/core/flow_ledger.hpp"
#include "lb/graph/graph.hpp"
#include "lb/shard/ownership.hpp"

namespace lb::shard {

/// One peer's routing entry within a DomainPlan.  All four lists are
/// from the plan-owning domain's perspective.
struct HaloLink {
  std::uint32_t peer = 0;
  /// Owned boundary nodes whose loads the peer needs (ascending, unique).
  std::vector<graph::NodeId> send_nodes;
  /// Peer-owned boundary nodes this domain needs (ascending, unique).
  std::vector<graph::NodeId> recv_nodes;
  /// Owned cut edges whose flow goes to the peer (ascending base ids).
  std::vector<std::uint32_t> send_flow_edges;
  /// Peer-owned cut edges whose flow arrives here (ascending base ids).
  std::vector<std::uint32_t> recv_flow_edges;
};

/// Owned edges [first, last) — consecutive base ids, both endpoints owned
/// — which the sweep enters once the plan's cut entries [0, cuts_before)
/// are applied.  The blocked round's plan holds the same runs per block.
using core::SweepRun;

struct DomainPlan {
  /// Owned nodes, ascending (== OwnershipMap::nodes(d)).
  std::vector<graph::NodeId> nodes;
  /// Owned edges — base ids k with owner(edges()[k].u) == d — ascending.
  std::vector<std::uint32_t> owned_edges;
  /// CSR over owned nodes (row i = nodes[i]), FlowLedger layout.
  std::vector<std::uint32_t> row_ptr;   // nodes.size() + 1 entries
  std::vector<std::uint32_t> edge_idx;  // incident base edge ids, ascending per row
  std::vector<std::int8_t> sign;        // -1 if the row's node is the edge's u
  /// Peers, sorted ascending by domain id.
  std::vector<HaloLink> links;

  // The sweep.  A cut entry is a cut edge incident to an owned node:
  // owned with a remote v (its flow is computed before the flow exchange)
  // or peer-owned with an owned v (its flow arrives in it).  Entries
  // ascend in base id; the round stages each entry's signed share, −f on
  // the u side and +f on the v side, in a slot per entry.
  /// Runs of owned edges between the cut entries, ascending.
  std::vector<SweepRun> runs;
  /// Each cut entry's base edge id.  Its owned endpoint is the edge's u
  /// when the domain owns u (an outgoing entry), else its v.
  std::vector<std::uint32_t> cut_edges;
  /// Per send_flow_edges entry of every link, in link order: its cut
  /// entry, and its v's index in the compact halo — the recv_nodes of
  /// every link, concatenated in link order.
  std::vector<std::uint32_t> send_slots;
  std::vector<std::uint32_t> send_halo;
  /// Per recv_flow_edges entry of every link, in link order: its cut entry.
  std::vector<std::uint32_t> recv_slots;
};

class HaloExchange {
 public:
  HaloExchange() = default;

  /// Build all K domain plans for (g, map).  map must have been built
  /// for g (same revision).  Deterministic: pure function of the two.
  static HaloExchange build(const graph::Graph& g, const OwnershipMap& map);

  std::size_t domains() const { return plans_.size(); }
  const DomainPlan& plan(std::size_t d) const { return plans_[d]; }
  const std::vector<DomainPlan>& plans() const { return plans_; }

  /// Cut edges crossing any domain boundary, as the build counted them
  /// (equal to map.cut_edges(), which counts them its own way).
  std::size_t cut_edges() const { return cut_edges_; }

  bool valid_for(const graph::Graph& g, const OwnershipMap& map) const {
    return revision_ != 0 && revision_ == g.revision() &&
           plans_.size() == map.domains();
  }

 private:
  std::uint64_t revision_ = 0;
  std::size_t cut_edges_ = 0;
  std::vector<DomainPlan> plans_;
};

}  // namespace lb::shard
