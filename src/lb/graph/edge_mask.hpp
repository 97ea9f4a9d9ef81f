// Masked-subgraph substrate for dynamic topologies.
//
// Every stochastic dynamic-network model in this library (Bernoulli link
// failures, Markov failures, churn, partition/heal, failure waves) emits
// *subgraphs of a fixed base graph*: the node set never changes and every
// round's edge set is a subset of the base edge list.  Before this layer
// existed, each round materialized that subset as a brand-new Graph via
// GraphBuilder::build() — an O(m log m) sort, fresh allocations, a new
// topology revision, and therefore a full FlowLedger CSR rebuild, all
// before a single token moved.
//
// EdgeMask replaces the rebuild with an alive-bitmap over the base edge
// list plus incrementally-maintained per-node alive-degrees (and a degree
// histogram so max/min alive-degree stay O(1) amortized).  A
// TopologyFrame bundles {base graph, optional mask} and is what the
// engine, kernels and balancers consume: degrees and edge iteration come
// from the frame, so a masked round runs with *zero* graph construction.
//
// Cache keying is two-level: `base_revision` (Graph::revision of the
// base) keys structures that depend only on the base CSR (the flow
// ledger's incident-edge rows), `mask_revision` (bumped by commit())
// keys anything derived from the current alive set.  See DESIGN.md §5.
//
// The materializing shim: `materialize()` builds the masked subgraph as
// a real Graph (cached per mask revision).  It is the equivalence oracle
// — a masked run must be bit-identical to a run over the materialized
// graphs — and the escape hatch for consumers that genuinely need a
// Graph (the spectral bindings of SOS and OPS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lb/graph/graph.hpp"

namespace lb::graph {

/// Alive-bitmap over a base graph's edge list with incrementally
/// maintained per-node alive-degrees.  Mutations go through set_alive()
/// (or fill()) and are sealed into a new topology epoch by commit().
class EdgeMask {
 public:
  /// All edges start alive.  The mask keeps a reference to `base`; the
  /// base graph must outlive the mask.
  explicit EdgeMask(const Graph& base);

  const Graph& base() const { return *base_; }
  std::uint64_t base_revision() const { return base_->revision(); }
  /// Mask epoch: bumped by every commit().  (base_revision, revision)
  /// uniquely identifies the current topology.
  std::uint64_t revision() const { return revision_; }

  std::size_t num_base_edges() const { return alive_.size(); }
  std::size_t alive_edges() const { return alive_edges_; }
  bool alive(std::size_t edge) const { return alive_[edge] != 0; }

  /// Degree of `u` counting alive edges only — equals the materialized
  /// subgraph's degree(u).
  std::size_t alive_degree(NodeId u) const { return alive_degree_[u]; }
  std::size_t max_alive_degree() const { return max_degree_; }
  std::size_t min_alive_degree() const { return min_degree_; }

  /// Set one edge's liveness; O(1) amortized (degree histogram update).
  /// No-op if the bit already has that value.
  void set_alive(std::size_t edge, bool alive);
  /// Set every edge's liveness at once; O(n + m).
  void fill(bool alive);
  /// Seal the mutations since the last commit as a new topology epoch.
  void commit() { ++revision_; }

  /// The masked subgraph as a real Graph (the rebuild path).  Cached per
  /// mask revision; `name` labels the graph when (re)built.  This is the
  /// equivalence oracle for every masked kernel, and the escape hatch
  /// for consumers that need full Graph structure (spectral solvers).
  const Graph& materialize(const std::string& name) const;

 private:
  void bump_degree(NodeId u, bool up);

  const Graph* base_;
  std::vector<std::uint8_t> alive_;        // 1 byte per base edge
  std::vector<std::uint32_t> alive_degree_;
  std::vector<std::uint32_t> degree_hist_;  // degree_hist_[d] = #nodes with alive-degree d
  std::size_t alive_edges_ = 0;
  std::size_t max_degree_ = 0;
  std::size_t min_degree_ = 0;
  std::uint64_t revision_ = 1;

  // materialize() cache (mutable: building the oracle view does not
  // change the masked topology).
  mutable Graph view_;
  mutable std::uint64_t view_revision_ = 0;
};

/// The per-round topology view every layer above the graph consumes:
/// a base graph plus an optional edge-alive mask.  Cheap to copy (two
/// pointers + a label pointer); the referenced base/mask/label must
/// outlive the frame (they live in the owning GraphSequence).
class TopologyFrame {
 public:
  TopologyFrame() = default;
  /// Full-graph frame (no mask): static/periodic rounds.
  explicit TopologyFrame(const Graph& g) : base_(&g) {}
  /// Masked frame; `label` (optional) names the materialized view.
  explicit TopologyFrame(const EdgeMask& mask, const std::string* label = nullptr)
      : base_(&mask.base()), mask_(&mask), label_(label) {}

  const Graph& base() const { return *base_; }
  bool masked() const { return mask_ != nullptr; }
  const EdgeMask* mask() const { return mask_; }

  std::size_t num_nodes() const { return base_->num_nodes(); }
  /// Edges alive this round (= materialized subgraph's num_edges()).
  std::size_t num_edges() const {
    return mask_ != nullptr ? mask_->alive_edges() : base_->num_edges();
  }
  /// The base edge-list length — the size masked flow vectors use.
  std::size_t num_base_edges() const { return base_->num_edges(); }

  /// Alive-degree of u (= materialized subgraph's degree(u)).
  std::size_t degree(NodeId u) const {
    return mask_ != nullptr ? mask_->alive_degree(u) : base_->degree(u);
  }
  std::size_t max_degree() const {
    return mask_ != nullptr ? mask_->max_alive_degree() : base_->max_degree();
  }
  std::size_t min_degree() const {
    return mask_ != nullptr ? mask_->min_alive_degree() : base_->min_degree();
  }
  bool alive(std::size_t edge) const {
    return mask_ == nullptr || mask_->alive(edge);
  }

  std::uint64_t base_revision() const { return base_->revision(); }
  std::uint64_t mask_revision() const {
    return mask_ != nullptr ? mask_->revision() : 0;
  }

  /// The round's topology as a real Graph: the base itself when
  /// unmasked, the materialized (cached) subgraph when masked.  Masked
  /// fast paths never call this; it exists for the oracle shim and for
  /// consumers that need full Graph structure.
  const Graph& view() const {
    if (mask_ == nullptr) return *base_;
    return mask_->materialize(label_ != nullptr ? *label_ : base_->name());
  }

  /// Structure hash of the round's topology: FNV-1a over the node count
  /// and the alive edge endpoints in canonical order.  A masked frame
  /// and its materialization hash identically, so profile and run
  /// passes can assert they saw the same sequence of topologies.
  std::uint64_t fingerprint() const;

 private:
  const Graph* base_ = nullptr;
  const EdgeMask* mask_ = nullptr;
  const std::string* label_ = nullptr;
};

}  // namespace lb::graph
