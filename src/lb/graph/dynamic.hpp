// Dynamic networks: the Elsässer–Monien–Schamberger model the paper adopts
// in Section 5.  The node set is fixed; the edge set may change every
// round, described by a sequence of graphs (G_k).  Theorems 7/8 hold for
// *any* sequence, so we provide a family of generators ranging from benign
// (periodic cycling) to adversarial (alternate between two poorly-
// expanding graphs), plus stochastic link-failure models that mimic real
// interconnects and three operational scenarios (churn, partition/heal,
// failure wave).
//
// Protocol (DESIGN.md §5): the primary accessor is frame_at(k), which
// returns a TopologyFrame — the base graph plus an optional edge-alive
// mask.  Sequences whose rounds are subgraphs of a fixed base (Bernoulli,
// Markov, churn, partition, wave) mutate their EdgeMask in place and
// never construct a Graph after the constructor; static/periodic rounds
// are unmasked full-graph frames.  at_round(k) remains as a materializing
// shim (it builds the masked round as a real Graph) and is the
// equivalence oracle the masked kernels are tested against.
#pragma once

#include <memory>

#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/rng.hpp"

namespace lb::graph {

/// A (possibly stochastic) sequence of topologies over a fixed node set.
class GraphSequence {
 public:
  virtual ~GraphSequence() = default;

  virtual std::size_t num_nodes() const = 0;

  /// The network active in round k (k >= 1, matching the paper's
  /// indexing) as a TopologyFrame.  Implementations may be stateful;
  /// callers must request rounds in increasing order.  The returned
  /// reference is valid until the next frame_at/at_round/reset call.
  virtual const TopologyFrame& frame_at(std::size_t k) = 0;

  /// Materializing shim: the round's topology as a real Graph.  For
  /// masked sequences this builds (and caches) the subgraph — the
  /// pre-mask rebuild path, kept as the equivalence oracle.  Callers use
  /// either at_round or frame_at per round, never both.
  virtual const Graph& at_round(std::size_t k) { return frame_at(k).view(); }

  /// Rewind to round 1 replaying the identical frame stream (stochastic
  /// sequences re-seed their RNG).  Lets one sequence serve both the
  /// spectral profiling pass and the balancing run.
  virtual void reset() = 0;

  virtual std::string name() const = 0;
};

/// The constant sequence G, G, G, ... (reduces Section 5 to Section 4).
std::unique_ptr<GraphSequence> make_static_sequence(Graph g);

/// make_static_sequence of a copy of `g`.  A Graph copy shares the
/// original's CSR (and, for a lazy torus, its fill), so the campaign
/// layer (lb/exp/) serves many cells off one cached base graph with no
/// per-cell CSR copy.
std::unique_ptr<GraphSequence> make_static_view(const Graph& g);

/// Cycle through the given graphs: G_1, ..., G_p, G_1, ... (all must share
/// the node count).
std::unique_ptr<GraphSequence> make_periodic_sequence(std::vector<Graph> graphs);

/// Each round keeps every edge of the base graph independently with
/// probability `keep_prob` (fresh sample per round).
std::unique_ptr<GraphSequence> make_bernoulli_sequence(Graph base, double keep_prob,
                                                       std::uint64_t seed);

/// Per-edge two-state Markov chain: an UP edge fails with `fail_prob`, a
/// DOWN edge recovers with `recover_prob` (correlated across rounds —
/// a more realistic interconnect-failure model than i.i.d. Bernoulli).
std::unique_ptr<GraphSequence> make_markov_failure_sequence(Graph base,
                                                            double fail_prob,
                                                            double recover_prob,
                                                            std::uint64_t seed);

/// Each round's network is a fresh random maximal matching of the base
/// graph — the degenerate dynamic network under which diffusion becomes
/// dimension exchange.  (Materializing: matchings need full Graph
/// structure, see DESIGN.md §5.)
std::unique_ptr<GraphSequence> make_matching_sequence(Graph base, std::uint64_t seed);

/// Steady-state edge churn: `alive_fraction` of the base edges are up at
/// any time; every round `turnover`·m edges are taken down and the same
/// number of down edges brought back up (a link-maintenance model: the
/// set of live links drifts while capacity stays constant).
std::unique_ptr<GraphSequence> make_churn_sequence(Graph base, double alive_fraction,
                                                   double turnover,
                                                   std::uint64_t seed);

/// Partition/heal oscillation: the node set is split in half (ids below
/// n/2 vs the rest); for `period` rounds the network is whole, then for
/// `period` rounds every edge crossing the cut is down, repeating.  The
/// adversarial scenario for Theorems 7/8: disconnected phases contribute
/// nothing to A_K.
std::unique_ptr<GraphSequence> make_partition_sequence(Graph base,
                                                       std::size_t period);

/// Sweeping failure wave: a contiguous window of `width` node ids is down
/// (all incident edges dead); the window front advances `speed` ids per
/// round, wrapping around — a rolling-maintenance/cascading-outage model.
std::unique_ptr<GraphSequence> make_failure_wave_sequence(Graph base,
                                                          std::size_t width,
                                                          std::size_t speed);

/// Wrap a sequence so every frame is an unmasked, materialized Graph.
/// Masked inner rounds pay exactly ONE GraphBuilder::build() per round —
/// even rounds where the mask did not change, matching the pre-mask
/// stochastic sequences that rebuilt unconditionally — so this is the
/// faithful per-round-rebuild path the masked substrate replaced: the
/// equivalence oracle for tests and the ablation baseline for the
/// dynamic benches.  Non-owning: `inner` must outlive the wrapper.
std::unique_ptr<GraphSequence> make_materialized_view(GraphSequence& inner);

/// Owning variant of make_materialized_view.
std::unique_ptr<GraphSequence> make_materialized(std::unique_ptr<GraphSequence> inner);

}  // namespace lb::graph
