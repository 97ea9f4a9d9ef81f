// Edge-flow kernels: the blocked round's per-topology index, the shared
// per-edge update and StepStats rules, and the node-centric CSR ledger.
//
// A synchronous round in the paper is "compute every edge flow from the
// round-start snapshot, then apply all of them".  Because every flow is
// computed from round-start values, that equals each node receiving its
// ±flows in ascending edge order — the sequentialization the library's
// bit-identity contract rests on.  Every all-edges round runs as the one
// blocked round of round_context.hpp (DESIGN.md §9.2), indexed by the
// BlockedRoundPlan below — or, for a pair rule on an unmasked torus, as
// its stencil (§9.6), which needs no index; the seed's sequential edge
// sweep is the tests' oracle (tests/seed_oracle.hpp).
//
// The FlowLedger is a CSR view (row_ptr over nodes, column array of
// incident edge ids, ascending per row) whose gather applies a flow
// vector node-parallel with no atomics, bit-identical to the edge sweep.
// No round runs on it: it is the standalone gather the repository
// benchmark probes, and the layout the sharded domain plans and
// check::check_csr_slice share.  Both indexes are keyed on
// graph::Graph::revision(), a process-unique id minted per build, so they
// rebuild exactly when the topology changes.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "lb/core/algorithm.hpp"
#include "lb/core/metrics.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/index_array.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

/// Node-block width of the blocked round (DESIGN.md §9.2), in nodes:
/// set_blocked_width_override()'s width, else 16384 (64–128 KiB of load
/// vector — L2-resident on everything we target).  Always a multiple of
/// kSummaryChunkWidth so summary chunks never straddle a block; 0 means
/// one block spanning every node.  The width NEVER affects results —
/// every width is bit-identical (the property tests randomize it) — it
/// only decides how the round is split into tasks.
std::size_t blocked_round_width();

/// Test/bench hook: width < 0 clears the override (back to the default),
/// 0 forces a single block, > 0 is rounded up to a kSummaryChunkWidth
/// multiple and used as the block width.
void set_blocked_width_override(long long width);

/// Apply one signed flow share `g` to a node's value — the per-node
/// update of every round (e.u receives −f, e.v receives +f).
/// Bit-identical to the seed's edge sweep, with no branch: for g ≠ 0,
/// x − (−g) is x + g exactly (IEEE subtraction adds the negation), which
/// is the sweep's x ∓ |f|.  A zero share must leave x untouched, a −0.0
/// load included, like the sweep's skip: (−g) + 0.0 turns both zeros into
/// +0.0, and x − (+0.0) is x for every x.  (A select such as
/// `g == 0 ? −0.0 : g` would read more plainly, but compilers turn it
/// back into the data-dependent branch this form exists to avoid.)
/// Integral T adds the truncated share ±⌊|f|⌋; adding 0 is the identity.
template <class T>
inline void add_flow(T& x, double g) {
  if constexpr (std::is_integral_v<T>) {
    x += static_cast<T>(g);
  } else {
    x -= -g + 0.0;
  }
}

/// Count one edge's flow into a StepStats partial: the moved amount
/// |T(f)| into transferred, and the edge as active when it is nonzero.
/// Adding a zero amount to a partial that starts at +0.0 changes no bit,
/// so this matches the sweep's skip without a branch.
template <class T>
inline void count_flow(StepStats& s, double f) {
  if constexpr (std::is_integral_v<T>) {
    const T amount = static_cast<T>(f);
    s.transferred += static_cast<double>(amount < 0 ? -amount : amount);
    s.active_edges += amount != 0 ? 1 : 0;
  } else {
    s.transferred += std::fabs(f);
    s.active_edges += f != 0.0 ? 1 : 0;
  }
}

/// Fold one chunk's StepStats partial into the round total — the
/// fixed-chunk StepStats contract (DESIGN.md §7): each edge counts in the
/// kSummaryChunkWidth-node chunk of its lower endpoint, summed in
/// ascending edge order from +0.0, and the chunk partials fold in chunk
/// order.  Tokens sum exactly; Real totals depend only on n, never on the
/// pool, block width or shard count.
inline void fold_chunk_stats(StepStats& total, const StepStats& chunk) {
  total.transferred += chunk.transferred;
  total.active_edges += chunk.active_edges;
}

/// Edges [first, last) of one sweep's own — consecutive base ids whose
/// endpoints it both owns — which the sweep enters once its cut entries
/// [0, cuts_before) are applied (round_context.hpp's sweep_domain).
struct SweepRun {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  std::uint32_t cuts_before = 0;
};

/// The blocked round's per-topology index (DESIGN.md §9.2), keyed on
/// (base revision, block width) and held in one allocation:
///   * chunk_begin(c) — the first edge whose canonical lower endpoint lies
///     in summary chunk c.  Edges are sorted by u, so chunk c's own edges
///     are [chunk_begin(c), chunk_begin(c + 1)).
///   * cut_entries(b) — block b's cut edges, ascending: first its
///     incoming ones (u in an earlier block, v in b), then its outgoing
///     ones (u in b, v in a later block).
///   * runs(b) — block b's uncut edges (both endpoints in b), split at its
///     outgoing cut entries, each with the count of b's entries before it.
/// A block is the domain sweep's contiguous domain: its edges are
/// [chunk_begin of its first chunk, chunk_begin past its last), so every
/// incoming entry sorts before them and the outgoing ones among them.
/// Masks kill edges, not index entries: masked rounds share their base's
/// plan and skip dead edges as they walk it.
class BlockedRoundPlan {
 public:
  bool valid_for(const graph::Graph& base, std::size_t width) const {
    return revision_ != 0 && revision_ == base.revision() && width_ == width;
  }
  /// Build for `base` cut into blocks of `width` nodes (a positive
  /// kSummaryChunkWidth multiple).  O(m + (n/1024)·log m), with no
  /// division per edge.  Allocates once, and not at all when the index
  /// fits the capacity an earlier build left.
  void rebuild(const graph::Graph& base, std::size_t width);
  void ensure(const graph::Graph& base, std::size_t width) {
    if (!valid_for(base, width)) rebuild(base, width);
  }

  std::size_t width() const { return width_; }
  std::size_t chunk_begin(std::size_t c) const { return words_[c]; }
  std::span<const std::uint32_t> cut_entries(std::size_t b) const {
    const std::uint32_t* cut_ptr = words_ + chunks_ + 1;
    const std::uint32_t* ids = cut_ptr + 2 * (blocks_ + 1);
    return {ids + cut_ptr[b], cut_ptr[b + 1] - cut_ptr[b]};
  }
  std::span<const SweepRun> runs(std::size_t b) const {
    const std::uint32_t* run_ptr = words_ + chunks_ + 1 + blocks_ + 1;
    return {runs_ + run_ptr[b], run_ptr[b + 1] - run_ptr[b]};
  }

 private:
  std::uint64_t revision_ = 0;
  std::size_t width_ = 0;
  std::size_t chunks_ = 0;
  std::size_t blocks_ = 0;
  // The one allocation, kept while a rebuild fits it: the words
  // chunk_begin[chunks + 1] | cut_ptr[blocks + 1] | run_ptr[blocks + 1] |
  // cut entries, then the runs.
  std::unique_ptr<std::byte[]> storage_;
  std::size_t capacity_ = 0;  // bytes
  std::uint32_t* words_ = nullptr;
  SweepRun* runs_ = nullptr;
};

class FlowLedger {
 public:
  FlowLedger() = default;

  /// Build the CSR incident-edge view for `g`.  O(n + m).
  void rebuild(const graph::Graph& g);

  /// True if the ledger was built for exactly this topology epoch.
  bool valid_for(const graph::Graph& g) const {
    return revision_ != 0 && revision_ == g.revision();
  }

  /// Drop the cached view; the next ensure() rebuilds.
  void invalidate() { revision_ = 0; }

  /// Rebuild iff the cached view does not match `g`'s epoch.  Returns true
  /// when a rebuild happened, so callers can refresh their own per-epoch
  /// caches in lockstep.
  bool ensure(const graph::Graph& g) {
    if (valid_for(g)) return false;
    rebuild(g);
    return true;
  }

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Read-only views of the CSR arrays, for the lb::check invariant layer
  /// (check_ledger recomputes well-formedness from these after each epoch
  /// rebuild).  Layout documented at the member declarations below.
  const util::IndexArray& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& edge_indices() const { return edge_idx_; }
  const std::vector<std::int8_t>& signs() const { return sign_; }
  /// Resident bytes of the ledger's index/sign arrays — the CSR half of
  /// the bytes/node scale metric.
  std::size_t memory_bytes() const {
    return row_ptr_.size_bytes() + edge_idx_.size() * sizeof(std::uint32_t) +
           sign_.size() * sizeof(std::int8_t);
  }

  /// Apply signed per-edge flows (positive moves load e.u -> e.v) to
  /// `load`, node-parallel on `pool` (nullptr runs inline).  `g` must be
  /// the graph the ledger was built for.  Bit-identical to the seed's
  /// edge sweep on the same flows for any pool size.
  template <class T>
  void apply(const graph::Graph& g, const std::vector<double>& flows,
             std::vector<T>& load, util::ThreadPool* pool) const;

  /// Fused apply + deterministic summary: performs the exact same per-node
  /// load updates as apply(), and while each node's final value is still in
  /// register accumulates it into the fixed-chunk reduction of
  /// core/metrics.hpp (Φ measured against `average`).  Both the loads and
  /// `out` are bit-identical to apply() followed by
  /// summarize_deterministic() at every pool size, including sequential.
  /// `parts` is the caller's per-chunk partial scratch (RunArena keeps one
  /// per run) so steady-state rounds allocate nothing.
  template <class T>
  void apply_with_summary(const graph::Graph& g, const std::vector<double>& flows,
                          std::vector<T>& load, util::ThreadPool* pool,
                          double average, SummaryMode mode,
                          std::vector<SummaryPartial<T>>& parts,
                          LoadSummary<T>& out) const;

 private:
  // The per-node row walk: node u's final value from its incident rows in
  // ascending edge order, with add_flow's per-edge update (sign_[p]·f is
  // exactly ±f), so the gather is bit-identical to the edge sweep.
  template <class T>
  T gather_node(std::size_t u, const std::vector<double>& flows,
                const std::vector<T>& load) const {
    T value = load[u];
    const std::size_t row_end = static_cast<std::size_t>(row_ptr_[u + 1]);
    for (std::size_t p = static_cast<std::size_t>(row_ptr_[u]); p < row_end; ++p) {
      add_flow(value, sign_[p] * flows[edge_idx_[p]]);
    }
    return value;
  }

  std::uint64_t revision_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  util::IndexArray row_ptr_;             // n + 1 entries (CsrMatrix layout; narrow when 2m < 2^32)
  std::vector<std::uint32_t> edge_idx_;  // 2m incident edge ids, ascending per row
  std::vector<std::int8_t> sign_;        // -1 if the row's node is the edge's u
};

/// transferred/active_edges of a flow vector summed in plain edge order.
/// Equal to the fixed-chunk contract's fold (fold_chunk_stats) whenever
/// n ≤ kSummaryChunkWidth or T is integral; kept for callers that only
/// hold the flow vector.
template <class T>
void accumulate_flow_totals(const std::vector<double>& flows, StepStats& stats);

/// Fill `flows` with flow_fn(edge_index, edge, load_u, load_v) for every
/// edge, edge-parallel on `pool` (nullptr = sequential).  flow_fn must be
/// pure in its inputs; positive return moves load u -> v.
template <class T, class FlowFn>
void compute_edge_flows(const graph::Graph& g, const std::vector<T>& load,
                        std::vector<double>& flows, util::ThreadPool* pool,
                        FlowFn&& flow_fn) {
  const auto& edges = g.edges();
  flows.resize(edges.size());  // every slot is written below; no zero-fill
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const graph::Edge& e = edges[k];
      flows[k] = flow_fn(k, e, static_cast<double>(load[e.u]),
                         static_cast<double>(load[e.v]));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, edges.size(), 2048, fill);
  } else {
    fill(0, edges.size());
  }
}

}  // namespace lb::core
