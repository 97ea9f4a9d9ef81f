// RoundContext: everything one balancing round executes against.
//
// Before this existed, Balancer::step(g, load, rng) gave algorithms no
// access to the thread pool or reusable scratch, so each balancer
// re-plumbed its own (flow buffers, snapshots, CSR ledgers).  The context
// bundles the per-round view (graph + rng + pool) with the per-run
// resources (scratch arena + the blocked round's plan, keyed on the
// graph's topology epoch), and carries the engine's fused-summary request
// so the metrics sweep can ride inside the apply phase instead of being a
// second O(n) pass.  See DESIGN.md §3 for the contract.  The file ends
// with the one CSR all-edges kernel both executors run (sweep_domain,
// DESIGN.md §7), the torus stencil for unmasked 2-D tori (§9.6), and the
// shared-memory all-edges round that picks between them
// (run_blocked_round, §9.2).
//
// Ownership model:
//   * RunArena<T> lives for a whole run (the engine owns one per run; the
//     deprecated legacy step() shim owns one per balancer).  Its buffers
//     are sized lazily by whoever uses them and reused across rounds.
//   * RoundContext<T> is a cheap per-round view: references into the
//     arena plus the current graph/rng/pool and the summary slot.  It is
//     constructed fresh each round (dynamic sequences swap the graph).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::linalg {
class SpectralCache;
}

namespace lb::core {

/// Per-run reusable state shared by every round: scratch buffers sized
/// lazily by the balancers that use them, plus the blocked round's plan,
/// re-keyed on graph::Graph::revision() (the topology epoch) so dynamic
/// sequences rebuild it exactly when the topology changes.
///
/// An arena may also outlive a run: Engine::run's caller-owned-arena
/// overload lets back-to-back runs share one, in which case the
/// revision-keyed indexes survive across runs on the same base — the
/// campaign layer's per-cell amortization (lb/exp/, DESIGN.md §6).  That
/// reuse is sound because nothing here is trajectory state: every buffer
/// is (re)assigned before it is read within a round.
template <class T>
class RunArena {
 public:
  /// Per-edge signed flow buffer (positive moves load u -> v).  No round
  /// of the library writes it — a sharded round keeps each cut flow in its
  /// entry's slot — so it serves callers that replay rounds from outside
  /// (perfbench's replay and probes).
  std::vector<double>& flows() { return flows_; }
  /// Per-node T scratch: the blocked round's output buffer (swapped with
  /// the load vector every round), random-partner deltas.
  std::vector<T>& node_scratch() { return node_scratch_; }
  /// Per-node flag scratch (e.g. async activation sets).
  std::vector<std::uint8_t>& node_flags() { return node_flags_; }
  /// Per-chunk partial buffer for the deterministic summary reductions
  /// (fused_sweep_with_summary's scratch overload, the blocked round) —
  /// kept here so steady-state rounds perform zero transient allocations.
  std::vector<SummaryPartial<T>>& summary_parts() { return summary_parts_; }
  /// Per-chunk StepStats partials of the blocked round.
  std::vector<StepStats>& chunk_stats() { return chunk_stats_; }
  /// The blocked round's (base revision, width)-keyed index.
  BlockedRoundPlan& round_plan() { return round_plan_; }
  /// round_plan() built for `base` at blocked_round_width() (0: one block
  /// over every summary chunk), as the rounds that read it ensure it.
  const BlockedRoundPlan& round_plan(const graph::Graph& base) {
    const std::size_t width = blocked_round_width();
    round_plan_.ensure(base, width != 0 ? width
                                        : summary_chunk_count(base.num_nodes()) *
                                              kSummaryChunkWidth);
    return round_plan_;
  }
  /// The torus stencil's flow buffers (flows as the round applies them:
  /// Real flows, token amounts), one cache-sized slot per task.
  std::vector<T>& stencil_flows() { return stencil_flows_; }
  /// The round's FlowProgram, as the executors have plan_round() fill it
  /// (Balancer::step's default, the sharded engine).
  FlowProgram<T>& program() { return program_; }

  /// No-op.  Rounds once cached the load vector across calls and callers
  /// had to drop that cache after mutating loads; the blocked round reads
  /// only the load it is handed, so there is nothing left to invalidate.
  void invalidate_snapshot() {}

 private:
  std::vector<double> flows_;
  std::vector<T> node_scratch_;
  std::vector<std::uint8_t> node_flags_;
  std::vector<SummaryPartial<T>> summary_parts_;
  std::vector<StepStats> chunk_stats_;
  BlockedRoundPlan round_plan_;
  std::vector<T> stencil_flows_;
  FlowProgram<T> program_;
};

template <class T>
class RoundContext {
 public:
  /// Frame-carrying constructor: the round executes against a
  /// TopologyFrame (base graph + optional edge-alive mask).  The frame —
  /// and the base/mask it references — must outlive the round.
  RoundContext(const graph::TopologyFrame& frame, util::Rng& rng,
               util::ThreadPool* pool, RunArena<T>& arena)
      : frame_(&frame), rng_(&rng), pool_(pool), arena_(&arena) {}

  /// Full-graph convenience constructor (static rounds, the legacy
  /// step() shim, direct test call sites).
  RoundContext(const graph::Graph& g, util::Rng& rng, util::ThreadPool* pool,
               RunArena<T>& arena)
      : own_frame_(g), frame_(&own_frame_), rng_(&rng), pool_(pool), arena_(&arena) {}

  /// The round's topology frame.  Mask-aware balancers read degrees and
  /// edge liveness from here and never materialize.
  const graph::TopologyFrame& frame() const { return *frame_; }
  bool masked() const { return frame_->masked(); }

  /// The round's network as a real Graph.  On masked rounds this
  /// *materializes* the subgraph (lazily, cached per mask revision), at
  /// the old rebuild cost.  Only one-time spectral bindings read it (SOS's
  /// auto-β γ, OPS's schedule); every round, matchings included, runs
  /// on frame() (DESIGN.md §5).
  const graph::Graph& graph() const { return frame_->view(); }
  util::Rng& rng() { return *rng_; }

  /// The pool rounds parallelize on; nullptr (or a one-worker pool)
  /// runs the round sequentially, with the same bits.
  util::ThreadPool* pool() const { return pool_; }

  RunArena<T>& arena() { return *arena_; }

  /// Shared spectral cache (EngineConfig::spectral_cache; DESIGN.md §10),
  /// or nullptr when the run is cold.  Balancers that bind schedules to
  /// spectral quantities (SOS auto-β, OPS) route their lookups through it
  /// when present; its schedule-feeding paths (summary/spectrum) are
  /// Tier-1 exact, so the trajectory is bit-identical either way.
  linalg::SpectralCache* spectral_cache() const { return spectral_cache_; }
  void set_spectral_cache(linalg::SpectralCache* cache) { spectral_cache_ = cache; }

  // --- Fused-summary protocol (engine -> balancer) ---------------------
  //
  // The engine requests a post-round LoadSummary with Φ measured against
  // `average` (the run-start average; see metrics.hpp).  A balancer whose
  // apply phase sweeps every node SHOULD compute the summary during that
  // sweep (the blocked round, or a fixed-chunk fused loop) and publish it;
  // the engine falls back to a standalone deterministic reduction
  // otherwise.  Either way the bits are identical — publishing just saves
  // the second pass over the load vector.

  void request_summary(SummaryMode mode, double average) {
    summary_requested_ = true;
    summary_mode_ = mode;
    summary_average_ = average;
  }
  bool summary_requested() const { return summary_requested_; }
  SummaryMode summary_mode() const { return summary_mode_; }
  double summary_average() const { return summary_average_; }

  void publish_summary(const LoadSummary<T>& s) {
    summary_ = s;
    has_summary_ = true;
  }
  bool has_summary() const { return has_summary_; }
  const LoadSummary<T>& summary() const { return summary_; }

 private:
  graph::TopologyFrame own_frame_;  // backs the Graph convenience ctor
  const graph::TopologyFrame* frame_;
  util::Rng* rng_;
  util::ThreadPool* pool_;
  RunArena<T>* arena_;
  linalg::SpectralCache* spectral_cache_ = nullptr;

  bool summary_requested_ = false;
  SummaryMode summary_mode_ = SummaryMode::kFull;
  double summary_average_ = 0.0;
  bool has_summary_ = false;
  LoadSummary<T> summary_{};
};

namespace detail {

/// A flow as a round applies it: the flow itself for Real loads; for
/// Tokens the whole-token amount add_flow and count_flow cut from it,
/// static_cast<T>(f) — or the rule's own amount(), which states the same
/// value (flow_program.hpp).  This form takes a pair rule, as the torus
/// stencil, which has no edge to pass, calls it.
template <class T, PairFlowRule Rule>
T applied_flow(const Rule& rule, double lu, double lv) {
  if constexpr (std::is_integral_v<T> && requires { rule.amount(lu, lv); }) {
    return rule.amount(lu, lv);
  } else {
    return static_cast<T>(rule(lu, lv));
  }
}

/// applied_flow for edge k = e under a rule of either form.
template <class T, class Rule>
T applied_flow(const Rule& rule, std::size_t k, const graph::Edge& e, double lu, double lv) {
  if constexpr (PairFlowRule<Rule>) {
    return applied_flow<T>(rule, lu, lv);
  } else {
    return static_cast<T>(rule(k, e, lu, lv));
  }
}

/// add_flow on a share as applied_flow states it.  For Tokens, x += ±a is
/// add_flow's x += T(±f): truncation is odd.
template <class T>
void apply_share(T& x, T share) {
  if constexpr (std::is_integral_v<T>) {
    x += share;
  } else {
    add_flow(x, share);
  }
}

/// One summary chunk's StepStats as a sweep counts them, each edge's flow
/// as applied_flow states it, in ascending edge order.  Real flows take
/// the seed's double chain (count_flow).  finish() gets a bound on the
/// number of terms, the chunk's edge count.
template <class T>
struct ChunkCount {
  StepStats s;
  void add(T f) { count_flow<T>(s, f); }
  bool finish(StepStats& out, std::size_t) const {
    out = s;
    return true;
  }
};

/// Token amounts are whole, so their magnitudes sum in an integer.  That
/// equals the seed's double chain whenever the total is at most 2^53: every
/// term and every partial sum is then an exactly representable integer.
/// The sum runs modulo 2^64; `bits`, the OR of the terms, bounds them, so
/// with the term count it proves the sum never wrapped.  finish() reports
/// false when it cannot prove that, or when the total is past 2^53, and
/// the caller recounts the chunk's double chain instead.
template <std::integral T>
struct ChunkCount<T> {
  std::uint64_t moved = 0;
  std::uint64_t bits = 0;
  std::size_t active = 0;
  void add(T a) {
    const auto magnitude = static_cast<std::uint64_t>(a < 0 ? -a : a);
    moved += magnitude;
    bits |= magnitude;
    active += a != 0 ? 1 : 0;
  }
  bool finish(StepStats& out, std::size_t terms) const {
    // Every term is below 2^bit_width(bits), so the sum is below 2^64
    // when the two widths add up to at most 64.
    if (std::bit_width(bits) + std::bit_width(terms) > 64 || moved > (std::uint64_t{1} << 53)) {
      return false;
    }
    out.transferred = static_cast<double>(moved);
    out.active_edges = active;
    return true;
  }
};

/// The nodes one sweep owns, ascending: every node of [lo, hi), or only
/// those in `list`, which then runs from lo to hi − 1.
struct SweepNodes {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::span<const graph::NodeId> list;  // empty: all of [lo, hi)

  /// True when the sweep owns every node of [clo, chi): for a list, its
  /// first node at or past clo then starts chi − clo distinct ascending
  /// ids, the last of which is chi − 1.
  bool owns_all(std::size_t clo, std::size_t chi) const {
    if (list.empty()) return lo <= clo && chi <= hi;
    const auto it = std::lower_bound(list.begin(), list.end(), clo,
                                     [](graph::NodeId u, std::size_t x) { return u < x; });
    const auto len = static_cast<std::ptrdiff_t>(chi - clo);
    return list.end() - it >= len && it[len - 1] == chi - 1;
  }
};

/// One all-edges round as every sweep sees it: the round-start loads, the
/// output, the plan's chunk slices (null for the torus stencil, which
/// reads none), where each finished summary chunk writes its StepStats
/// and Φ/K partial, and the round's post.
template <class T>
struct AllEdgesRound {
  const graph::TopologyFrame& frame;
  const std::vector<T>& load;
  std::vector<T>& out;
  const BlockedRoundPlan* index;
  StepStats* stats;
  SummaryPartial<T>* parts;  // null when no summary was requested
  double average;
  SummaryMode mode;
  BetaCombine<T> post;

  std::size_t chunk_lo(std::size_t c) const { return c * kSummaryChunkWidth; }
  std::size_t chunk_hi(std::size_t c) const {
    return std::min(load.size(), chunk_lo(c) + kSummaryChunkWidth);
  }

  /// Chunk c's StepStats by the seed's double chain: its edges ascending,
  /// dead ones skipped, each flow re-evaluated from the round-start loads
  /// (flows are pure, so these are the bits the round applied; a sharded
  /// round's halo copies are the same bits).  Out of line and cold: a
  /// sweep recounts only past 2^53 tokens, the sharded barrier only the
  /// chunks no domain owns whole, and each kernel instantiation would
  /// otherwise carry this loop.
  template <class Rule>
  [[gnu::noinline, gnu::cold]] StepStats count_chunk(const Rule& rule, std::size_t c) const {
    const auto& edges = frame.base().edges();
    StepStats s;
    for (std::size_t k = index->chunk_begin(c); k < index->chunk_begin(c + 1); ++k) {
      if (!frame.alive(k)) continue;
      const graph::Edge& e = edges[k];
      count_flow<T>(s, rule_flow(rule, k, e, static_cast<double>(load[e.u]),
                                 static_cast<double>(load[e.v])));
    }
    return s;
  }

  /// Chunk c's nodes are final: run the post on them (SOS's β-combine),
  /// then fold the chunk's Φ/K partial.  Out of line: it does not depend
  /// on the rule, so the sweep's instantiations share one copy per
  /// scalar.  Not cold: it folds every node each round, and GCC compiles
  /// a cold function for size.
  [[gnu::noinline]] void finish_nodes(std::size_t c) const {
    const std::size_t lo = chunk_lo(c);
    const std::size_t hi = chunk_hi(c);
    if (post) {
      for (std::size_t u = lo; u < hi; ++u) out[u] = post(u, out[u], load[u]);
    }
    if (parts == nullptr) return;
    SummaryPartial<T> p;
    summary_begin(p, out[lo]);
    for (std::size_t u = lo; u < hi; ++u) summary_accumulate(p, out[u], average, mode);
    parts[c] = p;
  }
};

/// The one CSR all-edges kernel (DESIGN.md §7, §9.2): one domain's sweep.
/// It seeds the domain's nodes with their round-start loads, then walks
/// its cut entries and its runs of own edges in ascending base order —
/// each run edge's flow evaluated once from the round-start loads, each
/// cut entry's share applied — so every owned node takes its ±flows in the
/// seed's edge order.  `cuts` is where a cut flow comes from: edge(j) is
/// cut entry j's base edge, and apply<kMasked>(j, out, moved) applies its
/// share to its owned endpoint and returns true for an outgoing entry
/// (the domain owns its u), with `moved` its flow as the round applies it
/// (applied_flow).  A dead edge applies nothing and counts zero or
/// nothing.  A shared-memory block re-evaluates that flow from the
/// round-start loads (EvaluatedCuts); a sharded domain stages it from its
/// halo.
///
/// The walk also finishes every summary chunk the domain owns whole.  All
/// of such a chunk's edges are the domain's: run edges and outgoing cut
/// entries, each counted where it is applied.  Runs are split at chunk
/// ends, so the inner loop makes no chunk test.  Every edge touching a
/// chunk lies below the next chunk's first edge (its lower endpoint is at
/// or before the chunk), so once the walk reaches that edge — a run edge
/// or a cut entry — the chunk's nodes are final and finish_nodes runs.
/// Writes only its own nodes' `out` slots and its whole chunks' partials.
template <bool kMasked, class T, class Rule, class Cuts>
void sweep_domain(const AllEdgesRound<T>& round, const SweepNodes& nodes,
                  std::span<const SweepRun> runs, std::size_t cut_entries, const Rule& rule,
                  const Cuts& cuts) {
  const auto& edges = round.frame.base().edges();
  const graph::EdgeMask* mask = round.frame.mask();
  const std::vector<T>& load = round.load;
  std::vector<T>& out = round.out;
  if (nodes.lo >= nodes.hi) return;
  if (nodes.list.empty()) {
    std::copy_n(load.data() + nodes.lo, nodes.hi - nodes.lo, out.data() + nodes.lo);
  } else {
    for (const graph::NodeId u : nodes.list) out[u] = load[u];
  }

  // The walk's chunk c, from the one holding the domain's first node to
  // the one holding its last: its edges end at c_end.
  std::size_t c = nodes.lo / kSummaryChunkWidth;
  const std::size_t last = (nodes.hi - 1) / kSummaryChunkWidth;
  bool whole = false;
  std::size_t c_end = 0;
  ChunkCount<T> count;
  const auto open = [&] {
    whole = nodes.owns_all(round.chunk_lo(c), round.chunk_hi(c));
    c_end = round.index->chunk_begin(c + 1);
    count = {};
  };
  const auto close = [&] {
    if (whole) {
      const std::size_t terms = c_end - round.index->chunk_begin(c);
      if (!count.finish(round.stats[c], terms)) round.stats[c] = round.count_chunk(rule, c);
      round.finish_nodes(c);
    }
    if (++c <= last) open();
  };
  open();
  // Each run, entered once the entries before it are applied; past the
  // last run, an empty one that waits for every entry.
  std::size_t j = 0;
  for (std::size_t r = 0; r <= runs.size(); ++r) {
    const SweepRun run =
        r < runs.size() ? runs[r] : SweepRun{0, 0, static_cast<std::uint32_t>(cut_entries)};
    for (; j < run.cuts_before; ++j) {
      while (cuts.edge(j) >= c_end) close();
      T moved{};
      if (cuts.template apply<kMasked>(j, out.data(), moved) && whole) count.add(moved);
    }
    for (std::size_t k = run.first; k < run.last;) {
      while (k >= c_end) close();
      const std::size_t end = std::min<std::size_t>(run.last, c_end);
      // A copy whose address is never taken, so no store to `out` may
      // alias its counters and they stay in registers.
      ChunkCount<T> run_count = count;
      for (; k < end; ++k) {
        if (kMasked && !mask->alive(k)) continue;
        const graph::Edge& e = edges[k];
        const T f = applied_flow<T>(rule, k, e, static_cast<double>(load[e.u]),
                                    static_cast<double>(load[e.v]));
        apply_share(out[e.u], static_cast<T>(-f));
        apply_share(out[e.v], f);
        run_count.add(f);
      }
      count = run_count;
    }
  }
  while (c <= last) close();
}

/// Where a shared-memory block's cut flows come from: every load is
/// local, so each is re-evaluated from the round-start loads.  The block
/// [lo, ...) takes +f on the v side of an incoming entry (u below lo) and
/// −f on the u side of an outgoing one; a dead edge's entry applies and
/// moves nothing.
template <class T, class Rule>
struct EvaluatedCuts {
  const Rule& rule;
  const std::vector<graph::Edge>& edges;
  const graph::EdgeMask* mask;
  const T* load;
  const std::uint32_t* entries;  // the block's cut entries
  std::size_t lo;                // the block's first node

  std::uint32_t edge(std::size_t j) const { return entries[j]; }
  template <bool kMasked>
  bool apply(std::size_t j, T* out, T& moved) const {
    const std::uint32_t k = entries[j];
    if (kMasked && !mask->alive(k)) return false;
    const graph::Edge& e = edges[k];
    moved = flow(k);
    const bool outgoing = e.u >= lo;
    apply_share(outgoing ? out[e.u] : out[e.v], outgoing ? static_cast<T>(-moved) : moved);
    return outgoing;
  }
  // Out of line: cut edges are few, and the kernel's instantiations would
  // otherwise each carry the rule once more.
  [[gnu::noinline]] T flow(std::size_t k) const {
    const graph::Edge& e = edges[k];
    return applied_flow<T>(rule, k, e, static_cast<double>(load[e.u]),
                           static_cast<double>(load[e.v]));
  }
};

/// The frame both executors' all-edges rounds share: sizes the arena's
/// output and chunk partials, hands `sweep` the round — whose kernels
/// write every node of the output and every chunk's StepStats and, when a
/// summary was requested, Φ/K partial — then folds the StepStats,
/// publishes the summary and swaps the output into `load`, so a round may
/// hand the caller's vector a different buffer.  `links` is left to the
/// caller.
template <class T, class Sweep>
StepStats run_all_edges(RoundContext<T>& ctx, std::vector<T>& load,
                        const BlockedRoundPlan* index, BetaCombine<T> post, Sweep&& sweep) {
  RunArena<T>& arena = ctx.arena();
  const std::size_t n = load.size();
  std::vector<T>& out = arena.node_scratch();
  out.resize(n);
  std::vector<StepStats>& stats = arena.chunk_stats();
  stats.resize(summary_chunk_count(n));
  std::vector<SummaryPartial<T>>& parts = arena.summary_parts();
  const bool summarize = ctx.summary_requested();
  if (summarize) parts.resize(stats.size());
  const double average = ctx.summary_average();
  const SummaryMode mode = ctx.summary_mode();
  sweep(AllEdgesRound<T>{ctx.frame(), load, out, index, stats.data(),
                         summarize ? parts.data() : nullptr, average, mode, post});
  StepStats total;
  for (const StepStats& s : stats) fold_chunk_stats(total, s);
  if (summarize) ctx.publish_summary(combine_summary_partials(parts, n, average, mode));
  load.swap(out);
  return total;
}

/// Summary chunks one torus-stencil group covers (DESIGN.md §9.6).  A
/// group's flow buffers stay cache-resident between its passes, and its
/// chunks' StepStats and Φ/K chains run in lockstep.
inline constexpr std::size_t kStencilGroupChunks = 4;
inline constexpr std::size_t kStencilGroupWidth = kStencilGroupChunks * kSummaryChunkWidth;

/// Nonzero entries of f[0, len): the active_edges of a run of Real
/// flows, as count_flow counts them (f != 0.0, so a NaN counts).  Counted
/// in doubles, which vectorizes, over eight lanes, which keeps the adds
/// from waiting on each other; a count below 2^53 is exact in any order.
inline std::size_t count_nonzero(const double* f, std::size_t len) {
  constexpr std::size_t kLanes = 8;
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= len; i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) lanes[k] += f[i + k] != 0.0 ? 1.0 : 0.0;
  }
  double count = 0.0;
  for (; i < len; ++i) count += f[i] != 0.0 ? 1.0 : 0.0;
  for (const double lane : lanes) count += lane;
  return static_cast<std::size_t>(count);
}

/// The all-edges round of a pair rule on an unmasked make_torus2d graph
/// (DESIGN.md §9.6): neighbours come from the node index, so the round
/// reads no edge list, no denominator and no plan.  Node w = r·cols + c.
/// Every edge is one of
///   H(w) — w to its right-hand neighbour; for the row tail the wrap edge
///          (row head, tail), whose canonical u is the head;
///   V(w) — w to the node below; for the last row the wrap edge
///          (column head, w), whose canonical u is the column head;
/// and its flow is rule(ℓ_u, ℓ_v) in canonical orientation, the bits the
/// CSR round computes; the buffers keep it as the round applies it
/// (applied_flow).  Nodes run in groups of kStencilGroupWidth; a group
/// [lo, hi) keeps, with j = w − lo,
///   h[j + 1] = H(w), h[0] = H(lo − 1) (its first node's left flow) and
///              h[hi − lo + 1] = H of the tail of a row that runs past hi;
///   v[j + cols] = V(w), and v[j] the flow from the node above w — so
///              v[j] = V(w − cols) past the group's first row.
/// h[0], h[hi − lo + 1] and the first row's up flows are the group's
/// halo: flows another group owns, re-evaluated (flows are pure, so the
/// bits are the same).  Only pass 1 reads the rule.
template <class T>
class TorusStencil {
 public:
  TorusStencil(const graph::TorusShape& shape, const AllEdgesRound<T>& round)
      : rows_(shape.rows),
        cols_(shape.cols),
        last_row_((shape.rows - 1) * shape.cols),
        n_(round.load.size()),
        span_(std::min(n_, kStencilGroupWidth)),
        load_(round.load.data()),
        out_(round.out.data()),
        post_(round.post) {}

  /// Flow-buffer entries one task needs.
  std::size_t slot_size() const { return 2 * span_ + 2 + cols_; }

  /// Write out[lo, hi) of groups [first, last), in order on one buffer
  /// slot, run the post on them, and fold the partials of their summary
  /// chunks (`parts` null: no summary).
  template <class Rule>
  void run_groups(std::size_t first, std::size_t last, T* buf, const Rule& rule,
                  StepStats* stats, SummaryPartial<T>* parts, double average,
                  SummaryMode mode) const {
    for (std::size_t group = first; group < last; ++group) {
      const std::size_t lo = group * kStencilGroupWidth;
      const std::size_t hi = std::min(n_, lo + kStencilGroupWidth);
      const Group g{lo, hi, lo == 0 ? 0 : lo / cols_, buf, buf + span_ + 2};
      evaluate_flows(g, [&rule](double lu, double lv) { return applied_flow<T>(rule, lu, lv); });
      finish_group(g, stats, parts, average, mode);
    }
  }

 private:
  struct Group {
    std::size_t lo, hi;
    std::size_t row;  // row of node lo
    T* h;
    T* v;
  };

  // Where a node sits: which vertical neighbours are lower ids, and which
  // row neighbour is a wrap edge.
  enum class RowKind : std::uint8_t { kFirst, kMiddle, kLast };
  enum class ColKind : std::uint8_t { kHead, kInterior, kTail };

  double l(std::size_t w) const { return static_cast<double>(load_[w]); }

  // Passes 2 and 3 of a group, with the post between them.  Out of line:
  // they do not read the rule, so every rule's round shares one copy per
  // scalar.
  [[gnu::noinline]] void finish_group(const Group& g, StepStats* stats,
                                      SummaryPartial<T>* parts, double average,
                                      SummaryMode mode) const {
    write_nodes(g);
    if (post_) {
      for (std::size_t w = g.lo; w < g.hi; ++w) out_[w] = post_(w, out_[w], load_[w]);
    }
    with_summary_mode(parts, mode, [&](auto summary, auto summary_mode) {
      constexpr bool kSummary = decltype(summary)::value;
      constexpr SummaryMode kMode = decltype(summary_mode)::value;
      if (g.hi - g.lo == kStencilGroupWidth) {
        fold_chunks<kSummary, kMode>(g, stats, parts, average);
      } else {
        fold_nodes<kSummary, kMode>(g, stats, parts, average);
      }
    });
  }

  // count_flow less a Real flow's active edge, which the caller counts for
  // a whole run at once with the vectorized count_nonzero.
  static void count_moved(StepStats& s, T a) {
    if constexpr (std::is_integral_v<T>) {
      count_flow<T>(s, a);
    } else {
      s.transferred += std::fabs(a);
    }
  }

  // The wrap flow H(tail) of head w's row: in the buffer, or the halo
  // slot when the row runs past the group.
  T tail_flow(const Group& g, std::size_t w) const {
    return w + cols_ - 1 < g.hi ? g.h[w + cols_ - g.lo] : g.h[g.hi - g.lo + 1];
  }

  // Pass 1: every flow the group's nodes read, each edge's evaluated
  // once.  First the halo: the tail flow of a row that runs past hi,
  // H(lo − 1) when the group starts inside a row, and the first row's up
  // flows (the wrap edges on row 0).  Then H and V of every node in one
  // sweep each.  The H sweep also evaluates ℓ_tail against the next row's
  // head, which is no edge, at every row tail; the tail's wrap flow then
  // replaces it.  flow(ℓ_u, ℓ_v) is the rule's applied_flow.
  template <class Flow>
  void evaluate_flows(const Group& g, const Flow& flow) const {
    const std::size_t lo = g.lo, hi = g.hi, b = cols_;
    T* h = g.h;
    T* v = g.v;
    const std::size_t first_head = g.row * b;
    const std::size_t last_head = hi == n_ ? last_row_ : (hi - 1) / b * b;
    if (last_head >= lo && last_head + b > hi) {
      h[hi - lo + 1] = flow(l(last_head), l(last_head + b - 1));
    }
    h[0] = lo != first_head ? flow(l(lo - 1), l(lo)) : T{};
    const std::size_t up_end = std::min(hi, lo + b);
    std::size_t w = lo;
    for (; w < std::min(up_end, b); ++w) v[w - lo] = flow(l(w), l(w + last_row_));
    for (; w < up_end; ++w) v[w - lo] = flow(l(w - b), l(w));
    for (std::size_t x = lo, end = std::min(hi, n_ - 1); x < end; ++x) {
      h[x + 1 - lo] = flow(l(x), l(x + 1));
    }
    for (std::size_t tail = first_head + b - 1; tail < hi; tail += b) {
      h[tail + 1 - lo] = flow(l(tail + 1 - b), l(tail));
    }
    // Down flows: the wrap edge from the column head on the last row.
    for (w = lo; w < std::min(hi, last_row_); ++w) v[w - lo + b] = flow(l(w), l(w + b));
    for (; w < hi; ++w) v[w - lo + b] = flow(l(w - last_row_), l(w));
  }

  // Node w's value: its round-start load plus the ±flows of its four
  // edges in ascending neighbour order — lower vertical neighbours, the
  // row pair, upper vertical neighbours (the table in DESIGN.md §9.6).  A
  // flow is −f where w is the edge's canonical u, +f where it is v.
  template <RowKind kRow, ColKind kCol>
  T value(const Group& g, std::size_t w) const {
    const std::size_t j = w - g.lo;
    const T up = kRow == RowKind::kFirst ? -g.v[j] : g.v[j];
    const T down = kRow == RowKind::kLast ? g.v[j + cols_] : -g.v[j + cols_];
    const T left = kCol == ColKind::kHead ? -tail_flow(g, w) : g.h[j];
    const T right = kCol == ColKind::kTail ? g.h[j + 1] : -g.h[j + 1];
    T x = load_[w];
    const auto row_pair = [&] {
      // A head's wrap neighbour sorts after its right one, a tail's
      // before its left one: both apply right, then left.
      apply_share(x, kCol == ColKind::kInterior ? left : right);
      apply_share(x, kCol == ColKind::kInterior ? right : left);
    };
    if constexpr (kRow == RowKind::kFirst) {
      row_pair();
      apply_share(x, down);
      apply_share(x, up);
    } else if constexpr (kRow == RowKind::kLast) {
      apply_share(x, down);
      apply_share(x, up);
      row_pair();
    } else {
      apply_share(x, up);
      row_pair();
      apply_share(x, down);
    }
    return x;
  }

  // Pass 2: every node's value from the buffers, one sweep per row kind.
  void write_nodes(const Group& g) const {
    const std::size_t head = g.row * cols_;  // of the group's first row
    write_rows<RowKind::kFirst>(g, head, g.lo, std::min(g.hi, cols_));
    write_rows<RowKind::kMiddle>(g, std::max(head, cols_), std::max(g.lo, cols_),
                                 std::min(g.hi, last_row_));
    write_rows<RowKind::kLast>(g, std::max(head, last_row_), std::max(g.lo, last_row_), g.hi);
  }

  // Nodes [w, end) of rows of one kind, `head` the first node of w's row:
  // one sweep in an interior column's order, then the row heads and tails
  // in the range rewritten in theirs.
  template <RowKind kRow>
  void write_rows(const Group& g, std::size_t head, std::size_t w, std::size_t end) const {
    if (w >= end) return;
    for (std::size_t x = w; x < end; ++x) out_[x] = value<kRow, ColKind::kInterior>(g, x);
    for (std::size_t x = head == w ? w : head + cols_; x < end; x += cols_) {
      out_[x] = value<kRow, ColKind::kHead>(g, x);
    }
    for (std::size_t x = head + cols_ - 1; x < end; x += cols_) {
      out_[x] = value<kRow, ColKind::kTail>(g, x);
    }
  }

  // Count node w's edges into its chunk's StepStats in the generator's
  // emission order: right, wrap-right (row head), down, wrap-down (row 0).
  void count_edges(const Group& g, std::size_t w, std::size_t row, std::size_t col,
                   StepStats& s) const {
    const std::size_t j = w - g.lo;
    if (col + 1 < cols_) count_flow<T>(s, g.h[j + 1]);
    if (col == 0) count_flow<T>(s, tail_flow(g, w));
    if (row + 1 < rows_) count_flow<T>(s, g.v[j + cols_]);
    if (row == 0) count_flow<T>(s, g.v[j]);
  }

  // Calls fn(summary, mode) with the round's summary request as
  // compile-time constants: std::bool_constant (`parts` non-null) and
  // std::integral_constant<SummaryMode>.
  template <class Fn>
  static void with_summary_mode(const SummaryPartial<T>* parts, SummaryMode mode, Fn&& fn) {
    using Mode = SummaryMode;
    if (parts == nullptr) {
      fn(std::false_type(), std::integral_constant<Mode, Mode::kFull>());
      return;
    }
    switch (mode) {
      case Mode::kPotentialOnly:
        fn(std::true_type(), std::integral_constant<Mode, Mode::kPotentialOnly>());
        return;
      case Mode::kExtremaOnly:
        fn(std::true_type(), std::integral_constant<Mode, Mode::kExtremaOnly>());
        return;
      case Mode::kFull:
        fn(std::true_type(), std::integral_constant<Mode, Mode::kFull>());
        return;
    }
  }

  // Pass 3 of a full group: the partials of its kStencilGroupChunks
  // chunks.  Every chunk counts its nodes' edges (count_edges) and folds
  // its final loads into its Φ/K partial in ascending node order, the CSR
  // round's order and bits.  The chunks advance in lockstep, one
  // accumulator set each, so their add chains overlap: runs in which
  // every chunk walks interior columns of a middle row take the straight
  // path (lockstep_run), every other step is one count_edges per chunk.
  template <bool kSummary, SummaryMode kMode>
  void fold_chunks(const Group& g, StepStats* stats, SummaryPartial<T>* parts,
                   double average) const {
    constexpr std::size_t kChains = kStencilGroupChunks;
    const std::size_t first = g.lo / kSummaryChunkWidth;
    std::size_t w[kChains], row[kChains], col[kChains];
    StepStats s[kChains];
    SummaryPartial<T> p[kChains];
    for (std::size_t k = 0; k < kChains; ++k) {
      w[k] = (first + k) * kSummaryChunkWidth;
      row[k] = w[k] / cols_;
      col[k] = w[k] - row[k] * cols_;
      if constexpr (kSummary) summary_begin(p[k], out_[w[k]]);
    }
    for (std::size_t i = 0; i < kSummaryChunkWidth;) {
      std::size_t run = kSummaryChunkWidth - i;
      for (std::size_t k = 0; k < kChains && run > 0; ++k) {
        const bool middle = row[k] != 0 && row[k] + 1 != rows_;
        run = middle && col[k] != 0 ? std::min(run, cols_ - 1 - col[k]) : 0;
      }
      if (run == 0) {
        for (std::size_t k = 0; k < kChains; ++k) {
          count_edges(g, w[k], row[k], col[k], s[k]);
          if constexpr (kSummary) summary_accumulate(p[k], out_[w[k]], average, kMode);
          ++w[k];
          if (++col[k] == cols_) {
            col[k] = 0;
            ++row[k];
          }
        }
        ++i;
        continue;
      }
      lockstep_run<kSummary, kMode>(std::make_index_sequence<kChains>(), g, w, run, s, p,
                                    average);
      for (std::size_t k = 0; k < kChains; ++k) {
        w[k] += run;
        col[k] += run;
      }
      i += run;
    }
    for (std::size_t k = 0; k < kChains; ++k) {
      stats[first + k] = s[k];
      if constexpr (kSummary) parts[first + k] = p[k];
    }
  }

  // Pass 3 of a narrower group — the torus's last, or its only one: its
  // chunks one after another, in runs of nodes that share a row and a
  // chunk.
  template <bool kSummary, SummaryMode kMode>
  void fold_nodes(const Group& g, StepStats* stats, SummaryPartial<T>* parts,
                  double average) const {
    StepStats s;
    SummaryPartial<T> p;
    std::size_t row = g.row, head = g.row * cols_;
    for (std::size_t w = g.lo; w < g.hi;) {
      const std::size_t c = w / kSummaryChunkWidth;
      if (w == c * kSummaryChunkWidth) {
        s = StepStats{};
        if constexpr (kSummary) summary_begin(p, out_[w]);
      }
      const std::size_t end = std::min({g.hi, head + cols_, (c + 1) * kSummaryChunkWidth});
      if (row == 0) {
        fold_run<RowKind::kFirst, kSummary, kMode>(g, head, w, end, s, p, average);
      } else if (row + 1 == rows_) {
        fold_run<RowKind::kLast, kSummary, kMode>(g, head, w, end, s, p, average);
      } else {
        fold_run<RowKind::kMiddle, kSummary, kMode>(g, head, w, end, s, p, average);
      }
      if (end == g.hi || end % kSummaryChunkWidth == 0) {
        stats[c] = s;
        if constexpr (kSummary) parts[c] = p;
      }
      if (end == head + cols_) {
        ++row;
        head = end;
      }
      w = end;
    }
  }

  // Nodes [w, end) of one row and one chunk, `head` the row's first node,
  // into the chunk's running partials: each node's edges in emission
  // order, as in count_edges, and its final load.  A Real run counts its
  // active edges afterwards with count_nonzero, as lockstep_run does.
  template <RowKind kRow, bool kSummary, SummaryMode kMode>
  void fold_run(const Group& g, std::size_t head, std::size_t w, std::size_t end, StepStats& s,
                SummaryPartial<T>& p, double average) const {
    const std::size_t tail = head + cols_ - 1;
    for (std::size_t x = w; x < end; ++x) {
      const std::size_t j = x - g.lo;
      if (x != tail) count_moved(s, g.h[j + 1]);
      if (x == head) count_moved(s, tail_flow(g, x));
      if constexpr (kRow != RowKind::kLast) count_moved(s, g.v[j + cols_]);
      if constexpr (kRow == RowKind::kFirst) count_moved(s, g.v[j]);
      if constexpr (kSummary) summary_accumulate(p, out_[x], average, kMode);
    }
    if constexpr (std::is_floating_point_v<T>) {
      const std::size_t j = w - g.lo;
      s.active_edges += count_nonzero(g.h + j + 1, std::min(end, tail) - w);
      if (w == head) s.active_edges += tail_flow(g, w) != 0.0 ? 1 : 0;
      if constexpr (kRow != RowKind::kLast) {
        s.active_edges += count_nonzero(g.v + j + cols_, end - w);
      }
      if constexpr (kRow == RowKind::kFirst) s.active_edges += count_nonzero(g.v + j, end - w);
    }
  }

  // `run` steps of interior columns of middle rows from w[k]: each node
  // counts its right and down edges.  The chains' adds interleave; a Real
  // run counts its active edges afterwards, per chain, with the
  // vectorized count_nonzero (an exact integer in any order).
  template <bool kSummary, SummaryMode kMode, std::size_t... Is>
  void lockstep_run(std::index_sequence<Is...>, const Group& g, const std::size_t* w,
                    std::size_t run, StepStats* s, SummaryPartial<T>* p, double average) const {
    constexpr std::size_t kChains = sizeof...(Is);
    const T* right[kChains] = {(g.h + (w[Is] - g.lo + 1))...};
    const T* down[kChains] = {(g.v + (w[Is] - g.lo + cols_))...};
    const T* final_load[kChains] = {(out_ + w[Is])...};
    StepStats acc[kChains] = {s[Is]...};
    SummaryPartial<T> part[kChains] = {p[Is]...};
    for (std::size_t t = 0; t < run; ++t) {
      ((count_moved(acc[Is], right[Is][t]), count_moved(acc[Is], down[Is][t])), ...);
      if constexpr (kSummary) {
        (summary_accumulate(part[Is], final_load[Is][t], average, kMode), ...);
      }
    }
    if constexpr (std::is_floating_point_v<T>) {
      ((acc[Is].active_edges += count_nonzero(right[Is], run) + count_nonzero(down[Is], run)),
       ...);
    }
    ((s[Is] = acc[Is]), ...);
    if constexpr (kSummary) ((p[Is] = part[Is]), ...);
  }

  std::size_t rows_;
  std::size_t cols_;
  std::size_t last_row_;  // first node of the last row
  std::size_t n_;
  std::size_t span_;  // nodes of the widest group
  const T* load_;
  T* out_;
  BetaCombine<T> post_;
};

/// Run the stencil over every group.  Tasks are slabs of consecutive
/// groups, one per pool worker slot, each reusing its own buffer slot, so
/// a round allocates nothing once the arena holds the slots.  Each node's
/// value and each chunk's partials are the same whichever task computes
/// them, so the slab count, a function of the pool size, changes no bit.
template <class T, class Rule>
void run_torus_stencil(const graph::TorusShape& shape, util::ThreadPool* pool,
                       const AllEdgesRound<T>& round, std::vector<T>& buffers, const Rule& rule) {
  const TorusStencil<T> stencil(shape, round);
  const std::size_t groups = (round.load.size() + kStencilGroupWidth - 1) / kStencilGroupWidth;
  const std::size_t slabs =
      pool != nullptr && pool->size() > 1 ? std::min(groups, 4 * pool->size()) : 1;
  const std::size_t per_slab = (groups + slabs - 1) / slabs;
  const std::size_t slot = stencil.slot_size();
  buffers.resize((groups + per_slab - 1) / per_slab * slot);
  util::for_fixed_chunks(
      pool, groups, per_slab, [&](std::size_t slab, std::size_t first, std::size_t last) {
        stencil.run_groups(first, last, buffers.data() + slab * slot, rule, round.stats,
                           round.parts, round.average, round.mode);
      });
}

}  // namespace detail

/// The shared-memory all-edges round (DESIGN.md §9.2): replaces `load`
/// with the round's loads — for every pool size, block width and mask,
/// bit-identical to the seed's edge sweep — and returns its StepStats
/// (run_all_edges).  Nodes are cut into blocks of blocked_round_width()
/// nodes (one block when the width is 0), and each block is one
/// for_fixed_chunks task running the domain sweep (sweep_domain) over
/// its node range, with its cut flows re-evaluated from the round-start
/// loads: a block's incoming cut edges all have lower ids than its own,
/// so every node receives the same ±flows in ascending edge order.  A
/// block writes only its own nodes and its own chunks' partials, so
/// blocks need no synchronization.  `post` runs on every node once it is
/// final.  `rule` is a pair rule f(lu, lv) (PairFlowRule) or a per-edge
/// rule f(k, e, lu, lv), pure in its inputs either way.  A pair rule on
/// an unmasked frame whose base has a torus shape runs the torus stencil
/// instead (DESIGN.md §9.6), with the same bits and no plan.
template <class T, class Rule>
StepStats run_blocked_round(RoundContext<T>& ctx, std::vector<T>& load, const Rule& rule,
                            BetaCombine<T> post = {}) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  if constexpr (PairFlowRule<Rule>) {
    const graph::TorusShape& shape = frame.base().torus_shape();
    if (!frame.masked() && !shape.empty()) {
      return detail::run_all_edges(ctx, load, nullptr, post, [&](const auto& round) {
        detail::run_torus_stencil(shape, ctx.pool(), round, ctx.arena().stencil_flows(), rule);
      });
    }
  }
  const BlockedRoundPlan& plan = ctx.arena().round_plan(frame.base());
  return detail::run_all_edges(ctx, load, &plan, post, [&](const auto& round) {
    const auto blocks = [&](auto masked) {
      util::for_fixed_chunks(
          ctx.pool(), load.size(), plan.width(),
          [&](std::size_t b, std::size_t lo, std::size_t hi) {
            const std::span<const std::uint32_t> entries = plan.cut_entries(b);
            const detail::EvaluatedCuts<T, Rule> cuts{
                rule, frame.base().edges(), frame.mask(), load.data(), entries.data(), lo};
            detail::sweep_domain<decltype(masked)::value>(round, {lo, hi, {}}, plan.runs(b),
                                                          entries.size(), rule, cuts);
          });
    };
    if (frame.masked()) {
      blocks(std::true_type());
    } else {
      blocks(std::false_type());
    }
  });
}

}  // namespace lb::core
