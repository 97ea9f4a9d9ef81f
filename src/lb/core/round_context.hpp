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
// with the one all-edges round every edge-flow balancer runs
// (run_blocked_round, DESIGN.md §9.2).
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
#include <cstdint>
#include <vector>

#include "lb/core/flow_ledger.hpp"
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
  /// Per-edge signed flow buffer (positive moves load u -> v).
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
  /// *materializes* the subgraph (lazily, cached per mask revision) —
  /// which keeps every balancer that needs full Graph structure
  /// (matchings, spectral lookups) semantically unmodified on dynamic
  /// sequences, at the old rebuild cost.  Mask-aware fast paths use
  /// frame() instead.
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

// The block tasks of run_blocked_round_into, instantiated once per mask
// state so unmasked rounds carry no liveness test.  `parts` is null when
// no summary is folded.
template <bool kMasked, class T, class FlowFn>
void sweep_blocks(const graph::TopologyFrame& frame, const BlockedRoundPlan& plan,
                  util::ThreadPool* pool, const std::vector<T>& load,
                  std::vector<T>& out, StepStats* stats, SummaryPartial<T>* parts,
                  double average, SummaryMode mode, const FlowFn& flow_fn) {
  const auto& edges = frame.base().edges();
  const graph::EdgeMask* mask = frame.mask();
  const auto flow = [&edges, &load, &flow_fn](std::size_t k) {
    const graph::Edge& e = edges[k];
    return flow_fn(k, e, static_cast<double>(load[e.u]), static_cast<double>(load[e.v]));
  };
  util::for_fixed_chunks(
      pool, load.size(), plan.width(),
      [&](std::size_t b, std::size_t lo, std::size_t hi) {
        std::copy_n(load.data() + lo, hi - lo, out.data() + lo);
        for (const std::uint32_t k : plan.cut_edges(b)) {
          if (kMasked && !mask->alive(k)) continue;
          add_flow(out[edges[k].v], flow(k));
        }
        T outside{};  // absorbs the e.v share of edges leaving the block
        for (std::size_t c = lo / kSummaryChunkWidth; c * kSummaryChunkWidth < hi; ++c) {
          StepStats s;
          const std::size_t k_end = plan.chunk_begin(c + 1);
          for (std::size_t k = plan.chunk_begin(c); k < k_end; ++k) {
            if (kMasked && !mask->alive(k)) continue;
            const graph::Edge& e = edges[k];
            const double f = flow(k);
            add_flow(out[e.u], -f);
            add_flow(e.v < hi ? out[e.v] : outside, f);
            count_flow<T>(s, f);
          }
          stats[c] = s;
          if (parts == nullptr) continue;
          // Every edge touching chunk c has its lower endpoint at or
          // before the chunk, so its nodes are final here.
          const std::size_t clo = c * kSummaryChunkWidth;
          const std::size_t chi = std::min(clo + kSummaryChunkWidth, hi);
          SummaryPartial<T> p;
          summary_begin(p, out[clo]);
          for (std::size_t u = clo; u < chi; ++u) {
            summary_accumulate(p, out[u], average, mode);
          }
          parts[c] = p;
        }
      });
}

}  // namespace detail

/// The one all-edges round (DESIGN.md §9.2): writes the round's loads
/// into `out` from the round-start `load`, for every pool size, block
/// width and mask.  Nodes are cut into blocks of blocked_round_width()
/// nodes (a single block when the width is 0), each one for_fixed_chunks
/// task that
///   1. seeds out[lo,hi) from the round-start loads;
///   2. applies its incoming cut edges — edges of earlier blocks whose v
///      lies in the block — in ascending edge order, each flow recomputed
///      from the round-start loads;
///   3. sweeps its own edges (u in the block) in ascending order, each
///      flow going to e.u and, when v lies in the block, to e.v;
///   4. folds each summary chunk's Φ/K partial, and its StepStats
///      partial, as soon as the chunk's nodes are final.
/// Every node receives the same ±flows in ascending edge order — a
/// block's cut edges have lower ids than its own — computed from
/// round-start values, so `out` is bit-identical to the seed's edge sweep
/// at every pool size, block width and mask.  A block writes only
/// out[lo,hi) and its own chunks' partials, so blocks need no
/// synchronization.  StepStats follow the fixed-chunk contract
/// (fold_chunk_stats); `stats.links` is left to the caller.  With
/// `observe` set, a summary the engine requested is folded over `out`
/// and published — pass it only when `out` is the round's final load.
/// `flow_fn(k, e, lu, lv)` must be pure in its inputs.
template <class T, class FlowFn>
StepStats run_blocked_round_into(RoundContext<T>& ctx, util::ThreadPool* pool,
                                 const std::vector<T>& load, std::vector<T>& out,
                                 bool observe, const FlowFn& flow_fn) {
  const graph::TopologyFrame& frame = ctx.frame();
  const std::size_t n = frame.num_nodes();
  LB_ASSERT_MSG(load.size() == n, "load vector does not match graph");
  LB_ASSERT_MSG(&load != &out, "the blocked round cannot run in place");
  RunArena<T>& arena = ctx.arena();
  const std::size_t chunks = summary_chunk_count(n);
  const std::size_t width = blocked_round_width();
  BlockedRoundPlan& plan = arena.round_plan();
  plan.ensure(frame.base(), width != 0 ? width : chunks * kSummaryChunkWidth);

  out.resize(n);
  std::vector<StepStats>& stats = arena.chunk_stats();
  stats.resize(chunks);
  const bool summarize = observe && ctx.summary_requested();
  std::vector<SummaryPartial<T>>& parts = arena.summary_parts();
  if (summarize) parts.resize(chunks);
  SummaryPartial<T>* parts_out = summarize ? parts.data() : nullptr;
  const double average = ctx.summary_average();
  const SummaryMode mode = ctx.summary_mode();
  if (frame.masked()) {
    detail::sweep_blocks<true>(frame, plan, pool, load, out, stats.data(), parts_out,
                               average, mode, flow_fn);
  } else {
    detail::sweep_blocks<false>(frame, plan, pool, load, out, stats.data(), parts_out,
                                average, mode, flow_fn);
  }

  StepStats total;
  for (const StepStats& s : stats) fold_chunk_stats(total, s);
  if (summarize) ctx.publish_summary(combine_summary_partials(parts, n, average, mode));
  return total;
}

/// run_blocked_round_into with the arena's node scratch as the output,
/// swapped into `load` afterwards — so a round may hand the caller's
/// vector a different buffer.  The round's final load is `load` itself,
/// so a requested summary is always published.
template <class T, class FlowFn>
StepStats run_blocked_round(RoundContext<T>& ctx, util::ThreadPool* pool,
                            std::vector<T>& load, const FlowFn& flow_fn) {
  std::vector<T>& next = ctx.arena().node_scratch();
  const StepStats stats = run_blocked_round_into(ctx, pool, load, next, true, flow_fn);
  load.swap(next);
  return stats;
}

}  // namespace lb::core
