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
// (run_blocked_round, DESIGN.md §9.2), and the torus stencil it runs on
// unmasked 2-D tori (DESIGN.md §9.6).
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
#include <cmath>
#include <cstdint>
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
/// (flow()).  Nodes run in groups of kStencilGroupWidth; a group [lo, hi)
/// keeps, with j = w − lo,
///   h[j + 1] = H(w), h[0] = H(lo − 1) (its first node's left flow) and
///              h[hi − lo + 1] = H of the tail of a row that runs past hi;
///   v[j + cols] = V(w), and v[j] the flow from the node above w — so
///              v[j] = V(w − cols) past the group's first row.
/// h[0], h[hi − lo + 1] and the first row's up flows are the group's
/// halo: flows another group owns, re-evaluated (flows are pure, so the
/// bits are the same).
template <class T, class Rule>
class TorusStencil {
 public:
  TorusStencil(const graph::TorusShape& shape, const std::vector<T>& load,
               std::vector<T>& out, const Rule& rule)
      : rows_(shape.rows),
        cols_(shape.cols),
        last_row_((shape.rows - 1) * shape.cols),
        n_(load.size()),
        span_(std::min(n_, kStencilGroupWidth)),
        load_(load.data()),
        out_(out.data()),
        rule_(rule) {}

  /// Flow-buffer entries one task needs.
  std::size_t slot_size() const { return 2 * span_ + 2 + cols_; }

  /// Write out[lo, hi) of groups [first, last), in order on one buffer
  /// slot, and the partials of their summary chunks (`parts` null: no
  /// summary).
  void run_groups(std::size_t first, std::size_t last, T* buf, StepStats* stats,
                  SummaryPartial<T>* parts, double average, SummaryMode mode) const {
    constexpr std::size_t kWidth = kStencilGroupWidth;
    for (std::size_t group = first; group < last; ++group) {
      const std::size_t lo = group * kWidth;
      const std::size_t hi = std::min(n_, lo + kWidth);
      const Group g{lo, hi, lo == 0 ? 0 : lo / cols_, buf, buf + span_ + 2};
      evaluate_flows(g);
      write_nodes(g);
      with_summary_mode(parts, mode, [&](auto summary, auto summary_mode) {
        constexpr bool kSummary = decltype(summary)::value;
        constexpr SummaryMode kMode = decltype(summary_mode)::value;
        if (hi - lo == kWidth) {
          fold_chunks<kSummary, kMode>(g, stats, parts, average);
        } else {
          fold_nodes<kSummary, kMode>(g, stats, parts, average);
        }
      });
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

  // An edge's flow as the round applies it: the flow itself for Real
  // loads; for Tokens the whole-token amount add_flow and count_flow cut
  // from it, static_cast<T>(f), cut once here — or the rule's own
  // amount(), which states the same value (flow_program.hpp).
  T flow(double lu, double lv) const {
    if constexpr (requires { rule_.amount(lu, lv); }) {
      return rule_.amount(lu, lv);
    } else {
      return static_cast<T>(rule_(lu, lv));
    }
  }

  // add_flow and count_flow on a flow as flow() stores it.  For Tokens,
  // x += ±a is add_flow's x += T(±f) (truncation is odd), and the amount
  // is what count_flow counts.
  static void apply(T& x, T a) {
    if constexpr (std::is_integral_v<T>) {
      x += a;
    } else {
      add_flow(x, a);
    }
  }
  static void count(StepStats& s, T a) {
    if constexpr (std::is_integral_v<T>) {
      s.transferred += static_cast<double>(a < 0 ? -a : a);
      s.active_edges += a != 0 ? 1 : 0;
    } else {
      count_flow<T>(s, a);
    }
  }
  // count() less a Real flow's active edge, which the caller counts for a
  // whole run at once with the vectorized count_nonzero.
  static void count_moved(StepStats& s, T a) {
    if constexpr (std::is_integral_v<T>) {
      count(s, a);
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
  // replaces it.
  void evaluate_flows(const Group& g) const {
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
      apply(x, kCol == ColKind::kInterior ? left : right);
      apply(x, kCol == ColKind::kInterior ? right : left);
    };
    if constexpr (kRow == RowKind::kFirst) {
      row_pair();
      apply(x, down);
      apply(x, up);
    } else if constexpr (kRow == RowKind::kLast) {
      apply(x, down);
      apply(x, up);
      row_pair();
    } else {
      apply(x, up);
      row_pair();
      apply(x, down);
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
    if (col + 1 < cols_) count(s, g.h[j + 1]);
    if (col == 0) count(s, tail_flow(g, w));
    if (row + 1 < rows_) count(s, g.v[j + cols_]);
    if (row == 0) count(s, g.v[j]);
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
  const Rule& rule_;
};

/// Run the stencil over every group.  Tasks are slabs of consecutive
/// groups, one per pool worker slot, each reusing its own buffer slot, so
/// a round allocates nothing once the arena holds the slots.  Each node's
/// value and each chunk's partials are the same whichever task computes
/// them, so the slab count, a function of the pool size, changes no bit.
template <class T, class Rule>
void run_torus_stencil(const graph::TorusShape& shape, util::ThreadPool* pool,
                       const std::vector<T>& load, std::vector<T>& out,
                       std::vector<T>& buffers, StepStats* stats,
                       SummaryPartial<T>* parts, double average, SummaryMode mode,
                       const Rule& rule) {
  const TorusStencil<T, Rule> stencil(shape, load, out, rule);
  const std::size_t groups = (load.size() + kStencilGroupWidth - 1) / kStencilGroupWidth;
  const std::size_t slabs =
      pool != nullptr && pool->size() > 1 ? std::min(groups, 4 * pool->size()) : 1;
  const std::size_t per_slab = (groups + slabs - 1) / slabs;
  const std::size_t slot = stencil.slot_size();
  buffers.resize((groups + per_slab - 1) / per_slab * slot);
  util::for_fixed_chunks(
      pool, groups, per_slab, [&](std::size_t slab, std::size_t first, std::size_t last) {
        stencil.run_groups(first, last, buffers.data() + slab * slot, stats, parts, average,
                           mode);
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
/// `flow_fn` is a pair rule f(lu, lv) (PairFlowRule) or a per-edge rule
/// f(k, e, lu, lv), pure in its inputs either way.  A pair rule on an
/// unmasked frame whose base has a torus shape runs the torus stencil
/// instead (DESIGN.md §9.6), with the same bits and no plan.
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

  out.resize(n);
  std::vector<StepStats>& stats = arena.chunk_stats();
  stats.resize(chunks);
  const bool summarize = observe && ctx.summary_requested();
  std::vector<SummaryPartial<T>>& parts = arena.summary_parts();
  if (summarize) parts.resize(chunks);
  SummaryPartial<T>* parts_out = summarize ? parts.data() : nullptr;
  const double average = ctx.summary_average();
  const SummaryMode mode = ctx.summary_mode();
  const auto csr_round = [&](const auto& edge_rule) {
    const BlockedRoundPlan& plan = arena.round_plan(frame.base());
    if (frame.masked()) {
      detail::sweep_blocks<true>(frame, plan, pool, load, out, stats.data(), parts_out,
                                 average, mode, edge_rule);
    } else {
      detail::sweep_blocks<false>(frame, plan, pool, load, out, stats.data(), parts_out,
                                  average, mode, edge_rule);
    }
  };
  if constexpr (PairFlowRule<FlowFn>) {
    const graph::TorusShape& shape = frame.base().torus_shape();
    if (!frame.masked() && !shape.empty()) {
      detail::run_torus_stencil(shape, pool, load, out, arena.stencil_flows(), stats.data(),
                                parts_out, average, mode, flow_fn);
    } else {
      csr_round(edge_flow(flow_fn));
    }
  } else {
    csr_round(flow_fn);
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
