// Metrics over runs and load vectors.
//
// Two layers live here:
//
//   1. Convergence analysis of run traces: rounds-to-ε, empirical
//      per-round drop rates, and comparisons against the theorem
//      predictions (ConvergenceReport / analyze).
//
//   2. The deterministic parallel reduction behind the engine's per-round
//      observability (see DESIGN.md §4).  summarize() in load.hpp is a
//      strictly sequential O(n) sweep; on large networks it is the Amdahl
//      bottleneck of a round once the apply phase is parallel.  The
//      functions below compute the same LoadSummary via a fixed-chunk
//      tree reduction: the vector is cut into chunks of exactly
//      kSummaryChunkWidth elements (a function of n only — never of the
//      worker count), each chunk is accumulated left-to-right into a
//      SummaryPartial, and the partials are combined in chunk-index
//      order.  Because both the partition and every accumulation order
//      are independent of how chunks are scheduled onto workers, the
//      result is BIT-IDENTICAL for every thread-pool size, including the
//      sequential fallback.  For n <= kSummaryChunkWidth there is exactly
//      one chunk, so the result is additionally bit-identical to the
//      sequential summarize().
//
// The potential is measured against a caller-supplied average (the
// engine passes the run-start average: total load is invariant under
// every balancer, exactly for Tokens and up to float drift for Real, and
// the paper's Φ is stated against that fixed ℓ̄).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lb/core/load.hpp"
#include "lb/core/trace.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

struct ConvergenceReport {
  std::size_t rounds = 0;              ///< rounds recorded in the trace
  double initial_potential = 0.0;
  double final_potential = 0.0;
  /// First round with Φ <= ε·Φ(L⁰); 0 if never reached.
  std::size_t rounds_to_epsilon = 0;
  /// Geometric-mean per-round potential ratio Φ^t/Φ^{t-1} over the trace
  /// prefix where Φ > floor_potential (avoids the flat tail poisoning the
  /// estimate).
  double mean_drop_ratio = 1.0;
  /// Slope of the least-squares fit of ln Φ versus round (negative when
  /// converging); exp(slope) is an alternative rate estimate.
  double log_slope = 0.0;
  double fit_r_squared = 0.0;
};

/// Analyze a trace produced by engine::run.  `initial_potential` is the
/// potential of the starting load (the trace stores post-round values).
ConvergenceReport analyze(const Trace& trace, double initial_potential,
                          double epsilon = 1e-6, double floor_potential = 1e-9);

/// Measured/predicted ratio helpers for tables: returns measured/bound,
/// guarding the zero cases.
double safe_ratio(double measured, double bound);

// ---------------------------------------------------------------------------
// Deterministic parallel reduction
// ---------------------------------------------------------------------------

/// Which LoadSummary fields a reduction must fill.  kPotentialOnly is the
/// cheap per-round mode when no trace is recorded (terminal K is computed
/// once at run end via kExtremaOnly); kFull feeds trace records.
enum class SummaryMode : std::uint8_t {
  kPotentialOnly,  ///< total + Φ
  kExtremaOnly,    ///< total + min/max/discrepancy
  kFull,           ///< everything
};

/// Fixed reduction chunk width.  A function of nothing: chunk boundaries
/// depend only on n, which is what makes the reduction deterministic
/// across pool sizes.  Any fixed width preserves the contract; 1024
/// keeps n/1024 chunks available so fused sweeps still parallelize on
/// mid-size graphs (a 16k-node torus yields 16 chunks, not 4).
inline constexpr std::size_t kSummaryChunkWidth = 1024;

inline std::size_t summary_chunk_count(std::size_t n) {
  return (n + kSummaryChunkWidth - 1) / kSummaryChunkWidth;
}

/// Partial accumulator for one fixed chunk.
template <class T>
struct SummaryPartial {
  T total{};
  double sq_dev = 0.0;  ///< Σ (v − average)² over the chunk
  T min{};
  T max{};
};

/// Reset `p` and seed its extrema with the chunk's first value.  Call
/// before the chunk loop; the first value is then fed through
/// summary_accumulate like every other element.
template <class T>
inline void summary_begin(SummaryPartial<T>& p, T first) {
  p = SummaryPartial<T>{};
  p.min = first;
  p.max = first;
}

/// Accumulate one element.  This is the single per-element operation
/// sequence every deterministic reduction in the library executes —
/// standalone or fused into an apply sweep — so all of them round
/// identically and stay bit-comparable.
template <class T>
inline void summary_accumulate(SummaryPartial<T>& p, T v, double average,
                               SummaryMode mode) {
  p.total += v;
  if (mode != SummaryMode::kExtremaOnly) {
    const double d = static_cast<double>(v) - average;
    p.sq_dev += d * d;
  }
  if (mode != SummaryMode::kPotentialOnly) {
    p.min = std::min(p.min, v);
    p.max = std::max(p.max, v);
  }
}

/// Incremental fold of chunk partials: feed them one at a time (in
/// chunk-index order) and finish() into a LoadSummary — seed the extrema
/// from the first partial, then total/Φ/min/max per partial in order.
/// combine_summary_partials is this fold over a vector, so every
/// consumer combines partials with the one operation sequence.
template <class T>
struct SummaryFold {
  void add(const SummaryPartial<T>& p) {
    if (!any_) {
      min_ = p.min;
      max_ = p.max;
      any_ = true;
    }
    total_ += p.total;
    potential_ += p.sq_dev;
    min_ = std::min(min_, p.min);
    max_ = std::max(max_, p.max);
  }

  LoadSummary<T> finish(std::size_t n, double average, SummaryMode mode) const {
    LoadSummary<T> s;
    s.average = average;
    if (n == 0 || !any_) return s;
    s.total = total_;
    s.min = min_;
    s.max = max_;
    if (mode != SummaryMode::kExtremaOnly) s.potential = potential_;
    if (mode != SummaryMode::kPotentialOnly) {
      s.discrepancy = static_cast<double>(s.max) - static_cast<double>(s.min);
    } else {
      s.min = T{};
      s.max = T{};
    }
    return s;
  }

 private:
  bool any_ = false;
  T total_{};
  double potential_ = 0.0;
  T min_{};
  T max_{};
};

/// Combine chunk partials in index order into a LoadSummary.  `average`
/// is echoed into the summary (it is the Φ reference point, not
/// total/n recomputed).  Implemented as a SummaryFold over the vector, so
/// the two combination surfaces cannot drift apart.
template <class T>
LoadSummary<T> combine_summary_partials(const std::vector<SummaryPartial<T>>& parts,
                                        std::size_t n, double average,
                                        SummaryMode mode);

/// The fused-sweep template the observed dense sweeps run on (the SOS
/// β-combine, the random-partner delta apply, FlowLedger's fused gather,
/// the standalone reduction; the blocked round folds its chunks with the
/// same summary_begin/summary_accumulate sequence): call
/// `value_fn(i)` exactly once for every i in [0, n), chunk-by-chunk on
/// `pool`, accumulating each returned value into the deterministic
/// reduction as it is produced.  value_fn performs the sweep's own store
/// (it is invoked once per index, ascending within a chunk) and returns
/// the element's final value.  Centralizing the seed/accumulate sequence
/// here is what keeps every fused path bit-comparable with the standalone
/// reduction.
template <class T, class ValueFn>
LoadSummary<T> fused_sweep_with_summary(util::ThreadPool* pool, std::size_t n,
                                        double average, SummaryMode mode,
                                        std::vector<SummaryPartial<T>>& parts,
                                        ValueFn&& value_fn) {
  if (n == 0) return LoadSummary<T>{};
  parts.assign(summary_chunk_count(n), SummaryPartial<T>{});
  util::for_fixed_chunks(
      pool, n, kSummaryChunkWidth,
      [&](std::size_t c, std::size_t lo, std::size_t hi) {
        SummaryPartial<T> p;
        const T first = value_fn(lo);
        summary_begin(p, first);
        summary_accumulate(p, first, average, mode);
        for (std::size_t i = lo + 1; i < hi; ++i) {
          summary_accumulate(p, value_fn(i), average, mode);
        }
        parts[c] = p;
      });
  return combine_summary_partials(parts, n, average, mode);
}

/// Convenience overload with a local partial buffer, for cold callers
/// (tests, one-shot summaries).  Hot per-round paths pass the RunArena's
/// scratch vector instead so steady-state rounds allocate nothing.
template <class T, class ValueFn>
LoadSummary<T> fused_sweep_with_summary(util::ThreadPool* pool, std::size_t n,
                                        double average, SummaryMode mode,
                                        ValueFn&& value_fn) {
  std::vector<SummaryPartial<T>> parts;
  return fused_sweep_with_summary<T>(pool, n, average, mode, parts,
                                     std::forward<ValueFn>(value_fn));
}

/// Deterministic parallel LoadSummary with Φ measured against `average`.
/// Bit-identical for every pool size (pool == nullptr runs inline), and
/// bit-identical to the sequential summarize() when n <= kSummaryChunkWidth
/// and `average` equals the vector's own average.
template <class T>
LoadSummary<T> summarize_deterministic(const std::vector<T>& load, double average,
                                       util::ThreadPool* pool, SummaryMode mode);

/// Scratch-buffer variant for per-round callers (engine fallback summary,
/// sharded oracle): identical result, zero steady-state allocations.
template <class T>
LoadSummary<T> summarize_deterministic(const std::vector<T>& load, double average,
                                       util::ThreadPool* pool, SummaryMode mode,
                                       std::vector<SummaryPartial<T>>& parts);

/// Full deterministic parallel summary: two fixed-chunk passes (totals +
/// extrema, then Φ against the freshly computed average).  The parallel
/// replacement for summarize() when no reference average is available.
template <class T>
LoadSummary<T> summarize_parallel(const std::vector<T>& load, util::ThreadPool* pool);

}  // namespace lb::core
