// Three-tier incremental spectral maintenance (DESIGN.md §10).
//
// Dynamic scenarios revisit near-identical topologies round after round,
// so the per-frame cold λ2 solve that profile_sequence/campaigns used to
// pay is almost entirely redundant.  SpectralCache removes it in three
// tiers, strongest guarantee first:
//
//   Tier 1 — exact cache.  Entries are keyed on the structure hash
//     (TopologyFrame::fingerprint()) for per-round frames and on
//     Graph::revision() for full-graph summaries/spectra.  A repeated
//     frame returns the previously computed value bit-for-bit, so
//     periodic/partition scenarios pay for each distinct frame once per
//     cache lifetime, not once per round.
//
//   Tier 2 — delta bounds.  A miss whose frame shares the base edge list
//     with a cached anchor frame is bracketed in O(m) from the mask
//     delta: Weyl edge-deletion interlacing below (each edge Laplacian
//     term is PSD with norm 2, so λ2 moves down by at most 2·|removed|
//     and removals alone can never raise it), and the Rayleigh quotient
//     of the anchor's unit Fiedler vector f ⊥ 1 evaluated on the new
//     Laplacian above (λ2 = min over unit x ⊥ 1 of x'Lx ≤ f'L_new f,
//     updated from the anchor's f'Lf in O(|delta|) edge terms).  When
//     the bracket stays inside (1 ± tol)·cached λ2 the cached exact
//     value is reused and the solve is skipped entirely.
//
//   Tier 3 — warm-started Lanczos.  Irreducible misses on the sparse
//     path solve with LanczosOptions::initial seeded from the anchor's
//     Fiedler vector, converging in a fraction of the cold iteration
//     count when the topology moved by a few edges.
//
// Exactness contract: summary()/spectrum() (the schedule-feeding SOS
// auto-β and OPS paths) are Tier 1 ONLY.  Both read one values-only dense
// decomposition per Graph::revision() — whichever is asked first runs
// it, the other reads it — and that solve is the one the cold
// spectral_summary/laplacian_spectrum run, so every value they ever
// return is bit-identical to a cold computation and engine trajectories
// cannot move.  lambda2() is the profile-grade query: Tier 1 hits are
// bit-identical, Tier 2/3 answers are within the caller's documented
// tolerance of cold.
//
// Threading: a cache is single-owner (no internal locks).  The campaign
// runner keeps one per graph index — cells are sharded by graph index,
// so each cache is only ever touched by the shard owning its base.
// Containers are ordered (std::map) per the determinism lint rules.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/linalg/dense.hpp"
#include "lb/linalg/spectral.hpp"

namespace lb::linalg {

/// Which tier served a SpectralCache::lambda2 query.
enum class SpectralTier : std::uint8_t {
  kSolvedDense,  ///< fresh dense QL solve (n <= dense_cutoff)
  kSolvedCold,   ///< fresh Lanczos solve from the seeded random start
  kSolvedWarm,   ///< fresh Lanczos solve warm-started from the cached anchor
  kExactHit,     ///< Tier 1: fingerprint hit — cached bits returned
  kBoundSkip,    ///< Tier 2: delta bracket pinned λ2; cached value reused
  kGuardSkip,    ///< scale guard suppressed the solve; value is 0.0
};

struct SpectralCacheStats {
  /// Tier-1 hits: lambda2() fingerprint hits, plus summary()/spectrum()
  /// calls served from the revision's existing entry — including the
  /// first call of one kind after the other kind solved it.
  std::size_t exact_hits = 0;
  std::size_t bound_skips = 0;     ///< Tier-2 skips
  std::size_t dense_solves = 0;    ///< fresh dense λ2 solves
  std::size_t cold_solves = 0;     ///< fresh cold-start Lanczos λ2 solves
  std::size_t warm_solves = 0;     ///< fresh warm-started Lanczos λ2 solves
  std::size_t guard_skips = 0;     ///< scale-guard suppressions
  /// summary() misses: the revision's dense decomposition (n <=
  /// dense_cutoff) when no spectrum() call ran it first, or its Lanczos pair.
  std::size_t summary_solves = 0;
  /// spectrum() misses: the revision's dense decomposition when no
  /// dense-path summary() call ran it first.
  std::size_t spectrum_solves = 0;
  std::size_t cold_iterations = 0; ///< Σ Lanczos iterations over cold solves
  std::size_t warm_iterations = 0; ///< Σ Lanczos iterations over warm solves

  std::size_t lambda2_solves() const {
    return dense_solves + cold_solves + warm_solves;
  }
};

/// Tier 2/3 policy for one lambda2() query.
struct SpectralQuery {
  std::size_t dense_cutoff = 512;  ///< dense/Lanczos dispatch, as linalg::lambda2
  /// Tier 3: warm-start Lanczos misses from the cached anchor vector.
  bool warm_start = true;
  /// Tier 2: a miss whose delta bracket stays within (1 ± tol)·cached λ2
  /// reuses the cached value.  0 disables bound skips (exact tiers only);
  /// must be < 1 (the soundness argument in DESIGN.md §10 needs it).
  double bound_skip_tol = 0.0;
};

struct Lambda2Answer {
  double value = 0.0;
  SpectralTier tier = SpectralTier::kSolvedCold;
  SpectralGuard guard = SpectralGuard::kNone;  ///< which guard fired on kGuardSkip
};

/// Two-sided λ2 bracket against the cached anchor (exposed for the
/// property tests; lambda2() applies it internally).
struct Lambda2Bounds {
  double lower = 0.0;
  double upper = 0.0;
  std::size_t added = 0;    ///< edges alive now but dead in the anchor
  std::size_t removed = 0;  ///< edges dead now but alive in the anchor
};

class SpectralCache {
 public:
  /// Profile-grade λ2 of a frame.  `fingerprint` must equal
  /// frame.fingerprint() — callers that already computed it (the dynamic
  /// profiler hashes every frame anyway) pass it to avoid a second O(m)
  /// hash.  Callers are expected to handle disconnected frames first
  /// (λ2 = 0 by definition); the Tier-2 bracket remains sound either way.
  Lambda2Answer lambda2(const graph::TopologyFrame& frame, std::uint64_t fingerprint,
                        const SpectralQuery& query = {});

  /// Convenience overload: hashes the frame itself.
  Lambda2Answer lambda2(const graph::TopologyFrame& frame,
                        const SpectralQuery& query = {});

  /// Exact full summary, keyed on Graph::revision(), bit-identical to
  /// the cold linalg::spectral_summary(g, dense_cutoff), always, so
  /// schedule-feeding consumers (SOS auto-β) can use it.  Dense path
  /// (n <= dense_cutoff): read off both ends of the revision's
  /// decomposition, shared with spectrum().  Sparse path: the Lanczos
  /// pair, cached on its own.  Guarded queries return the degraded
  /// summary WITHOUT caching it, so lifting the guard later cannot serve
  /// a stale degraded entry.
  SpectralSummary summary(const graph::Graph& g, std::size_t dense_cutoff = 512);

  /// Exact full Laplacian spectrum (ascending), keyed on
  /// Graph::revision(): the revision's decomposition, shared with a
  /// dense-path summary() and bit-identical to the cold
  /// linalg::laplacian_spectrum (n <= 2048 asserted, as there) — the OPS
  /// schedule-binding path.
  const Vector& spectrum(const graph::Graph& g);

  /// Cached λ2 for a fingerprint, if present (diagnostics/tests).
  std::optional<double> cached_lambda2(std::uint64_t fingerprint) const;

  /// Cached summary for a graph revision, if present, whichever of
  /// summary()/spectrum() filled the entry (campaign report).  A sparse
  /// summary wins over the dense decomposition when both exist, since it
  /// is the one summary() serves.
  std::optional<SpectralSummary> cached_summary(std::uint64_t revision) const;

  /// The Tier-2 bracket the cache would use for this frame, or nullopt
  /// when no usable anchor exists (different/unknown base).  Exposed so
  /// the property tests can check lower <= λ2(frame) <= upper directly.
  std::optional<Lambda2Bounds> probe_bounds(const graph::TopologyFrame& frame) const;

  void clear();
  const SpectralCacheStats& stats() const { return stats_; }
  std::size_t lambda2_entries() const { return lambda2_by_fingerprint_.size(); }

 private:
  /// Per-base anchor for Tiers 2/3: the most recently solved frame of a
  /// base edge list, with the pieces the delta bracket and the warm
  /// start need.  One per base revision bounds the memory at
  /// O(n + m) per base instead of per distinct frame.
  struct Anchor {
    std::uint64_t fingerprint = 0;
    double lambda2 = 0.0;   ///< exact cached λ2 of the anchor frame
    double rayleigh = 0.0;  ///< f' L_anchor f for the stored unit f ⊥ 1
    Vector fiedler;
    std::vector<std::uint8_t> alive;  ///< anchor's alive bitmap over base edges
  };

  /// A revision's values-only dense decomposition.
  struct Decomposition {
    Vector spectrum;                         ///< ascending Laplacian eigenvalues
    std::optional<SpectralSummary> summary;  ///< read off its ends (n >= 2)
  };

  /// The revision's decomposition: an exact hit, or a solve counted in
  /// `solves` (the asking consumer's stats counter).
  const Decomposition& decomposition(const graph::Graph& g, std::size_t& solves);
  const Anchor* find_anchor(const graph::TopologyFrame& frame) const;
  static Lambda2Bounds bounds_against(const Anchor& anchor,
                                      const graph::TopologyFrame& frame);
  void refresh_anchor(const graph::TopologyFrame& frame, std::uint64_t fingerprint,
                      double lambda2_value, Vector fiedler);

  std::map<std::uint64_t, double> lambda2_by_fingerprint_;
  std::map<std::uint64_t, Decomposition> decomposition_by_revision_;
  std::map<std::uint64_t, SpectralSummary> lanczos_summary_by_revision_;
  std::map<std::uint64_t, Anchor> anchor_by_base_;
  SpectralCacheStats stats_;
};

}  // namespace lb::linalg
