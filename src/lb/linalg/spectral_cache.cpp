#include "lb/linalg/spectral_cache.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lb/linalg/lanczos.hpp"
#include "lb/linalg/tridiag.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/rng.hpp"

namespace lb::linalg {

namespace {

/// Fraction of the cold random start blended into a warm-start vector.
/// The anchor's Fiedler direction dominates (so convergence keeps the
/// warm speedup), but the dash of full-spectrum noise guarantees the
/// Krylov space overlaps every eigendirection of the *new* operator —
/// without it, a start vector numerically orthogonal to the new Fiedler
/// direction could let Lanczos converge to a higher eigenpair with a
/// small residual.  Deterministic: seeded from the same LanczosOptions
/// seed the cold start uses.
constexpr double kWarmStartNoise = 1e-3;

}  // namespace

Lambda2Answer SpectralCache::lambda2(const graph::TopologyFrame& frame,
                                     const SpectralQuery& query) {
  return lambda2(frame, frame.fingerprint(), query);
}

Lambda2Answer SpectralCache::lambda2(const graph::TopologyFrame& frame,
                                     std::uint64_t fingerprint,
                                     const SpectralQuery& query) {
  const std::size_t n = frame.num_nodes();
  LB_ASSERT_MSG(n >= 2, "lambda2 needs at least two nodes");
  LB_ASSERT_MSG(query.bound_skip_tol >= 0.0 && query.bound_skip_tol < 1.0,
                "bound_skip_tol must lie in [0, 1)");

  Lambda2Answer out;
  out.guard = spectral_guard(n, query.dense_cutoff);
  if (out.guard != SpectralGuard::kNone) {
    // Same deterministic degraded 0.0 the cold entry points return.
    // Not cached: lifting the guard must not serve a stale zero.
    ++stats_.guard_skips;
    out.tier = SpectralTier::kGuardSkip;
    return out;
  }

  // Tier 1: exact structure hit.
  if (const auto it = lambda2_by_fingerprint_.find(fingerprint);
      it != lambda2_by_fingerprint_.end()) {
    ++stats_.exact_hits;
    out.value = it->second;
    out.tier = SpectralTier::kExactHit;
    return out;
  }

  // Tier 2: delta bracket against the base's anchor frame.
  const Anchor* anchor = find_anchor(frame);
  if (anchor != nullptr && query.bound_skip_tol > 0.0 && anchor->lambda2 > 0.0) {
    const Lambda2Bounds b = bounds_against(*anchor, frame);
    const double lo_gate = anchor->lambda2 * (1.0 - query.bound_skip_tol);
    const double hi_gate = anchor->lambda2 * (1.0 + query.bound_skip_tol);
    if (b.lower >= lo_gate && b.upper <= hi_gate) {
      // The true λ2 lies in [lower, upper] ⊆ (1 ± tol)·cached, so the
      // cached exact value is within tol of truth.  The reused value is
      // deliberately NOT inserted under this fingerprint: only solved
      // values enter the exact map, so a later exact query cannot
      // mistake a tolerance-grade answer for Tier-1 bits.
      ++stats_.bound_skips;
      out.value = anchor->lambda2;
      out.tier = SpectralTier::kBoundSkip;
      return out;
    }
  }

  // Tier 3 / cold: solve, remember, refresh the anchor.
  //
  // The anchor is only worth maintaining when a later query can use it:
  // Tier-2 brackets (any path) or warm starts (sparse path only).
  const bool want_anchor =
      query.bound_skip_tol > 0.0 || (query.warm_start && n > query.dense_cutoff);
  Vector fiedler;
  if (n <= query.dense_cutoff) {
    TridiagOptions topts;
    topts.compute_vectors = want_anchor;
    const EigenDecomposition d = symmetric_eigen(laplacian_dense(frame), topts);
    LB_ASSERT_MSG(d.converged, "tridiagonal QL failed to converge on a Laplacian");
    // The QL value recurrence never reads the accumulated vectors, so
    // d.values[1] is bit-identical with compute_vectors on or off — the
    // SpectralCacheTest.DenseValuesUnchangedByVectorAccumulation pin.
    out.value = d.values[1];
    if (want_anchor) {
      fiedler.resize(n);
      for (std::size_t i = 0; i < n; ++i) fiedler[i] = d.vectors(i, 1);
    }
    ++stats_.dense_solves;
    out.tier = SpectralTier::kSolvedDense;
  } else {
    const CsrMatrix l = laplacian_csr(frame);
    LanczosOptions opts;
    opts.deflate = {Vector(n, 1.0)};
    opts.max_dim = std::min<std::size_t>(n - 1, 600);
    bool warm = false;
    if (query.warm_start && anchor != nullptr && anchor->fiedler.size() == n) {
      opts.initial = anchor->fiedler;
      util::Rng rng(opts.seed);
      for (double& v : opts.initial) {
        v += kWarmStartNoise * (rng.next_double() - 0.5);
      }
      warm = true;
    }
    const LanczosResult r = lanczos_smallest(l, opts);
    LB_ASSERT_MSG(r.converged, "Lanczos failed to converge for lambda2");
    out.value = std::max(r.eigenvalue, 0.0);  // clamp rounding, as the cold path
    if (want_anchor) fiedler = r.eigenvector;
    if (warm) {
      ++stats_.warm_solves;
      stats_.warm_iterations += r.iterations;
      out.tier = SpectralTier::kSolvedWarm;
    } else {
      ++stats_.cold_solves;
      stats_.cold_iterations += r.iterations;
      out.tier = SpectralTier::kSolvedCold;
    }
  }

  lambda2_by_fingerprint_.emplace(fingerprint, out.value);
  if (want_anchor && !fiedler.empty()) {
    refresh_anchor(frame, fingerprint, out.value, std::move(fiedler));
  }
  return out;
}

SpectralSummary SpectralCache::summary(const graph::Graph& g,
                                       std::size_t dense_cutoff) {
  const std::size_t n = g.num_nodes();
  LB_ASSERT_MSG(n >= 2, "spectral_summary needs at least two nodes");
  if (spectral_guard(n, dense_cutoff) != SpectralGuard::kNone) {
    // Degraded, and NOT cached: the revision key would otherwise serve a
    // stale degraded summary after a test/bench lifts the guard.
    ++stats_.guard_skips;
    return spectral_summary(g, dense_cutoff);
  }
  if (n <= dense_cutoff) return *decomposition(g, stats_.summary_solves).summary;
  if (const auto it = lanczos_summary_by_revision_.find(g.revision());
      it != lanczos_summary_by_revision_.end()) {
    ++stats_.exact_hits;
    return it->second;
  }
  ++stats_.summary_solves;
  return lanczos_summary_by_revision_
      .emplace(g.revision(), spectral_summary(g, dense_cutoff))
      .first->second;
}

const Vector& SpectralCache::spectrum(const graph::Graph& g) {
  LB_ASSERT_MSG(g.num_nodes() <= 2048, "full spectrum restricted to n <= 2048");
  return decomposition(g, stats_.spectrum_solves).spectrum;
}

const SpectralCache::Decomposition& SpectralCache::decomposition(const graph::Graph& g,
                                                                 std::size_t& solves) {
  if (const auto it = decomposition_by_revision_.find(g.revision());
      it != decomposition_by_revision_.end()) {
    ++stats_.exact_hits;
    return it->second;
  }
  ++solves;
  // The values-only solve spectral_summary's dense arm and
  // laplacian_spectrum run, so both readers get the cold bits.
  EigenDecomposition d = symmetric_eigen(laplacian_dense(g));
  LB_ASSERT_MSG(d.converged, "tridiagonal QL failed to converge on a Laplacian");
  Decomposition entry;
  entry.spectrum = std::move(d.values);
  if (entry.spectrum.size() >= 2) {
    entry.summary = summarize_spectrum(g, entry.spectrum[1], entry.spectrum.back());
  }
  return decomposition_by_revision_.emplace(g.revision(), std::move(entry))
      .first->second;
}

std::optional<double> SpectralCache::cached_lambda2(std::uint64_t fingerprint) const {
  const auto it = lambda2_by_fingerprint_.find(fingerprint);
  if (it == lambda2_by_fingerprint_.end()) return std::nullopt;
  return it->second;
}

std::optional<SpectralSummary> SpectralCache::cached_summary(
    std::uint64_t revision) const {
  if (const auto it = lanczos_summary_by_revision_.find(revision);
      it != lanczos_summary_by_revision_.end()) {
    return it->second;
  }
  const auto it = decomposition_by_revision_.find(revision);
  if (it == decomposition_by_revision_.end()) return std::nullopt;
  return it->second.summary;
}

std::optional<Lambda2Bounds> SpectralCache::probe_bounds(
    const graph::TopologyFrame& frame) const {
  const Anchor* anchor = find_anchor(frame);
  if (anchor == nullptr) return std::nullopt;
  return bounds_against(*anchor, frame);
}

void SpectralCache::clear() {
  lambda2_by_fingerprint_.clear();
  decomposition_by_revision_.clear();
  lanczos_summary_by_revision_.clear();
  anchor_by_base_.clear();
  stats_ = SpectralCacheStats{};
}

const SpectralCache::Anchor* SpectralCache::find_anchor(
    const graph::TopologyFrame& frame) const {
  const auto it = anchor_by_base_.find(frame.base_revision());
  if (it == anchor_by_base_.end()) return nullptr;
  // Same base revision implies the same edge list; the size check is a
  // cheap belt against a recycled revision counter.
  if (it->second.alive.size() != frame.num_base_edges()) return nullptr;
  return &it->second;
}

Lambda2Bounds SpectralCache::bounds_against(const Anchor& anchor,
                                            const graph::TopologyFrame& frame) {
  Lambda2Bounds b;
  // O(m) scan of the shared base edge list: count the mask delta and
  // accumulate the Rayleigh-quotient update Σ±(f_u − f_v)² in one pass.
  double delta_rq = 0.0;
  const auto& edges = frame.base().edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const bool now = frame.alive(k);
    const bool then = anchor.alive[k] != 0;
    if (now == then) continue;
    const double d = anchor.fiedler[edges[k].u] - anchor.fiedler[edges[k].v];
    if (now) {
      ++b.added;
      delta_rq += d * d;
    } else {
      ++b.removed;
      delta_rq -= d * d;
    }
  }
  // Upper: λ2(L_new) = min over unit x ⊥ 1 of x'L_new x ≤ f'L_new f,
  // where f is the anchor's stored unit vector ⊥ 1 and f'L_new f is its
  // anchor-frame Rayleigh quotient adjusted by the delta edge terms.
  b.upper = anchor.rayleigh + delta_rq;
  if (b.added == 0) {
    // Pure removals: dropping PSD edge terms cannot raise any eigenvalue.
    b.upper = std::min(b.upper, anchor.lambda2);
  }
  // Lower: each removed edge subtracts a PSD rank-1 term b_e b_e' with
  // λmax = 2, so by Weyl λ2 drops by at most 2 per removed edge; added
  // edges (PSD updates) can only raise λ2.
  b.lower = b.removed == 0
                ? anchor.lambda2
                : std::max(0.0, anchor.lambda2 -
                                    2.0 * static_cast<double>(b.removed));
  return b;
}

void SpectralCache::refresh_anchor(const graph::TopologyFrame& frame,
                                   std::uint64_t fingerprint, double lambda2_value,
                                   Vector fiedler) {
  // The Rayleigh upper bound is only rigorous for a unit vector exactly
  // orthogonal to the all-ones kernel, so re-project and re-normalize
  // whatever the solver produced (the dense Fiedler column and the
  // deflated Ritz vector are already ⊥ 1 up to rounding).
  const std::size_t n = fiedler.size();
  double mean = 0.0;
  for (const double v : fiedler) mean += v;
  mean /= static_cast<double>(n);
  for (double& v : fiedler) v -= mean;
  if (normalize(fiedler) <= 1e-12) return;  // degenerate; keep the old anchor

  // f' L f = Σ over alive edges of (f_u − f_v)² — exact for THIS frame,
  // the base every later delta update builds on.
  double rq = 0.0;
  const auto& edges = frame.base().edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (!frame.alive(k)) continue;
    const double d = fiedler[edges[k].u] - fiedler[edges[k].v];
    rq += d * d;
  }

  Anchor& a = anchor_by_base_[frame.base_revision()];
  a.fingerprint = fingerprint;
  a.lambda2 = lambda2_value;
  a.rayleigh = rq;
  a.fiedler = std::move(fiedler);
  a.alive.resize(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    a.alive[k] = frame.alive(k) ? 1 : 0;
  }
}

}  // namespace lb::linalg
