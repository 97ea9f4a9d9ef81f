// Spectral graph quantities driving every bound in the paper:
//   λ2  — second-smallest eigenvalue of the Laplacian L = D − A
//         (Theorems 4, 6, 7, 8 are stated in terms of λ2 and δ);
//   γ   — second-largest |eigenvalue| of the diffusion matrix M
//         (the classic Cybenko/Subramanian-Scherson convergence rate,
//         needed for the FOS/SOS baselines and their optimal β);
//   closed-form spectra for the standard topologies, used to validate
//   the numerical solvers in the tests.
#pragma once

#include <optional>

#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/linalg/csr.hpp"
#include "lb/linalg/dense.hpp"

namespace lb::linalg {

// --- Scale guard -----------------------------------------------------------
//
// Spectral work is gated on node-count ceilings so profiling a 2^20+
// substrate cannot silently dominate the balancing run it is attached
// to.  Guarded quantities *degrade deterministically* — λ2/λmax/γ
// return 0.0 (γ = 0 keeps SOS's auto-β finite: optimal_beta(0) = 1, an
// FOS step) — and the callers that profile (dynamic runner, campaign)
// record the skip in RunResult::spectral_skipped instead of silently
// stalling.  The guard lives here, at the linalg entry points, so every
// caller (cold or cached) sees the same values and bit-identity across
// call paths is preserved.
//
// There are TWO ceilings because the two solver paths have different
// cost models: the dense QL path is O(n²) memory and O(n³) time, while
// Lanczos is O(n·iters) with a handful of n-length work vectors — the
// historical single 131072 ceiling was sized for the dense path and
// over-blocked the Lanczos one.  Which ceiling applies to a query is
// decided by the same n <= dense_cutoff dispatch the solvers use, so a
// guard verdict always matches the path that would have run.

/// Dense-eigensolve ceiling: queries that would take the dense QL path
/// (n <= dense_cutoff) are skipped when n exceeds this.  Resolution:
/// set_max_spectral_n() override ▸ the LB_MAX_SPECTRAL_N environment
/// variable ▸ 131072 (2^17).  0 means unlimited.
std::size_t max_spectral_n();

/// Lanczos ceiling: queries that would take the sparse Lanczos path
/// (n > dense_cutoff) are skipped when n exceeds this.  Resolution:
/// set_max_lanczos_spectral_n()/set_max_spectral_n() override ▸ the
/// LB_MAX_LANCZOS_SPECTRAL_N environment variable ▸ 2097152 (2^21, the
/// bench_scale substrate top — warm-started Lanczos keeps per-frame cost
/// affordable well past the old dense-sized 2^17 guard).  0 = unlimited.
std::size_t max_lanczos_spectral_n();

/// Test/bench hook: ceiling < 0 clears the overrides (env/default applies
/// again), otherwise sets BOTH ceilings (0 = unlimited) — the historical
/// "hard ceiling for every spectral path" semantics the scale tests pin.
/// Use set_max_lanczos_spectral_n() afterwards to split them.
void set_max_spectral_n(long long ceiling);

/// Test/bench hook for the Lanczos ceiling alone; < 0 clears the override.
void set_max_lanczos_spectral_n(long long ceiling);

/// Which guard suppressed (or would suppress) a spectral query.
enum class SpectralGuard : std::uint8_t {
  kNone = 0,  ///< no guard fired; the query computes
  kDense,     ///< dense-path query over max_spectral_n()
  kLanczos,   ///< Lanczos-path query over max_lanczos_spectral_n()
};

/// Guard verdict for an n-node query that would dispatch on dense_cutoff.
SpectralGuard spectral_guard(std::size_t num_nodes, std::size_t dense_cutoff = 512);

/// True when the guard suppresses spectral computation for an n-node graph
/// (at the default dense_cutoff dispatch).
bool spectral_guard_active(std::size_t num_nodes);

/// Laplacian L = D − A as a sparse matrix.
CsrMatrix laplacian_csr(const graph::Graph& g);

/// Laplacian as a dense matrix (small n).
DenseMatrix laplacian_dense(const graph::Graph& g);

/// Frame-aware Laplacian builders: assemble L directly from the base
/// edge list with dead edges skipped and alive-degrees on the diagonal,
/// so masked rounds are profiled without materializing a subgraph.
/// Identical matrices to laplacian_*(frame.view()).
CsrMatrix laplacian_csr(const graph::TopologyFrame& frame);
DenseMatrix laplacian_dense(const graph::TopologyFrame& frame);

/// Cybenko diffusion matrix M with uniform α = 1/(δ+1):
/// m_ij = α for (i,j) ∈ E, m_ii = 1 − d_i·α.  Doubly stochastic and
/// symmetric; for δ-regular graphs M = I − L/(δ+1).
CsrMatrix diffusion_matrix_csr(const graph::Graph& g);
DenseMatrix diffusion_matrix_dense(const graph::Graph& g);

struct SpectralSummary {
  double lambda2 = 0.0;      ///< second-smallest Laplacian eigenvalue
  double lambda_max = 0.0;   ///< largest Laplacian eigenvalue
  double gamma = 0.0;        ///< second-largest |eigenvalue| of M
  double eigen_gap = 0.0;    ///< 1 − γ
  std::size_t max_degree = 0;
  std::size_t n = 0;
};

/// λ2 of the Laplacian.  Dense QL for n <= dense_cutoff, Lanczos with the
/// all-ones kernel deflated above it.  Asserts the graph is connected
/// conceptually; for disconnected graphs λ2 = 0 is returned (multiplicity
/// of eigenvalue 0 exceeds 1).
double lambda2(const graph::Graph& g, std::size_t dense_cutoff = 512);

/// λ2 of a topology frame (masked rounds profiled with no Graph build).
double lambda2(const graph::TopologyFrame& frame, std::size_t dense_cutoff = 512);

/// The summary of g given its Laplacian's λ2 (`l2`) and λ_max (`lmax`).
/// γ uses the exact relation μ = 1 − λ/(δ+1) for the uniform-α matrix M, so
/// γ = max(|1 − λ2/(δ+1)|, |1 − λ_max/(δ+1)|) and the gap is 1 − γ.  The
/// one copy of that formula: spectral_summary, diffusion_gamma and
/// SpectralCache all read through it.
SpectralSummary summarize_spectrum(const graph::Graph& g, double l2, double lmax);

/// Everything at once (λ2, λmax, γ).  Dense path (n <= dense_cutoff): one
/// values-only solve, read at both ends.  Sparse path: one Lanczos solve
/// per end.
SpectralSummary spectral_summary(const graph::Graph& g, std::size_t dense_cutoff = 512);

/// γ = max_{μ_i ≠ 1} |μ_i| over eigenvalues of the diffusion matrix M:
/// spectral_summary(g, dense_cutoff).gamma.
double diffusion_gamma(const graph::Graph& g, std::size_t dense_cutoff = 512);

/// Full Laplacian spectrum, ascending (dense path; n <= 2048 asserted).
Vector laplacian_spectrum(const graph::Graph& g);

/// Closed-form λ2 where one is known; nullopt otherwise.  Matches on the
/// generator name() prefix: path, cycle, complete, star, hypercube,
/// torus2d, grid2d.
std::optional<double> lambda2_closed_form(const graph::Graph& g);

/// Cheeger bounds: λ2/2 <= h(G) <= sqrt(2 δ λ2), where h is the
/// conductance-style expansion.  Returns {lower, upper} for cross-checking
/// exact small-graph expansion.
std::pair<double, double> cheeger_bounds(const graph::Graph& g,
                                         std::size_t dense_cutoff = 512);

}  // namespace lb::linalg
