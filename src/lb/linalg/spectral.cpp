#include "lb/linalg/spectral.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>

#include "lb/linalg/lanczos.hpp"
#include "lb/linalg/tridiag.hpp"
#include "lb/util/assert.hpp"

namespace lb::linalg {

namespace {

constexpr double kPi = 3.14159265358979323846;

Vector ones_vector(std::size_t n) { return Vector(n, 1.0); }

/// Ascending Laplacian spectrum: one values-only tridiagonal-QL solve.
Vector dense_spectrum(const graph::Graph& g) {
  EigenDecomposition d = symmetric_eigen(laplacian_dense(g));
  LB_ASSERT_MSG(d.converged, "tridiagonal QL failed to converge on a Laplacian");
  return std::move(d.values);
}

/// Largest Laplacian eigenvalue by Lanczos: spectral_summary's sparse arm.
double lambda_max(const graph::Graph& g) {
  const CsrMatrix l = laplacian_csr(g);
  LanczosOptions opts;
  opts.max_dim = std::min<std::size_t>(g.num_nodes(), 600);
  const LanczosResult r = lanczos_largest(l, opts);
  LB_ASSERT_MSG(r.converged, "Lanczos failed to converge for lambda_max");
  return r.eigenvalue;
}

}  // namespace

// A full graph is the degenerate (unmasked) frame, so the Graph
// overloads delegate to the frame assemblers — one copy of each loop.
CsrMatrix laplacian_csr(const graph::Graph& g) {
  return laplacian_csr(graph::TopologyFrame(g));
}

DenseMatrix laplacian_dense(const graph::Graph& g) {
  return laplacian_dense(graph::TopologyFrame(g));
}

CsrMatrix laplacian_csr(const graph::TopologyFrame& frame) {
  const std::size_t n = frame.num_nodes();
  std::vector<std::size_t> rows, cols;
  std::vector<double> vals;
  rows.reserve(n + 2 * frame.num_edges());
  cols.reserve(rows.capacity());
  vals.reserve(rows.capacity());
  for (std::size_t u = 0; u < n; ++u) {
    rows.push_back(u);
    cols.push_back(u);
    vals.push_back(static_cast<double>(frame.degree(static_cast<graph::NodeId>(u))));
  }
  const auto& edges = frame.base().edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (!frame.alive(k)) continue;
    rows.push_back(edges[k].u);
    cols.push_back(edges[k].v);
    vals.push_back(-1.0);
    rows.push_back(edges[k].v);
    cols.push_back(edges[k].u);
    vals.push_back(-1.0);
  }
  return CsrMatrix::from_triplets(n, std::move(rows), std::move(cols), std::move(vals));
}

DenseMatrix laplacian_dense(const graph::TopologyFrame& frame) {
  const std::size_t n = frame.num_nodes();
  DenseMatrix l(n, n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    l(u, u) = static_cast<double>(frame.degree(static_cast<graph::NodeId>(u)));
  }
  const auto& edges = frame.base().edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (!frame.alive(k)) continue;
    l(edges[k].u, edges[k].v) = -1.0;
    l(edges[k].v, edges[k].u) = -1.0;
  }
  return l;
}

CsrMatrix diffusion_matrix_csr(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  const double alpha = 1.0 / (static_cast<double>(g.max_degree()) + 1.0);
  std::vector<std::size_t> rows, cols;
  std::vector<double> vals;
  for (std::size_t u = 0; u < n; ++u) {
    rows.push_back(u);
    cols.push_back(u);
    vals.push_back(1.0 - alpha * static_cast<double>(
                             g.degree(static_cast<graph::NodeId>(u))));
  }
  for (const graph::Edge& e : g.edges()) {
    rows.push_back(e.u);
    cols.push_back(e.v);
    vals.push_back(alpha);
    rows.push_back(e.v);
    cols.push_back(e.u);
    vals.push_back(alpha);
  }
  return CsrMatrix::from_triplets(n, std::move(rows), std::move(cols), std::move(vals));
}

DenseMatrix diffusion_matrix_dense(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  const double alpha = 1.0 / (static_cast<double>(g.max_degree()) + 1.0);
  DenseMatrix m(n, n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    m(u, u) = 1.0 - alpha * static_cast<double>(g.degree(static_cast<graph::NodeId>(u)));
  }
  for (const graph::Edge& e : g.edges()) {
    m(e.u, e.v) = alpha;
    m(e.v, e.u) = alpha;
  }
  return m;
}

namespace {

// Override state: -1 = no override (env/default applies).
std::atomic<long long> g_max_spectral_override{-1};
std::atomic<long long> g_max_lanczos_override{-1};

std::size_t env_ceiling(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && parsed >= 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

std::size_t env_max_spectral_n() {
  static const std::size_t cached =
      env_ceiling("LB_MAX_SPECTRAL_N", std::size_t{131072});  // 2^17
  return cached;
}

std::size_t env_max_lanczos_spectral_n() {
  static const std::size_t cached =
      env_ceiling("LB_MAX_LANCZOS_SPECTRAL_N", std::size_t{2097152});  // 2^21
  return cached;
}

}  // namespace

std::size_t max_spectral_n() {
  const long long ceiling = g_max_spectral_override.load(std::memory_order_relaxed);
  if (ceiling >= 0) return static_cast<std::size_t>(ceiling);
  return env_max_spectral_n();
}

std::size_t max_lanczos_spectral_n() {
  const long long ceiling = g_max_lanczos_override.load(std::memory_order_relaxed);
  if (ceiling >= 0) return static_cast<std::size_t>(ceiling);
  return env_max_lanczos_spectral_n();
}

void set_max_spectral_n(long long ceiling) {
  // Historical hard-ceiling hook: sets both paths' ceilings so existing
  // callers (scale tests/benches) keep their "no spectral work above n"
  // semantics.  set_max_lanczos_spectral_n() can re-split afterwards.
  const long long stored = ceiling < 0 ? -1 : ceiling;
  g_max_spectral_override.store(stored, std::memory_order_relaxed);
  g_max_lanczos_override.store(stored, std::memory_order_relaxed);
}

void set_max_lanczos_spectral_n(long long ceiling) {
  g_max_lanczos_override.store(ceiling < 0 ? -1 : ceiling,
                               std::memory_order_relaxed);
}

SpectralGuard spectral_guard(std::size_t num_nodes, std::size_t dense_cutoff) {
  if (num_nodes <= dense_cutoff) {
    const std::size_t ceiling = max_spectral_n();
    return ceiling != 0 && num_nodes > ceiling ? SpectralGuard::kDense
                                               : SpectralGuard::kNone;
  }
  const std::size_t ceiling = max_lanczos_spectral_n();
  return ceiling != 0 && num_nodes > ceiling ? SpectralGuard::kLanczos
                                             : SpectralGuard::kNone;
}

bool spectral_guard_active(std::size_t num_nodes) {
  return spectral_guard(num_nodes) != SpectralGuard::kNone;
}

double lambda2(const graph::Graph& g, std::size_t dense_cutoff) {
  return lambda2(graph::TopologyFrame(g), dense_cutoff);
}

double lambda2(const graph::TopologyFrame& frame, std::size_t dense_cutoff) {
  const std::size_t n = frame.num_nodes();
  LB_ASSERT_MSG(n >= 2, "lambda2 needs at least two nodes");
  if (spectral_guard(n, dense_cutoff) != SpectralGuard::kNone) {
    return 0.0;  // deterministic degraded value
  }
  if (n <= dense_cutoff) {
    const EigenDecomposition d = symmetric_eigen(laplacian_dense(frame));
    LB_ASSERT_MSG(d.converged, "tridiagonal QL failed to converge on a Laplacian");
    return d.values[1];
  }
  const CsrMatrix l = laplacian_csr(frame);
  LanczosOptions opts;
  opts.deflate = {ones_vector(n)};
  opts.max_dim = std::min<std::size_t>(n - 1, 600);
  const LanczosResult r = lanczos_smallest(l, opts);
  LB_ASSERT_MSG(r.converged, "Lanczos failed to converge for lambda2");
  // Clamp the tiny negative values rounding can produce for near-
  // disconnected graphs.
  return std::max(r.eigenvalue, 0.0);
}

SpectralSummary summarize_spectrum(const graph::Graph& g, double l2, double lmax) {
  SpectralSummary s;
  s.n = g.num_nodes();
  s.max_degree = g.max_degree();
  s.lambda2 = l2;
  s.lambda_max = lmax;
  const double dp1 = static_cast<double>(s.max_degree) + 1.0;
  s.gamma = std::max(std::fabs(1.0 - l2 / dp1), std::fabs(1.0 - lmax / dp1));
  s.eigen_gap = 1.0 - s.gamma;
  return s;
}

SpectralSummary spectral_summary(const graph::Graph& g, std::size_t dense_cutoff) {
  const std::size_t n = g.num_nodes();
  LB_ASSERT_MSG(n >= 2, "spectral_summary needs at least two nodes");
  if (spectral_guard(n, dense_cutoff) != SpectralGuard::kNone) {
    // Degraded summary: zero eigenvalues and γ = 0 (not the γ = 1 the
    // zeros would compose to, which would trip the optimal_beta domain
    // assert; γ = 0 degrades SOS's auto-β to 1, a plain FOS step), unit gap.
    SpectralSummary s;
    s.n = n;
    s.max_degree = g.max_degree();
    s.eigen_gap = 1.0;
    return s;
  }
  if (n <= dense_cutoff) {
    const Vector spectrum = dense_spectrum(g);
    return summarize_spectrum(g, spectrum[1], spectrum.back());
  }
  return summarize_spectrum(g, lambda2(g, dense_cutoff), lambda_max(g));
}

double diffusion_gamma(const graph::Graph& g, std::size_t dense_cutoff) {
  return spectral_summary(g, dense_cutoff).gamma;
}

Vector laplacian_spectrum(const graph::Graph& g) {
  LB_ASSERT_MSG(g.num_nodes() <= 2048, "full spectrum restricted to n <= 2048");
  return dense_spectrum(g);
}

std::optional<double> lambda2_closed_form(const graph::Graph& g) {
  const std::string& name = g.name();
  const std::size_t n = g.num_nodes();
  auto starts_with = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts_with("path(")) {
    return 2.0 * (1.0 - std::cos(kPi / static_cast<double>(n)));
  }
  if (starts_with("cycle(")) {
    return 2.0 * (1.0 - std::cos(2.0 * kPi / static_cast<double>(n)));
  }
  if (starts_with("complete(")) return static_cast<double>(n);
  if (starts_with("star(")) return 1.0;
  if (starts_with("hypercube(")) return 2.0;
  if (starts_with("torus2d(") || starts_with("grid2d(")) {
    // Parse "fam(AxB)".
    const auto open = name.find('(');
    const auto x = name.find('x', open);
    const auto close = name.find(')', x);
    if (open == std::string::npos || x == std::string::npos || close == std::string::npos) {
      return std::nullopt;
    }
    const std::size_t a = std::stoul(name.substr(open + 1, x - open - 1));
    const std::size_t b = std::stoul(name.substr(x + 1, close - x - 1));
    const double longest = static_cast<double>(std::max(a, b));
    if (starts_with("torus2d(")) {
      return 2.0 * (1.0 - std::cos(2.0 * kPi / longest));
    }
    return 2.0 * (1.0 - std::cos(kPi / longest));
  }
  return std::nullopt;
}

std::pair<double, double> cheeger_bounds(const graph::Graph& g, std::size_t dense_cutoff) {
  const double l2 = lambda2(g, dense_cutoff);
  const double upper =
      std::sqrt(2.0 * static_cast<double>(g.max_degree()) * std::max(l2, 0.0));
  return {l2 / 2.0, upper};
}

}  // namespace lb::linalg
