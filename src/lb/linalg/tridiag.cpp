#include "lb/linalg/tridiag.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "lb/util/assert.hpp"

namespace lb::linalg {

namespace {

// sqrt(a^2 + b^2) without destructive underflow/overflow.
double pythag(double a, double b) {
  const double absa = std::fabs(a);
  const double absb = std::fabs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

}  // namespace

void householder_tridiagonalize(DenseMatrix a, Vector& diag, Vector& off,
                                DenseMatrix* accumulate) {
  LB_ASSERT_MSG(a.rows() == a.cols(), "tridiagonalize requires a square matrix");
  LB_ASSERT_MSG(a.is_symmetric(1e-9), "tridiagonalize requires a symmetric matrix");
  const std::size_t n = a.rows();
  diag.assign(n, 0.0);
  off.assign(n, 0.0);

  // Classic Householder reduction (Numerical-Recipes-style tred2), working
  // on the lower triangle, row i eliminating elements a(i, 0..i-2).
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        off[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        off[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          if (accumulate) a(j, i) = a(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          off[j] = g / h;
          f += off[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          off[j] = g = off[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k) {
            a(j, k) -= f * off[k] + g * a(i, k);
          }
        }
      }
    } else {
      off[i] = a(i, l);
    }
    diag[i] = h;
  }

  if (accumulate) diag[0] = 0.0;
  off[0] = 0.0;

  if (accumulate) {
    // Accumulate the transformation in-place (tred2's second phase), then
    // copy out.
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && diag[i] != 0.0) {
        const std::size_t l = i;  // columns 0..i-1
        for (std::size_t j = 0; j < l; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < l; ++k) g += a(i, k) * a(k, j);
          for (std::size_t k = 0; k < l; ++k) a(k, j) -= g * a(k, i);
        }
      }
      diag[i] = a(i, i);
      a(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        a(j, i) = 0.0;
        a(i, j) = 0.0;
      }
    }
    *accumulate = std::move(a);
  } else {
    for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  }
}

bool tridiagonal_ql(Vector& diag, Vector& off, DenseMatrix* z, std::size_t max_iter) {
  const std::size_t n = diag.size();
  LB_ASSERT_MSG(off.size() == n, "tridiagonal_ql size mismatch");
  if (n == 0) return true;
  if (z) {
    LB_ASSERT_MSG(z->rows() == n && z->cols() == n, "accumulator shape mismatch");
  }
  // Shift the sub-diagonal so off[i] couples diag[i] and diag[i+1].
  for (std::size_t i = 1; i < n; ++i) off[i - 1] = off[i];
  off[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    std::size_t iter = 0;
    std::size_t m;
    do {
      // Find a negligible sub-diagonal element to split the matrix.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(diag[m]) + std::fabs(diag[m + 1]);
        if (std::fabs(off[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (iter++ == max_iter) return false;
        // Implicit QL step with Wilkinson shift.
        double g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
        double r = pythag(g, 1.0);
        g = diag[m] - diag[l] + off[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          double f = s * off[i];
          const double b = c * off[i];
          r = pythag(f, g);
          off[i + 1] = r;
          if (r == 0.0) {
            diag[i + 1] -= p;
            off[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = diag[i + 1] - p;
          r = (diag[i] - g) * s + 2.0 * c * b;
          p = s * r;
          diag[i + 1] = g + p;
          g = c * r - b;
          if (z) {
            for (std::size_t k = 0; k < n; ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (r == 0.0 && m > l + 1) continue;
        diag[l] -= p;
        off[l] = g;
        off[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

EigenDecomposition symmetric_eigen(DenseMatrix a, const TridiagOptions& opts) {
  const std::size_t n = a.rows();
  EigenDecomposition out;
  Vector diag, off;
  DenseMatrix q;
  DenseMatrix* qp = nullptr;
  if (opts.compute_vectors) {
    qp = &q;
  }
  householder_tridiagonalize(std::move(a), diag, off, qp);
  out.converged = tridiagonal_ql(diag, off, qp, opts.max_iterations_per_eigenvalue);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] < diag[y]; });
  out.values.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.values[k] = diag[order[k]];
  if (opts.compute_vectors) {
    out.vectors = DenseMatrix(n, n);
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = q(r, order[k]);
  }
  out.sweeps = 0;
  return out;
}

}  // namespace lb::linalg
