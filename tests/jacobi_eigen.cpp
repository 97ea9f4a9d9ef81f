#include "jacobi_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "lb/util/assert.hpp"

namespace lb::linalg {

double off_diagonal_norm(const DenseMatrix& a) {
  LB_ASSERT_MSG(a.rows() == a.cols(), "off_diagonal_norm requires a square matrix");
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (r != c) acc += a(r, c) * a(r, c);
  return std::sqrt(acc);
}

EigenDecomposition jacobi_eigen(const DenseMatrix& input, const JacobiOptions& opts) {
  LB_ASSERT_MSG(input.rows() == input.cols(), "jacobi_eigen requires a square matrix");
  LB_ASSERT_MSG(input.is_symmetric(1e-9), "jacobi_eigen requires a symmetric matrix");
  const std::size_t n = input.rows();

  DenseMatrix a = input;
  DenseMatrix v = DenseMatrix::identity(n);

  double frob = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) frob += a(i, j) * a(i, j);
  frob = std::sqrt(frob);
  const double threshold = opts.tolerance * std::max(frob, 1.0);

  EigenDecomposition out;
  for (out.sweeps = 0; out.sweeps < opts.max_sweeps; ++out.sweeps) {
    if (off_diagonal_norm(a) <= threshold) {
      out.converged = true;
      break;
    }
    // One cyclic sweep over all upper-triangle pairs.
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= threshold / static_cast<double>(n * n)) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Rotation angle via the stable tangent formula.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // A <- J^T A J applied in place.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        if (opts.compute_vectors) {
          for (std::size_t k = 0; k < n; ++k) {
            const double vkp = v(k, p);
            const double vkq = v(k, q);
            v(k, p) = c * vkp - s * vkq;
            v(k, q) = s * vkp + c * vkq;
          }
        }
      }
    }
  }
  if (!out.converged && off_diagonal_norm(a) <= threshold) out.converged = true;

  // Extract eigenvalues and sort ascending, permuting the vectors along.
  Vector values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = a(i, i);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return values[x] < values[y]; });

  out.values.resize(n);
  if (opts.compute_vectors) out.vectors = DenseMatrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = values[order[k]];
    if (opts.compute_vectors) {
      for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = v(r, order[k]);
    }
  }
  return out;
}

}  // namespace lb::linalg
