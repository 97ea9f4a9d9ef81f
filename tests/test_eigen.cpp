// Unit tests for the dense symmetric eigensolvers: cyclic Jacobi
// (tests/jacobi_eigen.hpp) and Householder+QL (lb/linalg/tridiag.hpp),
// cross-validated against each other, against closed-form spectra, and
// against the defining residual ||A v − λ v||.
#include <gtest/gtest.h>

#include <cmath>

#include "jacobi_eigen.hpp"
#include "lb/linalg/dense.hpp"
#include "lb/linalg/tridiag.hpp"
#include "lb/util/rng.hpp"

namespace {

using lb::linalg::DenseMatrix;
using lb::linalg::EigenDecomposition;
using lb::linalg::Vector;

DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  lb::util::Rng rng(seed);
  DenseMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      const double v = rng.next_double(-1.0, 1.0);
      m(r, c) = v;
      m(c, r) = v;
    }
  }
  return m;
}

double trace(const DenseMatrix& m) {
  double t = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) t += m(i, i);
  return t;
}

void expect_valid_decomposition(const DenseMatrix& a, const EigenDecomposition& d,
                                double tol) {
  const std::size_t n = a.rows();
  ASSERT_EQ(d.values.size(), n);
  // Ascending order.
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(d.values[i - 1], d.values[i] + tol);
  // Eigenvalue sum equals the trace.
  double sum = 0.0;
  for (double v : d.values) sum += v;
  EXPECT_NEAR(sum, trace(a), tol * static_cast<double>(n));
  // Residual and orthonormality when vectors were computed.
  if (d.vectors.rows() == n) {
    for (std::size_t k = 0; k < n; ++k) {
      Vector v(n), av(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) v[i] = d.vectors(i, k);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) av[i] += a(i, j) * v[j];
      double resid = 0.0, norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = av[i] - d.values[k] * v[i];
        resid += r * r;
        norm += v[i] * v[i];
      }
      EXPECT_NEAR(std::sqrt(norm), 1.0, tol) << "eigenvector " << k << " not unit";
      EXPECT_LT(std::sqrt(resid), tol * 10) << "residual too large for pair " << k;
    }
  }
}

TEST(JacobiTest, DiagonalMatrixIsItsOwnSpectrum) {
  DenseMatrix m(3, 3);
  m(0, 0) = 3.0;
  m(1, 1) = -1.0;
  m(2, 2) = 2.0;
  const EigenDecomposition d = lb::linalg::jacobi_eigen(m);
  EXPECT_TRUE(d.converged);
  EXPECT_NEAR(d.values[0], -1.0, 1e-12);
  EXPECT_NEAR(d.values[1], 2.0, 1e-12);
  EXPECT_NEAR(d.values[2], 3.0, 1e-12);
}

TEST(JacobiTest, TwoByTwoClosedForm) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  DenseMatrix m(2, 2);
  m(0, 0) = m(1, 1) = 2.0;
  m(0, 1) = m(1, 0) = 1.0;
  const EigenDecomposition d = lb::linalg::jacobi_eigen(m);
  EXPECT_NEAR(d.values[0], 1.0, 1e-12);
  EXPECT_NEAR(d.values[1], 3.0, 1e-12);
}

TEST(JacobiTest, RandomMatricesSatisfyDefinition) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const DenseMatrix a = random_symmetric(12, seed);
    const EigenDecomposition d = lb::linalg::jacobi_eigen(a);
    EXPECT_TRUE(d.converged);
    expect_valid_decomposition(a, d, 1e-9);
  }
}

TEST(JacobiTest, WithoutVectorsStillSortsValues) {
  lb::linalg::JacobiOptions opts;
  opts.compute_vectors = false;
  const DenseMatrix a = random_symmetric(10, 7);
  const EigenDecomposition d = lb::linalg::jacobi_eigen(a, opts);
  for (std::size_t i = 1; i < d.values.size(); ++i) {
    EXPECT_LE(d.values[i - 1], d.values[i]);
  }
  EXPECT_EQ(d.vectors.rows(), 0u);
}

TEST(TridiagTest, MatchesJacobiOnRandomMatrices) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const DenseMatrix a = random_symmetric(16, seed);
    const EigenDecomposition jac = lb::linalg::jacobi_eigen(a);
    const EigenDecomposition ql = lb::linalg::symmetric_eigen(a);
    ASSERT_TRUE(ql.converged);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(jac.values[i], ql.values[i], 1e-8) << "eigenvalue " << i;
    }
  }
}

TEST(TridiagTest, VectorsSatisfyDefinition) {
  const DenseMatrix a = random_symmetric(14, 21);
  lb::linalg::TridiagOptions opts;
  opts.compute_vectors = true;
  const EigenDecomposition d = lb::linalg::symmetric_eigen(a, opts);
  ASSERT_TRUE(d.converged);
  expect_valid_decomposition(a, d, 1e-8);
}

TEST(TridiagTest, AlreadyTridiagonalMatrix) {
  // Tridiagonal Toeplitz [2, -1] of size n: eigenvalues 2 - 2cos(kπ/(n+1)).
  constexpr std::size_t n = 20;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  const EigenDecomposition d = lb::linalg::symmetric_eigen(a);
  ASSERT_TRUE(d.converged);
  for (std::size_t k = 1; k <= n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(static_cast<double>(k) * M_PI / (n + 1.0));
    EXPECT_NEAR(d.values[k - 1], expected, 1e-10);
  }
}

TEST(TridiagTest, OneByOneMatrix) {
  DenseMatrix a(1, 1);
  a(0, 0) = 5.0;
  const EigenDecomposition d = lb::linalg::symmetric_eigen(a);
  ASSERT_TRUE(d.converged);
  EXPECT_DOUBLE_EQ(d.values[0], 5.0);
}

TEST(TridiagTest, LargerMatrixStaysAccurate) {
  const DenseMatrix a = random_symmetric(64, 31);
  const EigenDecomposition d = lb::linalg::symmetric_eigen(a);
  ASSERT_TRUE(d.converged);
  double sum = 0.0;
  for (double v : d.values) sum += v;
  EXPECT_NEAR(sum, trace(a), 1e-8);
}

TEST(TridiagQLTest, RawTridiagonalDriver) {
  // diag = [1, 1], off couples with 1 -> eigenvalues 0 and 2.
  Vector d{1.0, 1.0};
  Vector e{0.0, 1.0};
  ASSERT_TRUE(lb::linalg::tridiagonal_ql(d, e, nullptr));
  std::sort(d.begin(), d.end());
  EXPECT_NEAR(d[0], 0.0, 1e-12);
  EXPECT_NEAR(d[1], 2.0, 1e-12);
}

}  // namespace
