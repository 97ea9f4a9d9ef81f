// Unit tests for dense matrices and vector kernels (lb/linalg/dense.hpp).
#include "lb/linalg/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "jacobi_eigen.hpp"  // off_diagonal_norm

namespace {

using lb::linalg::DenseMatrix;
using lb::linalg::Vector;

TEST(DenseMatrixTest, ConstructionAndFill) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(DenseMatrixTest, IdentityMultiplyIsNoop) {
  const DenseMatrix eye = DenseMatrix::identity(4);
  const Vector x{1.0, -2.0, 3.0, 0.5};
  EXPECT_EQ(eye.multiply(x), x);
}

TEST(DenseMatrixTest, MatrixVectorKnownResult) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const Vector x{1.0, 1.0};
  const Vector y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(DenseMatrixTest, MatrixMatrixKnownResult) {
  DenseMatrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 0; b(0, 1) = 1; b(1, 0) = 1; b(1, 1) = 0;  // swap columns
  const DenseMatrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(DenseMatrixTest, MultiplyByIdentityMatrix) {
  DenseMatrix a(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = static_cast<double>(r * 3 + c);
  const DenseMatrix p = a.multiply(DenseMatrix::identity(3));
  EXPECT_DOUBLE_EQ(a.max_abs_diff(p), 0.0);
}

TEST(DenseMatrixTest, TransposeInvolution) {
  DenseMatrix a(2, 3);
  a(0, 2) = 5.0;
  a(1, 0) = -1.0;
  const DenseMatrix att = a.transpose().transpose();
  EXPECT_DOUBLE_EQ(a.max_abs_diff(att), 0.0);
  EXPECT_DOUBLE_EQ(a.transpose()(2, 0), 5.0);
}

TEST(DenseMatrixTest, SymmetryDetection) {
  DenseMatrix s(2, 2);
  s(0, 1) = s(1, 0) = 3.0;
  EXPECT_TRUE(s.is_symmetric());
  s(0, 1) = 3.1;
  EXPECT_FALSE(s.is_symmetric(1e-3));
  EXPECT_TRUE(s.is_symmetric(0.2));
}

TEST(DenseMatrixTest, NonSquareIsNotSymmetric) {
  EXPECT_FALSE(DenseMatrix(2, 3).is_symmetric());
}

TEST(DenseMatrixTest, OffDiagonalNorm) {
  DenseMatrix m(2, 2);
  m(0, 0) = 100.0;
  m(0, 1) = 3.0;
  m(1, 0) = 4.0;
  EXPECT_DOUBLE_EQ(lb::linalg::off_diagonal_norm(m), 5.0);
}

TEST(VectorKernelsTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(lb::linalg::dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(lb::linalg::norm2({3.0, 4.0}), 5.0);
}

TEST(VectorKernelsTest, Axpy) {
  Vector y{1.0, 2.0};
  lb::linalg::axpy(2.0, {10.0, 20.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 21.0);
  EXPECT_DOUBLE_EQ(y[1], 42.0);
}

TEST(VectorKernelsTest, Scale) {
  Vector x{2.0, -4.0};
  lb::linalg::scale(x, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(VectorKernelsTest, RemoveComponentOrthogonalizes) {
  Vector x{1.0, 1.0};
  const Vector d{1.0, 0.0};
  lb::linalg::remove_component(x, d);
  EXPECT_NEAR(lb::linalg::dot(x, d), 0.0, 1e-14);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(VectorKernelsTest, RemoveComponentOfZeroDirectionIsNoop) {
  Vector x{1.0, 2.0};
  lb::linalg::remove_component(x, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(VectorKernelsTest, NormalizeReturnsOriginalNorm) {
  Vector x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(lb::linalg::normalize(x), 5.0);
  EXPECT_NEAR(lb::linalg::norm2(x), 1.0, 1e-14);
}

TEST(VectorKernelsTest, NormalizeZeroVectorLeavesZero) {
  Vector x{0.0, 0.0};
  EXPECT_DOUBLE_EQ(lb::linalg::normalize(x), 0.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

}  // namespace
