// Dense row-major matrices and the vector kernels the eigensolvers need.
//
// This module (together with tridiag/lanczos) replaces the
// Eigen dependency the reproduction would otherwise need for spectral
// analysis: the target environment has no Eigen, so we implement the
// required solvers ourselves and validate them against closed-form graph
// spectra in the tests.
#pragma once

#include <cstddef>
#include <vector>

#include "lb/util/assert.hpp"

namespace lb::linalg {

using Vector = std::vector<double>;

/// Dense row-major n x m matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // Inline: the O(n³) eigensolver loops index through these.
  double& operator()(std::size_t r, std::size_t c) {
    LB_DEBUG_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    LB_DEBUG_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// y = A * x.
  Vector multiply(const Vector& x) const;

  /// C = A * B.
  DenseMatrix multiply(const DenseMatrix& other) const;

  DenseMatrix transpose() const;

  /// Max |a_ij - b_ij|; matrices must have equal shape.
  double max_abs_diff(const DenseMatrix& other) const;

  /// True if |a_ij - a_ji| <= tol for all i, j (square matrices only).
  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

// ---- vector kernels ----

double dot(const Vector& a, const Vector& b);
double norm2(const Vector& a);
/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);
/// x *= alpha
void scale(Vector& x, double alpha);
/// Remove the component of x along the (not necessarily unit) direction d.
void remove_component(Vector& x, const Vector& d);
/// Normalize x to unit 2-norm; returns the original norm (0 if x was 0).
double normalize(Vector& x);

}  // namespace lb::linalg
