#include "lb/linalg/dense.hpp"

#include <cmath>

#include "lb/util/assert.hpp"

namespace lb::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector DenseMatrix::multiply(const Vector& x) const {
  LB_ASSERT_MSG(x.size() == cols_, "matrix-vector shape mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  LB_ASSERT_MSG(cols_ == other.rows_, "matrix-matrix shape mismatch");
  DenseMatrix out(rows_, other.cols_, 0.0);
  // i-k-j order for cache-friendly access to both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.data_.data() + k * other.cols_;
      double* orow = out.data_.data() + i * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  LB_ASSERT_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

double dot(const Vector& a, const Vector& b) {
  LB_ASSERT_MSG(a.size() == b.size(), "dot length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, const Vector& x, Vector& y) {
  LB_ASSERT_MSG(x.size() == y.size(), "axpy length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vector& x, double alpha) {
  for (double& v : x) v *= alpha;
}

void remove_component(Vector& x, const Vector& d) {
  const double dd = dot(d, d);
  if (dd == 0.0) return;
  const double coef = dot(x, d) / dd;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] -= coef * d[i];
}

double normalize(Vector& x) {
  const double n = norm2(x);
  if (n > 0.0) scale(x, 1.0 / n);
  return n;
}

}  // namespace lb::linalg
