// Cyclic Jacobi eigensolver for dense symmetric matrices: the tests'
// independent cross-check of the library's Householder+QL solver
// (lb/linalg/tridiag.hpp) and of the spectral layer built on it.
//
// Robust and simple; O(n^3) per sweep, so intended for n up to ~512.
#pragma once

#include "lb/linalg/tridiag.hpp"  // EigenDecomposition

namespace lb::linalg {

struct JacobiOptions {
  double tolerance = 1e-12;    ///< stop when off-diagonal Frobenius norm <= tol * ||A||_F
  std::size_t max_sweeps = 64;
  bool compute_vectors = true;
};

/// Full eigendecomposition of a symmetric matrix (asserts symmetry).
EigenDecomposition jacobi_eigen(const DenseMatrix& a, const JacobiOptions& opts = {});

/// Frobenius norm of the off-diagonal part (Jacobi convergence measure;
/// square matrices only).
double off_diagonal_norm(const DenseMatrix& a);

}  // namespace lb::linalg
