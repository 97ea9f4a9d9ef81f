// Symmetric eigensolver via Householder tridiagonalization followed by
// implicit-shift QL iteration ("tqli").  O(n^3) with a much smaller
// constant than cyclic Jacobi; the default full-spectrum solver for
// n up to a few thousand.  Eigenvectors are optional.
#pragma once

#include "lb/linalg/dense.hpp"

namespace lb::linalg {

struct EigenDecomposition {
  /// Eigenvalues in ascending order.
  Vector values;
  /// Optional: column k of `vectors` is the unit eigenvector for values[k].
  DenseMatrix vectors;
  /// Number of sweeps performed (iterative solvers; 0 for QL).
  std::size_t sweeps = 0;
  bool converged = false;
};

struct TridiagOptions {
  std::size_t max_iterations_per_eigenvalue = 60;
  bool compute_vectors = false;
};

/// Householder-reduce a symmetric matrix to tridiagonal form, reading
/// only its lower triangle.  `a` is the working copy (callers done with
/// their matrix move it in).  On return `diag` has the diagonal, `off`
/// the sub-diagonal (off[0] unused), and if `accumulate` is non-null it
/// holds the orthogonal transform Q such that Q^T A Q = T.
void householder_tridiagonalize(DenseMatrix a, Vector& diag, Vector& off,
                                DenseMatrix* accumulate);

/// Eigenvalues (ascending) of a symmetric tridiagonal matrix; if `z` is
/// non-null it must hold the accumulated transform on input and holds the
/// eigenvectors (columns) on output.
bool tridiagonal_ql(Vector& diag, Vector& off, DenseMatrix* z,
                    std::size_t max_iter = 60);

/// Full symmetric eigendecomposition (tridiagonalize + QL); takes `a` by
/// value like householder_tridiagonalize, so a moved-in matrix is the
/// solve's only n² buffer on the values-only path.
EigenDecomposition symmetric_eigen(DenseMatrix a, const TridiagOptions& opts = {});

}  // namespace lb::linalg
