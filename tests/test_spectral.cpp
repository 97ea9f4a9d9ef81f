// Tests for the spectral graph utilities (lb/linalg/spectral.hpp): the λ2
// and γ every theorem bound depends on, validated against closed forms.
#include "lb/linalg/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "jacobi_eigen.hpp"
#include "lb/graph/generators.hpp"
#include "lb/graph/properties.hpp"
#include "lb/linalg/dense.hpp"
#include "lb/linalg/tridiag.hpp"
#include "lb/util/rng.hpp"

namespace {

using lb::graph::Graph;
using lb::linalg::Vector;

/// Fiedler vector (unit eigenvector of λ2): column 1 of the dense
/// Laplacian solve with eigenvectors on.
Vector fiedler_vector(const Graph& g) {
  lb::linalg::TridiagOptions opts;
  opts.compute_vectors = true;
  const lb::linalg::EigenDecomposition d =
      lb::linalg::symmetric_eigen(lb::linalg::laplacian_dense(g), opts);
  EXPECT_TRUE(d.converged);
  Vector f(g.num_nodes());
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = d.vectors(i, 1);
  return f;
}

TEST(LaplacianTest, DiagonalIsDegree) {
  const Graph g = lb::graph::make_star(5);
  const auto l = lb::linalg::laplacian_dense(g);
  EXPECT_DOUBLE_EQ(l(0, 0), 4.0);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_DOUBLE_EQ(l(i, i), 1.0);
  EXPECT_DOUBLE_EQ(l(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(l(1, 2), 0.0);
}

TEST(LaplacianTest, SymmetricWithZeroRowSums) {
  const Graph g = lb::graph::make_torus2d(4, 4);
  const auto l = lb::linalg::laplacian_dense(g);
  EXPECT_TRUE(l.is_symmetric());
  for (std::size_t r = 0; r < g.num_nodes(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < g.num_nodes(); ++c) sum += l(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

TEST(DiffusionMatrixTest, DoublyStochastic) {
  const Graph g = lb::graph::make_wheel(8);
  const auto m = lb::linalg::diffusion_matrix_dense(g);
  for (std::size_t r = 0; r < g.num_nodes(); ++r) {
    double row = 0.0, col = 0.0;
    for (std::size_t c = 0; c < g.num_nodes(); ++c) {
      row += m(r, c);
      col += m(c, r);
      EXPECT_GE(m(r, c), 0.0);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
    EXPECT_NEAR(col, 1.0, 1e-12);
  }
}

TEST(DiffusionMatrixTest, EqualsIdentityMinusScaledLaplacian) {
  const Graph g = lb::graph::make_binary_tree(15);
  const auto m = lb::linalg::diffusion_matrix_dense(g);
  const auto l = lb::linalg::laplacian_dense(g);
  const double alpha = 1.0 / (static_cast<double>(g.max_degree()) + 1.0);
  for (std::size_t r = 0; r < g.num_nodes(); ++r) {
    for (std::size_t c = 0; c < g.num_nodes(); ++c) {
      const double expect = (r == c ? 1.0 : 0.0) - alpha * l(r, c);
      EXPECT_NEAR(m(r, c), expect, 1e-12);
    }
  }
}

// --- closed-form λ2 sweep ---

struct ClosedFormCase {
  const char* label;
  Graph graph;
  double expected;
};

class Lambda2ClosedFormTest : public ::testing::TestWithParam<int> {};

std::vector<ClosedFormCase> closed_form_cases() {
  std::vector<ClosedFormCase> cases;
  cases.push_back({"path16", lb::graph::make_path(16),
                   2.0 * (1.0 - std::cos(M_PI / 16.0))});
  cases.push_back({"path63", lb::graph::make_path(63),
                   2.0 * (1.0 - std::cos(M_PI / 63.0))});
  cases.push_back({"cycle24", lb::graph::make_cycle(24),
                   2.0 * (1.0 - std::cos(2.0 * M_PI / 24.0))});
  cases.push_back({"cycle101", lb::graph::make_cycle(101),
                   2.0 * (1.0 - std::cos(2.0 * M_PI / 101.0))});
  cases.push_back({"complete12", lb::graph::make_complete(12), 12.0});
  cases.push_back({"star20", lb::graph::make_star(20), 1.0});
  cases.push_back({"hypercube5", lb::graph::make_hypercube(5), 2.0});
  cases.push_back({"hypercube7", lb::graph::make_hypercube(7), 2.0});
  cases.push_back({"torus6x6", lb::graph::make_torus2d(6, 6),
                   2.0 * (1.0 - std::cos(2.0 * M_PI / 6.0))});
  cases.push_back({"torus4x8", lb::graph::make_torus2d(4, 8),
                   2.0 * (1.0 - std::cos(2.0 * M_PI / 8.0))});
  return cases;
}

TEST_P(Lambda2ClosedFormTest, MatchesTheory) {
  static const auto cases = closed_form_cases();
  const auto& c = cases[static_cast<std::size_t>(GetParam())];
  EXPECT_NEAR(lb::linalg::lambda2(c.graph), c.expected, 1e-8) << c.label;
}

TEST_P(Lambda2ClosedFormTest, ClosedFormHelperAgrees) {
  static const auto cases = closed_form_cases();
  const auto& c = cases[static_cast<std::size_t>(GetParam())];
  const auto cf = lb::linalg::lambda2_closed_form(c.graph);
  ASSERT_TRUE(cf.has_value()) << c.label;
  EXPECT_NEAR(*cf, c.expected, 1e-12) << c.label;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, Lambda2ClosedFormTest,
                         ::testing::Range(0, 10));

TEST(Lambda2Test, LanczosPathAgreesWithDensePath) {
  // Force the sparse path with a small dense cutoff and compare.
  const Graph g = lb::graph::make_torus2d(9, 9);
  const double dense = lb::linalg::lambda2(g, /*dense_cutoff=*/512);
  const double sparse = lb::linalg::lambda2(g, /*dense_cutoff=*/4);
  EXPECT_NEAR(dense, sparse, 1e-7);
}

TEST(Lambda2Test, DisconnectedGraphHasZeroLambda2) {
  lb::graph::GraphBuilder b(4, "two-pairs");
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_NEAR(lb::linalg::lambda2(g), 0.0, 1e-10);
}

TEST(LambdaMaxTest, CompleteGraphIsN) {
  const Graph g = lb::graph::make_complete(9);
  EXPECT_NEAR(lb::linalg::spectral_summary(g).lambda_max, 9.0, 1e-9);
}

TEST(LambdaMaxTest, BipartiteCycleIsFour) {
  const Graph g = lb::graph::make_cycle(10);  // even cycle is bipartite
  EXPECT_NEAR(lb::linalg::spectral_summary(g).lambda_max, 4.0, 1e-9);
}

TEST(GammaTest, MatchesDirectEigenvaluesOfM) {
  const Graph g = lb::graph::make_petersen();
  const auto m = lb::linalg::diffusion_matrix_dense(g);
  const auto decomp = lb::linalg::jacobi_eigen(m);
  double direct = 0.0;
  for (double mu : decomp.values) {
    if (std::fabs(mu - 1.0) < 1e-9) continue;
    direct = std::max(direct, std::fabs(mu));
  }
  EXPECT_NEAR(lb::linalg::diffusion_gamma(g), direct, 1e-9);
}

TEST(GammaTest, LiesInUnitInterval) {
  lb::util::Rng rng(3);
  for (const char* family : {"cycle", "torus2d", "hypercube", "tree"}) {
    const Graph g = lb::graph::make_named(family, 32, rng);
    const double gamma = lb::linalg::diffusion_gamma(g);
    EXPECT_GE(gamma, 0.0) << family;
    EXPECT_LT(gamma, 1.0) << family;
  }
}

TEST(SpectralSummaryTest, ConsistentFields) {
  const Graph g = lb::graph::make_torus2d(5, 5);
  const auto s = lb::linalg::spectral_summary(g);
  EXPECT_EQ(s.n, 25u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_GT(s.lambda2, 0.0);
  EXPECT_GE(s.lambda_max, s.lambda2);
  EXPECT_NEAR(s.eigen_gap, 1.0 - s.gamma, 1e-14);
}

TEST(FiedlerTest, OrthogonalToOnesAndUnit) {
  const Graph g = lb::graph::make_path(30);
  const Vector f = fiedler_vector(g);
  double dot_ones = 0.0, norm = 0.0;
  for (double v : f) {
    dot_ones += v;
    norm += v * v;
  }
  EXPECT_NEAR(dot_ones, 0.0, 1e-8);
  EXPECT_NEAR(norm, 1.0, 1e-8);
}

TEST(FiedlerTest, SplitsPathInHalf) {
  // The path's Fiedler vector is monotone: cos(π(i+1/2)/n) up to sign.
  const Graph g = lb::graph::make_path(40);
  Vector f = fiedler_vector(g);
  if (f.front() > f.back()) {
    for (double& v : f) v = -v;
  }
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_LE(f[i - 1], f[i] + 1e-9);
  }
}

TEST(SpectrumTest, CompleteGraphSpectrum) {
  // K_n: eigenvalue 0 once and n with multiplicity n-1.
  const Graph g = lb::graph::make_complete(7);
  const Vector spec = lb::linalg::laplacian_spectrum(g);
  EXPECT_NEAR(spec[0], 0.0, 1e-9);
  for (std::size_t i = 1; i < spec.size(); ++i) EXPECT_NEAR(spec[i], 7.0, 1e-9);
}

TEST(SpectrumTest, HypercubeMultiplicities) {
  // Q_d has eigenvalue 2k with multiplicity C(d, k).
  const Graph g = lb::graph::make_hypercube(4);
  const Vector spec = lb::linalg::laplacian_spectrum(g);
  std::vector<int> counts(5, 0);
  for (double v : spec) {
    const int k = static_cast<int>(std::lround(v / 2.0));
    ASSERT_NEAR(v, 2.0 * k, 1e-8);
    ++counts[k];
  }
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 4);
  EXPECT_EQ(counts[2], 6);
  EXPECT_EQ(counts[3], 4);
  EXPECT_EQ(counts[4], 1);
}

TEST(CheegerTest, BoundsBracketExactExpansion) {
  // h(G) (conductance-style, per-vertex denominator) obeys
  // λ2/2 <= h <= sqrt(2 δ λ2).
  for (std::size_t n : {6u, 8u, 10u}) {
    const Graph g = lb::graph::make_cycle(n);
    const auto [lo, hi] = lb::linalg::cheeger_bounds(g);
    const double exact = lb::graph::edge_expansion_exact(g);
    EXPECT_LE(lo, exact + 1e-9) << "cycle " << n;
    EXPECT_GE(hi, exact - 1e-9) << "cycle " << n;
  }
}

TEST(ClosedFormTest, UnknownFamilyReturnsNullopt) {
  const Graph g = lb::graph::make_petersen();
  EXPECT_FALSE(lb::linalg::lambda2_closed_form(g).has_value());
}

TEST(Lambda2Test, ChordalRingBeatsPlainCycle) {
  // Adding chords can only raise λ2 (edge addition is Laplacian-monotone).
  const double cycle = lb::linalg::lambda2(lb::graph::make_cycle(64));
  const double chordal = lb::linalg::lambda2(lb::graph::make_chordal_ring(64, {8}));
  EXPECT_GT(chordal, cycle);
}

TEST(Lambda2Test, CccPositiveAndBelowHypercube) {
  // CCC trades the hypercube's λ2 = 2 for constant degree; its gap is
  // strictly positive but smaller.
  const auto ccc = lb::graph::make_cube_connected_cycles(4);
  const double l2 = lb::linalg::lambda2(ccc);
  EXPECT_GT(l2, 0.0);
  EXPECT_LT(l2, 2.0);
}

TEST(Lambda2Test, EdgeAdditionIsMonotone) {
  // λ2(G + e) >= λ2(G): interlacing for Laplacians under edge addition.
  lb::util::Rng rng(5);
  const Graph sparse = lb::graph::make_random_regular(32, 4, rng);
  lb::graph::GraphBuilder b(32, "augmented");
  for (const auto& e : sparse.edges()) b.add_edge(e.u, e.v);
  // Add a few random chords not already present.
  std::size_t added = 0;
  while (added < 8) {
    const auto u = static_cast<lb::graph::NodeId>(rng.next_below(32));
    const auto v = static_cast<lb::graph::NodeId>(rng.next_below(32));
    if (u == v || sparse.has_edge(u, v)) continue;
    b.add_edge(u, v);
    ++added;
  }
  const Graph dense = b.build();
  EXPECT_GE(lb::linalg::lambda2(dense), lb::linalg::lambda2(sparse) - 1e-9);
}

}  // namespace
