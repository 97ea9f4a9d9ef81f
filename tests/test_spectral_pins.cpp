// Bit pins for the dense spectral path: FNV-1a hashes over every bit of
// the Householder+QL eigensolver's values and vectors, of the spectral
// entry points built on it, and of OPS's Leja schedules.  The goldens
// were recorded from the solver with an out-of-line element accessor and
// the O(D³) Leja loop kept below as the oracle; a kernel rewrite that
// moves one bit fails here, where the tolerance tests would not notice.
//
// The goldens hold for plain IEEE double arithmetic with no fused
// multiply-add, which is what the presets compile (x86-64 SSE2, no
// -march).  An FMA-contracting build (a -march with FMA and without
// -ffp-contract=off) rounds differently and is expected to fail them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lb/core/ops.hpp"
#include "lb/graph/generators.hpp"
#include "lb/linalg/dense.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/tridiag.hpp"
#include "lb/util/rng.hpp"

namespace {

using lb::graph::Graph;
using lb::linalg::DenseMatrix;
using lb::linalg::Vector;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over the bit patterns of `count` doubles, folded into `h`.
std::uint64_t fnv1a(const double* values, std::size_t count, std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t fnv1a(const Vector& v) { return fnv1a(v.data(), v.size()); }

std::uint64_t fnv1a(const DenseMatrix& m) { return fnv1a(m.data(), m.rows() * m.cols()); }

std::uint64_t fnv1a(const lb::linalg::SpectralSummary& s) {
  const double fields[] = {s.lambda2, s.lambda_max, s.gamma, s.eigen_gap};
  return fnv1a(fields, 4);
}

/// A campaign base family at n, built from a fixed seed.
Graph base_graph(const std::string& family, std::size_t n) {
  lb::util::Rng rng(2006);
  return lb::graph::make_named(family, n, rng);
}

const char* const kCampaignFamilies[] = {"torus2d", "hypercube", "cycle", "regular"};

struct EigenGolden {
  std::uint64_t values;     ///< symmetric_eigen values, vectors off
  std::uint64_t vectors;    ///< symmetric_eigen vectors (columns), vectors on
  std::uint64_t spectrum;   ///< laplacian_spectrum
  std::uint64_t summary;    ///< spectral_summary's λ2, λmax, γ, gap
  std::uint64_t gamma;      ///< diffusion_gamma
};

// In kCampaignFamilies order, n = 256.
constexpr EigenGolden kCampaignGoldens[] = {
    {0xf6e9f556dee1e0d9ULL, 0x6b5f52172d42999eULL, 0xf6e9f556dee1e0d9ULL,
     0xd84d8f577e43da1bULL, 0x40853e17fb8a49f3ULL},
    {0xa06e09c38c522e21ULL, 0xe671c0d064684cc1ULL, 0xa06e09c38c522e21ULL,
     0xae8e5a4908ea7d20ULL, 0x59818e07e0c7b8aeULL},
    {0xb70723ec908554acULL, 0x393e6dcf019ea6c6ULL, 0xb70723ec908554acULL,
     0xc0303925e472bc1eULL, 0xe297433e0da2bc6dULL},
    {0x20299ab753708a7dULL, 0xfba61d826c65414fULL, 0x20299ab753708a7dULL,
     0xae26c9327c6b31d1ULL, 0x8b7f5cb8fa84e324ULL},
};

TEST(EigenBitsTest, CampaignLaplaciansMatchGoldens) {
  for (std::size_t f = 0; f < std::size(kCampaignFamilies); ++f) {
    SCOPED_TRACE(kCampaignFamilies[f]);
    const Graph g = base_graph(kCampaignFamilies[f], 256);
    const EigenGolden& golden = kCampaignGoldens[f];

    const lb::linalg::EigenDecomposition values =
        lb::linalg::symmetric_eigen(lb::linalg::laplacian_dense(g));
    lb::linalg::TridiagOptions opts;
    opts.compute_vectors = true;
    const lb::linalg::EigenDecomposition vectors =
        lb::linalg::symmetric_eigen(lb::linalg::laplacian_dense(g), opts);
    ASSERT_TRUE(values.converged);
    ASSERT_TRUE(vectors.converged);
    EXPECT_EQ(fnv1a(values.values), golden.values);
    // Accumulating vectors never feeds back into the value recurrence.
    EXPECT_EQ(fnv1a(vectors.values), golden.values);
    EXPECT_EQ(fnv1a(vectors.vectors), golden.vectors);

    EXPECT_EQ(fnv1a(lb::linalg::laplacian_spectrum(g)), golden.spectrum);
    EXPECT_EQ(fnv1a(lb::linalg::spectral_summary(g)), golden.summary);
    const double gamma = lb::linalg::diffusion_gamma(g);
    EXPECT_EQ(fnv1a(&gamma, 1), golden.gamma);
  }
}

TEST(EigenBitsTest, ReadsOnlyTheLowerTriangle) {
  // A random symmetric matrix whose strict upper triangle is then nudged
  // by up to 1e-12 (inside the 1e-9 symmetry check): the solver reads the
  // lower triangle only, so the nudge must not move a bit.
  const std::size_t n = 48;
  lb::util::Rng rng(16);
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      a(r, c) = rng.next_double(-1.0, 1.0);
      a(c, r) = a(r, c);
    }
  }
  DenseMatrix nudged = a;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) nudged(r, c) += rng.next_double(-1e-12, 1e-12);
  }
  constexpr std::uint64_t kValues = 0x189d2bbf87c0a2fcULL;
  constexpr std::uint64_t kVectors = 0x1d5be4910e6c895eULL;
  lb::linalg::TridiagOptions opts;
  opts.compute_vectors = true;
  for (const DenseMatrix* m : {&a, &nudged}) {
    SCOPED_TRACE(m == &a ? "symmetric" : "nudged");
    const lb::linalg::EigenDecomposition values = lb::linalg::symmetric_eigen(*m);
    const lb::linalg::EigenDecomposition vectors = lb::linalg::symmetric_eigen(*m, opts);
    ASSERT_TRUE(values.converged);
    ASSERT_TRUE(vectors.converged);
    EXPECT_EQ(fnv1a(values.values), kValues);
    EXPECT_EQ(fnv1a(vectors.values), kValues);
    EXPECT_EQ(fnv1a(vectors.vectors), kVectors);
  }
}

// --- OPS's Leja order ------------------------------------------------------

constexpr double kOpsTolerance = 1e-8;  // OptimalPolynomialScheme's default

/// The O(D³) Leja order OPS ran before leja_schedule: every step re-sums
/// each candidate's log-distances to the whole chosen set.  The oracle
/// the running-score version must match bit for bit.
std::vector<double> cubic_leja_schedule(const Vector& spectrum, double tol) {
  std::vector<double> distinct;
  for (double lambda : spectrum) {
    if (lambda <= tol) continue;
    if (!distinct.empty() && std::fabs(lambda - distinct.back()) <= tol) continue;
    distinct.push_back(lambda);
  }
  std::vector<double> schedule;
  std::vector<bool> used(distinct.size(), false);
  const std::size_t first = distinct.size() - 1;
  used[first] = true;
  schedule.push_back(distinct[first]);
  while (schedule.size() < distinct.size()) {
    std::size_t best = distinct.size();
    double best_score = -1.0;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      if (used[i]) continue;
      double score = 0.0;
      for (double chosen : schedule) score += std::log(std::fabs(distinct[i] - chosen));
      if (best == distinct.size() || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    used[best] = true;
    schedule.push_back(distinct[best]);
  }
  return schedule;
}

struct LejaGolden {
  const char* family;
  std::size_t n;
  std::size_t length;     ///< distinct nonzero eigenvalues
  std::uint64_t schedule;
};

constexpr LejaGolden kLejaGoldens[] = {
    {"cycle", 256, 128, 0x8415af7218f8e21aULL},
    {"regular", 256, 255, 0x7542ac9057f4becaULL},
    {"path", 40, 39, 0xb671c3dc99751b0dULL},
    {"torus2d", 256, 40, 0x9dd1c4751bb10089ULL},
};

TEST(LejaOrderTest, MatchesCubicOracleAndGoldens) {
  for (const LejaGolden& golden : kLejaGoldens) {
    SCOPED_TRACE(std::string(golden.family) + "(" + std::to_string(golden.n) + ")");
    const Vector spectrum = lb::linalg::laplacian_spectrum(base_graph(golden.family, golden.n));
    const std::vector<double> schedule = lb::core::leja_schedule(spectrum, kOpsTolerance);
    const std::vector<double> oracle = cubic_leja_schedule(spectrum, kOpsTolerance);
    ASSERT_EQ(schedule.size(), oracle.size());
    EXPECT_EQ(fnv1a(schedule), fnv1a(oracle));
    EXPECT_EQ(schedule.size(), golden.length);
    EXPECT_EQ(fnv1a(schedule), golden.schedule);
  }
}

}  // namespace
