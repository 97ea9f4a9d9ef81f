// Tests for matchings (lb/graph/matching.hpp), including the
// Ghosh–Muthukrishnan edge-inclusion probability that their dimension-
// exchange analysis (and the paper's comparison) relies on, and the
// differential suite that holds every frame draw to the seed's Graph
// draw on the frame's materialized view (tests/seed_oracle.hpp).
#include "lb/graph/matching.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "lb/graph/edge_mask.hpp"
#include "lb/graph/generators.hpp"
#include "seed_oracle.hpp"

namespace {

using lb::graph::Edge;
using lb::graph::Graph;
using lb::graph::Matching;

TEST(GmMatchingTest, AlwaysValid) {
  lb::util::Rng rng(1);
  const Graph g = lb::graph::make_torus2d(5, 5);
  for (int round = 0; round < 200; ++round) {
    const Matching m = lb::graph::gm_random_matching(g, rng);
    EXPECT_TRUE(lb::graph::is_valid_matching(g, m));
  }
}

TEST(GmMatchingTest, EdgeInclusionProbabilityAtLeastOneOver8Delta) {
  // [12] proves Pr[e in M] >= 1/(8δ).  Monte-Carlo every edge of a small
  // torus; with 20000 rounds the estimate is accurate to ~±0.005.
  lb::util::Rng rng(2);
  const Graph g = lb::graph::make_torus2d(4, 4);
  const double bound = 1.0 / (8.0 * static_cast<double>(g.max_degree()));
  std::map<Edge, int> hits;
  constexpr int kRounds = 20000;
  for (int round = 0; round < kRounds; ++round) {
    for (const Edge& e : lb::graph::gm_random_matching(g, rng)) ++hits[e];
  }
  for (const Edge& e : g.edges()) {
    const double p = static_cast<double>(hits[e]) / kRounds;
    EXPECT_GE(p, bound) << "edge (" << e.u << "," << e.v << ") p=" << p;
  }
}

TEST(GmMatchingTest, EmptyOnEdgelessGraph) {
  lb::util::Rng rng(3);
  lb::graph::GraphBuilder b(4);
  const Graph g = b.build();
  EXPECT_TRUE(lb::graph::gm_random_matching(g, rng).empty());
}

TEST(MaximalMatchingTest, IsMaximal) {
  lb::util::Rng rng(5);
  const Graph g = lb::graph::make_cycle(12);
  for (int round = 0; round < 100; ++round) {
    const Matching m = lb::graph::random_maximal_matching(g, rng);
    ASSERT_TRUE(lb::graph::is_valid_matching(g, m));
    // Maximality: no remaining edge has both endpoints free.
    std::vector<bool> used(g.num_nodes(), false);
    for (const Edge& e : m) used[e.u] = used[e.v] = true;
    for (const Edge& e : g.edges()) {
      EXPECT_TRUE(used[e.u] || used[e.v])
          << "edge (" << e.u << "," << e.v << ") extends the matching";
    }
  }
}

TEST(MaximalMatchingTest, CycleMatchingSizeRange) {
  lb::util::Rng rng(7);
  const Graph g = lb::graph::make_cycle(10);
  for (int round = 0; round < 50; ++round) {
    const Matching m = lb::graph::random_maximal_matching(g, rng);
    // A maximal matching of C_10 has between ceil(10/3)=4 and 5 edges.
    EXPECT_GE(m.size(), 4u);
    EXPECT_LE(m.size(), 5u);
  }
}

TEST(ValidityTest, RejectsSharedVertex) {
  const Graph g = lb::graph::make_path(4);
  EXPECT_FALSE(lb::graph::is_valid_matching(g, {Edge{0, 1}, Edge{1, 2}}));
}

TEST(ValidityTest, RejectsNonEdge) {
  const Graph g = lb::graph::make_path(4);
  EXPECT_FALSE(lb::graph::is_valid_matching(g, {Edge{0, 2}}));
}

TEST(ValidityTest, AcceptsEmpty) {
  const Graph g = lb::graph::make_path(4);
  EXPECT_TRUE(lb::graph::is_valid_matching(g, {}));
}

TEST(HypercubeMatchingTest, EachColourIsPerfect) {
  const std::size_t d = 4;
  const Graph g = lb::graph::make_hypercube(d);
  for (std::size_t colour = 0; colour < d; ++colour) {
    const Matching m = lb::graph::hypercube_dimension_matching(g, d, colour);
    EXPECT_TRUE(lb::graph::is_valid_matching(g, m));
    EXPECT_EQ(m.size(), g.num_nodes() / 2) << "colour " << colour;
  }
}

TEST(HypercubeMatchingTest, ColoursPartitionEdges) {
  const std::size_t d = 3;
  const Graph g = lb::graph::make_hypercube(d);
  std::map<Edge, int> seen;
  for (std::size_t colour = 0; colour < d; ++colour) {
    for (const Edge& e : lb::graph::hypercube_dimension_matching(g, d, colour)) {
      ++seen[e];
    }
  }
  EXPECT_EQ(seen.size(), g.num_edges());
  for (const auto& [e, count] : seen) EXPECT_EQ(count, 1);
}

TEST(HypercubeMatchingDeathTest, WrongNodeCountRejected) {
  const Graph g = lb::graph::make_cycle(6);
  EXPECT_DEATH((void)lb::graph::hypercube_dimension_matching(g, 3, 0), "hypercube");
}

TEST(HypercubeMatchingDeathTest, MissingDimensionEdgeRejected) {
  // cycle(8) has 2^3 nodes and colour-0 pairs (2i, 2i+1) all exist, but
  // colour 1 needs chords like (0,2) that a cycle lacks.
  const Graph g = lb::graph::make_cycle(8);
  EXPECT_DEATH((void)lb::graph::hypercube_dimension_matching(g, 3, 1), "hypercube");
}

// --- Frame draws vs the seed's draws on the materialized view -----------

using lb::graph::EdgeMask;
using lb::graph::MatchingScratch;
using lb::graph::TopologyFrame;

struct NamedGraph {
  std::string name;
  Graph g;
};

/// torus2d, hypercube, cycle, random regular, one irregular graph, a
/// graph with isolated nodes, and n = 1, 2.
std::vector<NamedGraph> differential_graphs() {
  lb::util::Rng rng(17);
  std::vector<NamedGraph> graphs;
  graphs.push_back({"torus2d(8x8)", lb::graph::make_torus2d(8, 8)});
  graphs.push_back({"hypercube(6)", lb::graph::make_hypercube(6)});
  graphs.push_back({"cycle(41)", lb::graph::make_cycle(41)});
  graphs.push_back({"regular(60,5)", lb::graph::make_random_regular(60, 5, rng)});
  graphs.push_back({"erdos_renyi(70)", lb::graph::make_erdos_renyi(70, 0.08, rng)});
  lb::graph::GraphBuilder isolated(12);
  isolated.add_edge(1, 2).add_edge(2, 5).add_edge(5, 9).add_edge(1, 9).add_edge(3, 9);
  graphs.push_back({"isolated(12)", isolated.build()});
  graphs.push_back({"single", lb::graph::GraphBuilder(1).build()});
  graphs.push_back({"pair", lb::graph::make_path(2)});
  return graphs;
}

/// Kill each edge of `mask` independently w.p. 1 − keep, then commit.
void randomize(EdgeMask& mask, double keep, lb::util::Rng& rng) {
  for (std::size_t k = 0; k < mask.num_base_edges(); ++k) {
    mask.set_alive(k, rng.next_bool(keep));
  }
  mask.commit();
}

/// The frame draw's ids name, in order, the edges the seed draw returns
/// on the frame's view, and both leave their Rng in the same state.
template <class FrameDraw, class SeedDraw>
::testing::AssertionResult draws_agree(const TopologyFrame& frame, std::uint64_t seed,
                                       MatchingScratch& scratch, FrameDraw&& frame_draw,
                                       SeedDraw&& seed_draw) {
  lb::util::Rng a(seed);
  lb::util::Rng b(seed);
  const std::span<const std::uint32_t> ids = frame_draw(frame, a, scratch);
  const Matching expected = seed_draw(frame.view(), b);
  if (ids.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << ids.size() << " edges drawn, the seed drew " << expected.size();
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= frame.num_base_edges() || !frame.alive(ids[i]) ||
        frame.base().edges()[ids[i]] != expected[i]) {
      return ::testing::AssertionFailure() << "edge " << i << " differs";
    }
  }
  if (a.next_u64() != b.next_u64()) {
    return ::testing::AssertionFailure() << "the Rng states differ after the draw";
  }
  return ::testing::AssertionSuccess();
}

const auto kFrameGm = [](const TopologyFrame& f, lb::util::Rng& rng, MatchingScratch& s) {
  return lb::graph::gm_random_matching(f, rng, s);
};
const auto kSeedGm = [](const Graph& g, lb::util::Rng& rng) {
  return seed::gm_random_matching(g, rng);
};
const auto kFrameMaximal = [](const TopologyFrame& f, lb::util::Rng& rng,
                              MatchingScratch& s) {
  return lb::graph::random_maximal_matching(f, rng, s);
};
const auto kSeedMaximal = [](const Graph& g, lb::util::Rng& rng) {
  return seed::random_maximal_matching(g, rng);
};

/// Every graph, unmasked and under random masks of several densities
/// (0: every edge dead), many draws per mask on one reused scratch.
template <class FrameDraw, class SeedDraw>
void expect_frame_draw_matches_seed(FrameDraw&& frame_draw, SeedDraw&& seed_draw) {
  lb::util::Rng masks(23);
  MatchingScratch scratch;  // shared by every graph: rebinds per base
  for (const NamedGraph& ng : differential_graphs()) {
    SCOPED_TRACE(ng.name);
    const TopologyFrame full(ng.g);
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      EXPECT_TRUE(draws_agree(full, seed, scratch, frame_draw, seed_draw)) << "unmasked";
    }
    EdgeMask mask(ng.g);
    const TopologyFrame masked(mask);
    for (const double keep : {1.0, 0.9, 0.6, 0.3, 0.0}) {
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        randomize(mask, keep, masks);
        EXPECT_TRUE(draws_agree(masked, 100 + seed, scratch, frame_draw, seed_draw))
            << "keep " << keep << ", seed " << seed;
      }
    }
  }
}

TEST(MatchingDifferentialTest, GmFrameDrawMatchesSeedOnView) {
  expect_frame_draw_matches_seed(kFrameGm, kSeedGm);
}

TEST(MatchingDifferentialTest, MaximalFrameDrawMatchesSeedOnView) {
  expect_frame_draw_matches_seed(kFrameMaximal, kSeedMaximal);
}

TEST(MatchingDifferentialTest, ConsecutiveDrawsShareOneStream) {
  // Draws chained on one Rng (the balancer's use) stay in lockstep with
  // the seed's, across changing masks and both strategies.
  const Graph g = lb::graph::make_torus2d(6, 7);
  EdgeMask mask(g);
  const TopologyFrame frame(mask);
  lb::util::Rng masks(31);
  lb::util::Rng a(5);
  lb::util::Rng b(5);
  MatchingScratch scratch;
  for (int round = 0; round < 200; ++round) {
    randomize(mask, 0.8, masks);
    const bool gm = round % 3 != 0;
    const Matching drawn = lb::graph::matching_edges(
        g, gm ? lb::graph::gm_random_matching(frame, a, scratch)
              : lb::graph::random_maximal_matching(frame, a, scratch));
    const Matching expected = gm ? seed::gm_random_matching(frame.view(), b)
                                 : seed::random_maximal_matching(frame.view(), b);
    ASSERT_EQ(drawn, expected) << "round " << round;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(MatchingDifferentialTest, HypercubeFrameDrawMatchesSeedUnmasked) {
  for (std::size_t d = 1; d <= 6; ++d) {
    const Graph g = lb::graph::make_hypercube(d);
    MatchingScratch scratch;
    for (std::size_t colour = 0; colour < d; ++colour) {
      EXPECT_EQ(lb::graph::matching_edges(
                    g, lb::graph::hypercube_dimension_matching(TopologyFrame(g), d, colour,
                                                               scratch)),
                seed::hypercube_dimension_matching(g, d, colour))
          << "d " << d << ", colour " << colour;
    }
  }
}

TEST(MatchingDifferentialTest, HypercubeMaskedDrawKeepsTheColoursAliveEdges) {
  // A masked round uses the colour's alive edges, in ascending u order,
  // and draws nothing — where the seed's draw on the view aborted.
  constexpr std::size_t kDims = 5;
  const Graph g = lb::graph::make_hypercube(kDims);
  EdgeMask mask(g);
  const TopologyFrame frame(mask);
  lb::util::Rng masks(41);
  MatchingScratch scratch;
  for (const double keep : {0.9, 0.5, 0.0}) {
    randomize(mask, keep, masks);
    for (std::size_t colour = 0; colour < kDims; ++colour) {
      Matching expected;
      for (const Edge& e : seed::hypercube_dimension_matching(g, kDims, colour)) {
        if (frame.alive(g.edge_index(e.u, e.v))) expected.push_back(e);
      }
      EXPECT_EQ(lb::graph::matching_edges(
                    g, lb::graph::hypercube_dimension_matching(frame, kDims, colour, scratch)),
                expected)
          << "keep " << keep << ", colour " << colour;
    }
  }
}

}  // namespace
