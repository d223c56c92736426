#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "graph/graph_builder.h"
#include "reach/distance_label_index.h"
#include "reach/naive_reachability.h"
#include "reach/pruned_online_search.h"
#include "reach/reach_cache.h"
#include "reach/reach_maintainer.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mel::reach {
namespace {

using graph::DirectedGraph;
using graph::GraphBuilder;

DirectedGraph Chain(uint32_t n) {
  GraphBuilder b(n);
  for (uint32_t i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return std::move(b).Build();
}

DirectedGraph Diamond() {
  // 0 -> {1,2} -> 3 -> 4; plus 0 -> 5 (dead end)
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 5);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  return std::move(b).Build();
}

DirectedGraph RandomGraph(uint32_t n, double avg_degree, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  uint64_t edges = static_cast<uint64_t>(n * avg_degree);
  for (uint64_t i = 0; i < edges; ++i) {
    b.AddEdge(static_cast<graph::NodeId>(rng.Uniform(n)),
              static_cast<graph::NodeId>(rng.Uniform(n)));
  }
  return std::move(b).Build();
}

// ------------------------------------------------------------- semantics

TEST(NaiveReachabilityTest, DirectFolloweeScoresOne) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  EXPECT_DOUBLE_EQ(naive.Score(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(naive.Score(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(naive.Score(3, 4), 1.0);
}

TEST(NaiveReachabilityTest, SelfScoresOne) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  EXPECT_DOUBLE_EQ(naive.Score(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(naive.Score(5, 5), 1.0);
}

TEST(NaiveReachabilityTest, UnreachableScoresZero) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  EXPECT_DOUBLE_EQ(naive.Score(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(naive.Score(5, 3), 0.0);
}

TEST(NaiveReachabilityTest, Eq4OnDiamond) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  // 0 -> 3: distance 2, followees on shortest paths = {1, 2} of
  // F_0 = {1, 2, 5}. R = (1/2) * (2/3).
  auto q = naive.Query(0, 3);
  EXPECT_EQ(q.distance, 2u);
  ASSERT_EQ(q.followees.size(), 2u);
  EXPECT_EQ(q.followees[0], 1u);
  EXPECT_EQ(q.followees[1], 2u);
  EXPECT_DOUBLE_EQ(naive.Score(0, 3), 0.5 * 2.0 / 3.0);
  // 0 -> 4: distance 3, same two followees participate.
  EXPECT_DOUBLE_EQ(naive.Score(0, 4), (1.0 / 3.0) * (2.0 / 3.0));
}

TEST(NaiveReachabilityTest, HopBoundLimitsReach) {
  DirectedGraph g = Chain(10);
  NaiveReachability naive(&g, 3);
  EXPECT_GT(naive.Score(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(naive.Score(0, 4), 0.0);  // distance 4 > H = 3
}

// --------------------------------------------------- transitive closure

TEST(TransitiveClosureTest, IncrementalMatchesDefinitionOnDiamond) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_DOUBLE_EQ(tc.Score(0, 1), 1.0);
  EXPECT_FLOAT_EQ(tc.Score(0, 3), 0.5f * 2.0f / 3.0f);
  EXPECT_FLOAT_EQ(tc.Score(0, 4), (1.0f / 3.0f) * (2.0f / 3.0f));
  EXPECT_DOUBLE_EQ(tc.Score(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(tc.Score(2, 2), 1.0);
  EXPECT_EQ(tc.Distance(0, 3), 2u);
  EXPECT_EQ(tc.Distance(0, 4), 3u);
  EXPECT_EQ(tc.Distance(4, 0), kUnreachableDistance);
}

TEST(TransitiveClosureTest, NaiveConstructionAgreesWithIncremental) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    DirectedGraph g = RandomGraph(40, 2.5, seed);
    auto naive_tc = TransitiveClosureIndex::Build(
        &g, 4, TransitiveClosureIndex::Construction::kNaive);
    auto inc_tc = TransitiveClosureIndex::Build(
        &g, 4, TransitiveClosureIndex::Construction::kIncremental);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(naive_tc.Distance(u, v), inc_tc.Distance(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
        EXPECT_FLOAT_EQ(naive_tc.Score(u, v), inc_tc.Score(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
      }
    }
  }
}

TEST(TransitiveClosureTest, QueryReconstructsFollowees) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  auto q = tc.Query(0, 4);
  EXPECT_EQ(q.distance, 3u);
  ASSERT_EQ(q.followees.size(), 2u);
  EXPECT_EQ(q.followees[0], 1u);
  EXPECT_EQ(q.followees[1], 2u);
}

TEST(TransitiveClosureTest, IndexSizeAccounting) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_EQ(tc.IndexSizeBytes(), 6ull * 6 * 5);
}

// ----------------------------------------------------------- 2-hop cover

TEST(TwoHopIndexTest, MatchesDefinitionOnDiamond) {
  DirectedGraph g = Diamond();
  auto index = TwoHopIndex::Build(&g, 5);
  EXPECT_DOUBLE_EQ(index.Score(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(index.Score(0, 3), 0.5 * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(index.Score(0, 4), (1.0 / 3.0) * (2.0 / 3.0));
  EXPECT_DOUBLE_EQ(index.Score(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(index.Score(1, 1), 1.0);
}

TEST(TwoHopIndexTest, QueryReturnsSortedFollowees) {
  DirectedGraph g = Diamond();
  auto index = TwoHopIndex::Build(&g, 5);
  auto q = index.Query(0, 4);
  EXPECT_EQ(q.distance, 3u);
  ASSERT_EQ(q.followees.size(), 2u);
  EXPECT_EQ(q.followees[0], 1u);
  EXPECT_EQ(q.followees[1], 2u);
}

TEST(TwoHopIndexTest, HopBoundRespected) {
  DirectedGraph g = Chain(12);
  auto index = TwoHopIndex::Build(&g, 4);
  EXPECT_GT(index.Score(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(index.Score(0, 5), 0.0);
  auto q = index.Query(0, 5);
  EXPECT_FALSE(q.reachable());
}

TEST(TwoHopIndexTest, LabelEntriesAndSizeNonZero) {
  DirectedGraph g = Diamond();
  auto index = TwoHopIndex::Build(&g, 5);
  EXPECT_GT(index.TotalLabelEntries(), 0u);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
}

// -------------------------------------- cross-backend property checking

// gtest names each case after the parameter's raw bytes (there is no
// PrintTo), so the padding is spelled out and zeroed. Left implicit, it
// held stack garbage that moved with the build path and code layout,
// and the case names moved with it.
struct BackendConsistencyParam {
  BackendConsistencyParam(uint32_t n, double degree, uint32_t hops,
                          uint64_t s)
      : nodes(n), avg_degree(degree), max_hops(hops), seed(s) {}

  uint32_t nodes;
  uint32_t pad0 = 0;
  double avg_degree;
  uint32_t max_hops;
  uint32_t pad1 = 0;
  uint64_t seed;
};
static_assert(sizeof(BackendConsistencyParam) == 32,
              "no implicit padding left");

class BackendConsistencyTest
    : public ::testing::TestWithParam<BackendConsistencyParam> {};

TEST_P(BackendConsistencyTest, AllBackendsAgree) {
  const auto& p = GetParam();
  DirectedGraph g = RandomGraph(p.nodes, p.avg_degree, p.seed);
  NaiveReachability naive(&g, p.max_hops);
  auto tc = TransitiveClosureIndex::Build(
      &g, p.max_hops, TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = TwoHopIndex::Build(&g, p.max_hops);

  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto nq = naive.Query(u, v);
      auto tq = tc.Query(u, v);
      auto hq = two_hop.Query(u, v);
      ASSERT_EQ(nq.distance, tq.distance)
          << "TC distance mismatch " << u << "->" << v << " seed " << p.seed;
      ASSERT_EQ(nq.distance, hq.distance)
          << "2hop distance mismatch " << u << "->" << v << " seed "
          << p.seed;
      ASSERT_EQ(nq.followees, tq.followees)
          << "TC followees mismatch " << u << "->" << v << " seed "
          << p.seed;
      ASSERT_EQ(nq.followees, hq.followees)
          << "2hop followees mismatch " << u << "->" << v << " seed "
          << p.seed;
      ASSERT_NEAR(naive.Score(u, v), tc.Score(u, v), 1e-6);
      ASSERT_NEAR(naive.Score(u, v), two_hop.Score(u, v), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BackendConsistencyTest,
    ::testing::Values(BackendConsistencyParam{20, 1.5, 4, 11},
                      BackendConsistencyParam{30, 2.0, 5, 12},
                      BackendConsistencyParam{40, 3.0, 3, 13},
                      BackendConsistencyParam{50, 1.0, 6, 14},
                      BackendConsistencyParam{25, 4.0, 4, 15},
                      BackendConsistencyParam{60, 2.5, 5, 16},
                      BackendConsistencyParam{35, 0.5, 8, 17},
                      BackendConsistencyParam{45, 5.0, 3, 18}));

// Dense cyclic graphs stress the equality branch of Algorithm 2.
TEST(TwoHopIndexTest, CyclicGraphConsistency) {
  GraphBuilder b(8);
  for (uint32_t i = 0; i < 8; ++i) {
    b.AddEdge(i, (i + 1) % 8);
    b.AddEdge(i, (i + 3) % 8);
  }
  DirectedGraph g = std::move(b).Build();
  NaiveReachability naive(&g, 6);
  auto index = TwoHopIndex::Build(&g, 6);
  for (graph::NodeId u = 0; u < 8; ++u) {
    for (graph::NodeId v = 0; v < 8; ++v) {
      auto nq = naive.Query(u, v);
      auto hq = index.Query(u, v);
      EXPECT_EQ(nq.distance, hq.distance) << u << "->" << v;
      EXPECT_EQ(nq.followees, hq.followees) << u << "->" << v;
    }
  }
}

// ------------------------------------------- distance-only PLL ablation

TEST(DistanceLabelIndexTest, MatchesNaiveOnRandomGraphs) {
  for (uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    DirectedGraph g = RandomGraph(40, 2.5, seed);
    NaiveReachability naive(&g, 5);
    auto index = DistanceLabelIndex::Build(&g, 5);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto nq = naive.Query(u, v);
        auto dq = index.Query(u, v);
        ASSERT_EQ(nq.distance, dq.distance)
            << u << "->" << v << " seed " << seed;
        ASSERT_EQ(nq.followees, dq.followees)
            << u << "->" << v << " seed " << seed;
      }
    }
  }
}

TEST(DistanceLabelIndexTest, SmallerThanFolloweeCarryingIndex) {
  DirectedGraph g = RandomGraph(200, 4.0, 31);
  auto full = TwoHopIndex::Build(&g, 5);
  auto dist_only = DistanceLabelIndex::Build(&g, 5);
  EXPECT_LT(dist_only.IndexSizeBytes(), full.IndexSizeBytes());
  // Both agree on scores.
  Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(200));
    auto v = static_cast<graph::NodeId>(rng.Uniform(200));
    ASSERT_DOUBLE_EQ(full.Score(u, v), dist_only.Score(u, v));
  }
}

// ------------------------------------------- pruned online search

TEST(PrunedOnlineSearchTest, MatchesNaiveOnRandomGraphs) {
  for (uint64_t seed : {51ULL, 52ULL, 53ULL}) {
    DirectedGraph g = RandomGraph(40, 2.0, seed);
    NaiveReachability naive(&g, 5);
    auto index = PrunedOnlineSearch::Build(&g, 5, 3, seed);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto nq = naive.Query(u, v);
        auto pq = index.Query(u, v);
        ASSERT_EQ(nq.distance, pq.distance)
            << u << "->" << v << " seed " << seed;
        ASSERT_EQ(nq.followees, pq.followees)
            << u << "->" << v << " seed " << seed;
      }
    }
  }
}

TEST(PrunedOnlineSearchTest, IntervalsNeverPruneReachablePairs) {
  // Soundness: DefinitelyUnreachable must never fire for a pair that IS
  // reachable (with no hop bound).
  for (uint64_t seed : {61ULL, 62ULL}) {
    DirectedGraph g = RandomGraph(60, 2.5, seed);
    auto index = PrunedOnlineSearch::Build(&g, 60, 2, seed);
    NaiveReachability naive(&g, 60);  // effectively unbounded
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (u == v) continue;
        if (naive.Query(u, v).reachable()) {
          ASSERT_FALSE(index.DefinitelyUnreachable(u, v))
              << u << "->" << v << " seed " << seed;
        }
      }
    }
  }
}

TEST(PrunedOnlineSearchTest, PrunesSomethingOnChains) {
  // On a chain, later nodes provably cannot reach earlier ones.
  DirectedGraph g = Chain(20);
  auto index = PrunedOnlineSearch::Build(&g, 20, 2, 7);
  uint32_t pruned = 0;
  for (graph::NodeId u = 0; u < 20; ++u) {
    for (graph::NodeId v = 0; v < u; ++v) {
      if (index.DefinitelyUnreachable(u, v)) ++pruned;
    }
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_EQ(index.num_components(), 20u);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
}

TEST(PrunedOnlineSearchTest, CyclesCollapseToOneComponent) {
  GraphBuilder b(6);
  for (uint32_t i = 0; i < 6; ++i) b.AddEdge(i, (i + 1) % 6);
  DirectedGraph g = std::move(b).Build();
  auto index = PrunedOnlineSearch::Build(&g, 6, 2, 9);
  EXPECT_EQ(index.num_components(), 1u);
  // Everything reaches everything; no pruning may fire.
  for (graph::NodeId u = 0; u < 6; ++u) {
    for (graph::NodeId v = 0; v < 6; ++v) {
      EXPECT_FALSE(index.DefinitelyUnreachable(u, v));
    }
  }
}

// ---------------------------------------------- dynamic edge insertion

TEST(TransitiveClosureInsertTest, MatchesRebuildAfterInsertions) {
  Rng rng(41);
  for (int trial = 0; trial < 5; ++trial) {
    const uint32_t n = 30;
    // Base edges.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    for (int i = 0; i < 60; ++i) {
      auto a = static_cast<graph::NodeId>(rng.Uniform(n));
      auto b = static_cast<graph::NodeId>(rng.Uniform(n));
      if (a != b) edges.emplace_back(a, b);
    }
    GraphBuilder base_builder(n);
    for (auto [a, b] : edges) base_builder.AddEdge(a, b);
    DirectedGraph base = std::move(base_builder).Build();
    auto dynamic_tc = TransitiveClosureIndex::Build(
        &base, 4, TransitiveClosureIndex::Construction::kIncremental);

    // Insert a handful of new edges one by one.
    for (int k = 0; k < 8; ++k) {
      auto a = static_cast<graph::NodeId>(rng.Uniform(n));
      auto b = static_cast<graph::NodeId>(rng.Uniform(n));
      if (a == b) continue;
      bool inserted = dynamic_tc.InsertEdge(a, b);
      if (inserted) edges.emplace_back(a, b);

      GraphBuilder rebuilt_builder(n);
      for (auto [x, y] : edges) rebuilt_builder.AddEdge(x, y);
      DirectedGraph rebuilt_graph = std::move(rebuilt_builder).Build();
      auto rebuilt = TransitiveClosureIndex::Build(
          &rebuilt_graph, 4,
          TransitiveClosureIndex::Construction::kIncremental);

      for (graph::NodeId u = 0; u < n; ++u) {
        for (graph::NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(dynamic_tc.Distance(u, v), rebuilt.Distance(u, v))
              << "trial " << trial << " after insert " << a << "->" << b
              << " pair " << u << "->" << v;
          ASSERT_NEAR(dynamic_tc.Score(u, v), rebuilt.Score(u, v), 1e-6)
              << "trial " << trial << " after insert " << a << "->" << b
              << " pair " << u << "->" << v;
        }
      }
    }
  }
}

TEST(TransitiveClosureInsertTest, DuplicateAndSelfEdgesRejected) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_FALSE(tc.InsertEdge(0, 0));
  EXPECT_FALSE(tc.InsertEdge(0, 1));  // already in the base graph
  EXPECT_TRUE(tc.InsertEdge(5, 4));
  EXPECT_FALSE(tc.InsertEdge(5, 4));  // already in the overlay
}

TEST(TransitiveClosureInsertTest, NewEdgeCreatesReachability) {
  // Chain 0 -> 1 -> 2; inserting 2 -> 3 connects node 3.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  DirectedGraph g = std::move(b).Build();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_DOUBLE_EQ(tc.Score(0, 3), 0.0);
  ASSERT_TRUE(tc.InsertEdge(2, 3));
  EXPECT_EQ(tc.Distance(2, 3), 1u);
  EXPECT_DOUBLE_EQ(tc.Score(2, 3), 1.0);
  EXPECT_EQ(tc.Distance(0, 3), 3u);
  // 0's single followee 1 lies on the shortest path: R = 1/3 * 1/1.
  EXPECT_NEAR(tc.Score(0, 3), 1.0 / 3.0, 1e-6);
  // Node 2 had no followees in the base graph; the overlay adds one.
  EXPECT_EQ(tc.CurrentOutDegree(2), 1u);
}

TEST(TransitiveClosureInsertTest, InsertShortensExistingDistance) {
  // 0 -> 1 -> 2 -> 3 -> 4; inserting 0 -> 3 shortens 0~>4 from 4 to 2.
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  DirectedGraph g = std::move(b).Build();
  auto tc = TransitiveClosureIndex::Build(
      &g, 6, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_EQ(tc.Distance(0, 4), 4u);
  ASSERT_TRUE(tc.InsertEdge(0, 3));
  EXPECT_EQ(tc.Distance(0, 4), 2u);
  // F_04 = {3} of followees {1, 3}: R = 1/2 * 1/2.
  EXPECT_NEAR(tc.Score(0, 4), 0.25, 1e-6);
  auto q = tc.Query(0, 4);
  ASSERT_EQ(q.followees.size(), 1u);
  EXPECT_EQ(q.followees[0], 3u);
}

// ------------------------------------- graph-family property sweeps

enum class GraphFamily {
  kChain,
  kCycle,
  kStarOut,    // hub follows everyone
  kStarIn,     // everyone follows the hub
  kComplete,
  kBipartite,  // layer A -> layer B
  kBinaryTree,
};

const char* FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kChain: return "chain";
    case GraphFamily::kCycle: return "cycle";
    case GraphFamily::kStarOut: return "star-out";
    case GraphFamily::kStarIn: return "star-in";
    case GraphFamily::kComplete: return "complete";
    case GraphFamily::kBipartite: return "bipartite";
    case GraphFamily::kBinaryTree: return "binary-tree";
  }
  return "?";
}

DirectedGraph MakeFamily(GraphFamily family, uint32_t n) {
  GraphBuilder b(n);
  switch (family) {
    case GraphFamily::kChain:
      for (uint32_t i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
      break;
    case GraphFamily::kCycle:
      for (uint32_t i = 0; i < n; ++i) b.AddEdge(i, (i + 1) % n);
      break;
    case GraphFamily::kStarOut:
      for (uint32_t i = 1; i < n; ++i) b.AddEdge(0, i);
      break;
    case GraphFamily::kStarIn:
      for (uint32_t i = 1; i < n; ++i) b.AddEdge(i, 0);
      break;
    case GraphFamily::kComplete:
      for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
          if (i != j) b.AddEdge(i, j);
        }
      }
      break;
    case GraphFamily::kBipartite:
      for (uint32_t i = 0; i < n / 2; ++i) {
        for (uint32_t j = n / 2; j < n; ++j) b.AddEdge(i, j);
      }
      break;
    case GraphFamily::kBinaryTree:
      for (uint32_t i = 1; i < n; ++i) b.AddEdge((i - 1) / 2, i);
      break;
  }
  return std::move(b).Build();
}

class GraphFamilyTest : public ::testing::TestWithParam<GraphFamily> {};

TEST_P(GraphFamilyTest, AllBackendsAgreeEverywhere) {
  const GraphFamily family = GetParam();
  DirectedGraph g = MakeFamily(family, 18);
  NaiveReachability naive(&g, 6);
  auto tc = TransitiveClosureIndex::Build(
      &g, 6, TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = TwoHopIndex::Build(&g, 6);
  auto dist_only = DistanceLabelIndex::Build(&g, 6);
  auto pruned = PrunedOnlineSearch::Build(&g, 6, 2, 3);

  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto expected = naive.Query(u, v);
      for (const reach::WeightedReachability* backend :
           {static_cast<const reach::WeightedReachability*>(&tc),
            static_cast<const reach::WeightedReachability*>(&two_hop),
            static_cast<const reach::WeightedReachability*>(&dist_only),
            static_cast<const reach::WeightedReachability*>(&pruned)}) {
        auto actual = backend->Query(u, v);
        ASSERT_EQ(expected.distance, actual.distance)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
        ASSERT_EQ(expected.followees, actual.followees)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GraphFamilyTest,
    ::testing::Values(GraphFamily::kChain, GraphFamily::kCycle,
                      GraphFamily::kStarOut, GraphFamily::kStarIn,
                      GraphFamily::kComplete, GraphFamily::kBipartite,
                      GraphFamily::kBinaryTree),
    [](const ::testing::TestParamInfo<GraphFamily>& info) {
      std::string name = FamilyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Count-only fast path: CountQuery must report exactly (distance,
// |F_uv|) of the materializing Query, and ScoreOnly must be bitwise
// equal to Score, on every backend (both funnel through
// WeightedScoreFromCount, so any divergence is a counting bug).
TEST_P(GraphFamilyTest, CountQueryAndScoreOnlyMatchQueryEverywhere) {
  const GraphFamily family = GetParam();
  DirectedGraph g = MakeFamily(family, 18);
  NaiveReachability naive(&g, 6);
  auto tc = TransitiveClosureIndex::Build(
      &g, 6, TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = TwoHopIndex::Build(&g, 6);
  auto dist_only = DistanceLabelIndex::Build(&g, 6);
  auto pruned = PrunedOnlineSearch::Build(&g, 6, 2, 3);
  CachedReachability cached(&naive, &g);

  for (const reach::WeightedReachability* backend :
       {static_cast<const reach::WeightedReachability*>(&naive),
        static_cast<const reach::WeightedReachability*>(&tc),
        static_cast<const reach::WeightedReachability*>(&two_hop),
        static_cast<const reach::WeightedReachability*>(&dist_only),
        static_cast<const reach::WeightedReachability*>(&pruned),
        static_cast<const reach::WeightedReachability*>(&cached)}) {
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto full = backend->Query(u, v);
        auto count = backend->CountQuery(u, v);
        ASSERT_EQ(full.distance, count.distance)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
        ASSERT_EQ(full.followees.size(), count.followee_count)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
        ASSERT_EQ(backend->Score(u, v), backend->ScoreOnly(u, v))
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
      }
    }
  }
}

TEST(TwoHopIndexTest, CountQueryMatchesQueryOnRandomGraphs) {
  for (uint64_t seed : {71ULL, 72ULL, 73ULL}) {
    DirectedGraph g = RandomGraph(50, 3.0, seed);
    auto index = TwoHopIndex::Build(&g, 5);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto full = index.Query(u, v);
        auto count = index.CountQuery(u, v);
        ASSERT_EQ(full.distance, count.distance)
            << "seed " << seed << " " << u << "->" << v;
        ASSERT_EQ(full.followees.size(), count.followee_count)
            << "seed " << seed << " " << u << "->" << v;
        ASSERT_EQ(index.Score(u, v), index.ScoreOnly(u, v))
            << "seed " << seed << " " << u << "->" << v;
      }
    }
  }
}

// Regression for the k-way merge that replaced concat+sort+unique: the
// union over several overlapping min-distance hub spans must come out
// sorted and duplicate-free. Dense graphs give every pair many meeting
// hubs whose followee spans overlap heavily.
TEST(TwoHopIndexTest, KWayMergeYieldsSortedDupFreeFollowees) {
  for (uint64_t seed : {81ULL, 82ULL}) {
    DirectedGraph g = RandomGraph(30, 6.0, seed);
    auto index = TwoHopIndex::Build(&g, 4);
    NaiveReachability naive(&g, 4);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto q = index.Query(u, v);
        for (size_t i = 1; i < q.followees.size(); ++i) {
          ASSERT_LT(q.followees[i - 1], q.followees[i])
              << "seed " << seed << " " << u << "->" << v
              << ": followees not strictly increasing";
        }
        ASSERT_EQ(naive.Query(u, v).followees, q.followees)
            << "seed " << seed << " " << u << "->" << v;
      }
    }
  }
}

// Arena layout invariants: offsets bracket the arenas, accessors agree
// with the aggregate counters, and the legacy-layout model is strictly
// larger (the whole point of flattening).
TEST(TwoHopIndexTest, ArenaAccountingAndSpans) {
  DirectedGraph g = RandomGraph(60, 3.0, 91);
  auto index = TwoHopIndex::Build(&g, 5);
  uint64_t in_total = 0, out_total = 0, followee_total = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    in_total += index.in_labels(v).size();
    auto outs = index.out_labels(v);
    out_total += outs.size();
    for (size_t i = 0; i < outs.size(); ++i) {
      followee_total +=
          index.followees(index.out_offset(v) + i).size();
    }
  }
  EXPECT_EQ(in_total, index.NumInEntries());
  EXPECT_EQ(out_total, index.NumOutEntries());
  EXPECT_EQ(followee_total, index.NumFolloweeIds());
  EXPECT_EQ(index.TotalLabelEntries(), in_total + out_total);
  EXPECT_GT(index.LegacyIndexSizeBytes(), index.IndexSizeBytes());
}

// Empty graph: every per-node label list is empty, offsets are all zero,
// and queries stay well-defined.
TEST(TwoHopIndexTest, EmptyLabelGraph) {
  GraphBuilder b(5);
  DirectedGraph g = std::move(b).Build();
  auto index = TwoHopIndex::Build(&g, 5);
  EXPECT_EQ(index.NumFolloweeIds(), 0u);
  for (graph::NodeId u = 0; u < 5; ++u) {
    for (graph::NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(index.Score(u, v), u == v ? 1.0 : 0.0);
      EXPECT_EQ(index.ScoreOnly(u, v), u == v ? 1.0 : 0.0);
      auto count = index.CountQuery(u, v);
      if (u != v) {
        EXPECT_FALSE(count.reachable());
      }
    }
  }
}

// Scores must always be inside [0, 1].
TEST(WeightedScoreTest, RangeProperty) {
  DirectedGraph g = RandomGraph(80, 3.0, 99);
  NaiveReachability naive(&g, 5);
  for (graph::NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (graph::NodeId v = 0; v < g.num_nodes(); v += 2) {
      double s = naive.Score(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

// ------------------------------------------------- parallel construction

std::string SaveToTempBytes(const std::string& name,
                            const std::function<Status(const std::string&)>&
                                save) {
  std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  EXPECT_TRUE(save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>{});
  std::remove(path.c_str());
  return bytes;
}

// The acceptance bar for the parallel builds: not "equivalent", but
// bit-identical to the 1-thread build, proven via Save bytes on top of
// the per-pair Score/Distance comparison.
TEST(ParallelBuildTest, TcIncrementalMatchesSerialOnRandomGraphs) {
  util::ThreadPool serial(1);
  util::ThreadPool parallel(4);
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    DirectedGraph g = RandomGraph(60, 3.0, seed);
    auto a = TransitiveClosureIndex::Build(
        &g, 5, TransitiveClosureIndex::Construction::kIncremental, &serial);
    auto b = TransitiveClosureIndex::Build(
        &g, 5, TransitiveClosureIndex::Construction::kIncremental,
        &parallel);
    EXPECT_EQ(a.IndexSizeBytes(), b.IndexSizeBytes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(a.Distance(u, v), b.Distance(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
        ASSERT_EQ(a.Score(u, v), b.Score(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
      }
    }
    auto save_a = SaveToTempBytes("tc_serial.idx", [&](const auto& p) {
      return a.Save(p);
    });
    auto save_b = SaveToTempBytes("tc_parallel.idx", [&](const auto& p) {
      return b.Save(p);
    });
    EXPECT_FALSE(save_a.empty());
    EXPECT_EQ(save_a, save_b);
  }
}

TEST(ParallelBuildTest, TcNaiveMatchesSerial) {
  util::ThreadPool serial(1);
  util::ThreadPool parallel(4);
  DirectedGraph g = RandomGraph(40, 2.5, 11);
  auto a = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kNaive, &serial);
  auto b = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kNaive, &parallel);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(a.Distance(u, v), b.Distance(u, v));
      ASSERT_EQ(a.Score(u, v), b.Score(u, v));
    }
  }
}

TEST(ParallelBuildTest, TwoHopMatchesSerialOnRandomGraphs) {
  util::ThreadPool serial(1);
  util::ThreadPool parallel(4);
  for (uint64_t seed : {4ull, 5ull, 6ull}) {
    DirectedGraph g = RandomGraph(60, 3.0, seed);
    auto a = TwoHopIndex::Build(&g, 5, &serial);
    auto b = TwoHopIndex::Build(&g, 5, &parallel);
    EXPECT_EQ(a.TotalLabelEntries(), b.TotalLabelEntries());
    EXPECT_EQ(a.IndexSizeBytes(), b.IndexSizeBytes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(a.Score(u, v), b.Score(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
      }
    }
    auto save_a = SaveToTempBytes("hop_serial.idx", [&](const auto& p) {
      return a.Save(p);
    });
    auto save_b = SaveToTempBytes("hop_parallel.idx", [&](const auto& p) {
      return b.Save(p);
    });
    EXPECT_FALSE(save_a.empty());
    EXPECT_EQ(save_a, save_b);
  }
}

// ------------------------------------------------------ golden label bytes

// 64-bit FNV-1a over the Save bytes: independent of the container's own
// block checksum, so a change to either shows up here.
// Passing an earlier digest as `h` continues it over more bytes.
uint64_t Fnv1a64(const std::string& bytes,
                 uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct GoldenCase {
  uint32_t nodes;
  double avg_degree;
  uint64_t seed;
  uint32_t max_hops;
  uint64_t two_hop_digest;
  uint64_t dli_digest;
  uint64_t two_hop_insert_digest;  // see TwoHopInsertPatchMatchesPinnedDigests
};

// Digests of the labels the per-edge construction (one label query per
// BFS edge) wrote. The per-node construction must reproduce every byte:
// it skips queries whose answer is already decided, it never changes
// one. The dense shape exercises the equal-distance followee-append
// branch; H = 1 pins the no-enqueue edge case. The insert digests were
// written by the insert patch that unpacked every label into per-node
// vectors and re-flattened them all; the edit-list merge must reproduce
// them byte for byte.
constexpr GoldenCase kGoldenCases[] = {
    {80, 2.5, 501, 1, 0x94c34bca40b1b7b6ull, 0x482fa8e2117ffcbull,
     0x1cb8db383589f899ull},
    {80, 2.5, 501, 3, 0x2de47d90595a6434ull, 0x6df6340191d40d55ull,
     0xd1615b855ddd96bdull},
    {80, 2.5, 501, 5, 0xbdd51f97f4029841ull, 0x8e6abb8d5b3dec09ull,
     0x67486b3dfb9afcfdull},
    {50, 6.0, 502, 1, 0x5627b98a735d1402ull, 0x6ae0446805905d7eull,
     0x9df043597dc5f8dcull},
    {50, 6.0, 502, 3, 0xbf0c972fba305386ull, 0x59d17181f6c57fb2ull,
     0x0d7d2c48814b8609ull},
    {50, 6.0, 502, 5, 0x7f15d16821d4f450ull, 0x81f221f8cca98f6bull,
     0x00632dac371a2dc8ull},
    {120, 3.5, 503, 1, 0xc3b7206facb6369cull, 0x76178cd5e0b8f1deull,
     0x6801622935461823ull},
    {120, 3.5, 503, 3, 0x2262c830daa7c0ddull, 0x6617917e77414095ull,
     0xd145195cc3015680ull},
    {120, 3.5, 503, 5, 0x4b8a18b8825ace4dull, 0x68b3107cb9745850ull,
     0x3ccb6ca868eff9eeull},
};

TEST(GoldenLabelBytesTest, TwoHopBuildMatchesPinnedDigests) {
  for (const GoldenCase& c : kGoldenCases) {
    DirectedGraph g = RandomGraph(c.nodes, c.avg_degree, c.seed);
    auto index = TwoHopIndex::Build(&g, c.max_hops);
    auto bytes = SaveToTempBytes("hop_golden.idx", [&](const auto& p) {
      return index.Save(p);
    });
    EXPECT_EQ(Fnv1a64(bytes), c.two_hop_digest)
        << "seed " << c.seed << " H " << c.max_hops << std::hex
        << " digest 0x" << Fnv1a64(bytes);
  }
}

// Construction work is deterministic, so it is pinned exactly: the label
// entries read by the build's distance and followee-membership queries.
// The per-edge construction (one full label query per BFS edge) read
// 166248 entries on this graph; any change to how often labels are
// queried moves the figure.
TEST(GoldenLabelBytesTest, TwoHopBuildLabelScansArePinned) {
  DirectedGraph g = RandomGraph(120, 3.5, 503);
  metrics::Counter* scans =
      metrics::Registry().GetCounter("reach.twohop.build_label_scans_total");
  const uint64_t before = scans->Value();
  TwoHopIndex::Build(&g, 5);
  EXPECT_EQ(scans->Value() - before, 156544u);
}

TEST(GoldenLabelBytesTest, DistanceLabelBuildMatchesPinnedDigests) {
  for (const GoldenCase& c : kGoldenCases) {
    DirectedGraph g = RandomGraph(c.nodes, c.avg_degree, c.seed);
    auto index = DistanceLabelIndex::Build(&g, c.max_hops);
    auto bytes = SaveToTempBytes("dli_golden.idx", [&](const auto& p) {
      return index.Save(p);
    });
    EXPECT_EQ(Fnv1a64(bytes), c.dli_digest)
        << "seed " << c.seed << " H " << c.max_hops << std::hex
        << " digest 0x" << Fnv1a64(bytes);
  }
}

// Seeded inserts of new edges through a maintainer, so each one is
// patched into the labels (an erase rebuilds instead; its bytes are
// pinned against a fresh Build elsewhere). The digest runs FNV over the
// Save bytes after every insert, so each intermediate label set is
// pinned, not only the last. A mapped start must patch to the same
// bytes as a built one: e2ebench serves a mapped index.
constexpr int kGoldenInserts = 20;

// `tag` keeps the temp files of tests run in parallel apart.
uint64_t InsertPatchDigest(const GoldenCase& c, bool mapped,
                           const std::string& tag) {
  DirectedGraph g = RandomGraph(c.nodes, c.avg_degree, c.seed);
  auto index = TwoHopIndex::Build(&g, c.max_hops);
  const std::string path =
      (std::filesystem::temp_directory_path() / (tag + "_start.idx"))
          .string();
  if (mapped) {
    EXPECT_TRUE(index.Save(path).ok());
    auto loaded = TwoHopIndex::LoadMapped(path, &g);
    EXPECT_TRUE(loaded.ok());
    index = std::move(loaded).value();
    EXPECT_TRUE(index.IsMapped());
  }
  ReachMaintainer maintainer(&g, c.max_hops);
  maintainer.Register(&index);
  Rng rng(c.seed * 31 + c.max_hops);
  uint64_t digest = 0xcbf29ce484222325ull;
  for (int applied = 0; applied < kGoldenInserts;) {
    const graph::EdgeDelta delta{
        graph::EdgeDelta::Op::kInsert,
        static_cast<graph::NodeId>(rng.Uniform(c.nodes)),
        static_cast<graph::NodeId>(rng.Uniform(c.nodes))};
    if (!maintainer.ApplyDelta(delta).applied) continue;
    ++applied;
    EXPECT_FALSE(index.IsMapped());
    digest = Fnv1a64(SaveToTempBytes(tag + "_step.idx",
                                     [&](const auto& p) {
                                       return index.Save(p);
                                     }),
                     digest);
  }
  std::remove(path.c_str());
  return digest;
}

TEST(GoldenLabelBytesTest, TwoHopInsertPatchMatchesPinnedDigests) {
  for (const GoldenCase& c : kGoldenCases) {
    for (bool mapped : {false, true}) {
      const uint64_t digest = InsertPatchDigest(c, mapped, "hop_insert");
      EXPECT_EQ(digest, c.two_hop_insert_digest)
          << "seed " << c.seed << " H " << c.max_hops << " mapped "
          << mapped << std::hex << " digest 0x" << digest;
    }
  }
}

// The patch's work is deterministic, so it is pinned exactly: the label
// entries the inserts on the largest H = 5 case wrote other than by
// copying. Any change to what the patch rewrites moves the figure.
TEST(GoldenLabelBytesTest, TwoHopInsertPatchEditsArePinned) {
  metrics::Histogram* edits =
      metrics::Registry().GetHistogram("reach.twohop.insert_patch_edits");
  const auto before = edits->GetSnapshot();
  InsertPatchDigest(kGoldenCases[8], /*mapped=*/false, "hop_edits");
  const auto after = edits->GetSnapshot();
  EXPECT_EQ(after.count - before.count, uint64_t{kGoldenInserts});
  EXPECT_EQ(after.sum - before.sum, 7508u);
}

}  // namespace

// Reaches the private span walk and hub table (a friend of TwoHopIndex).
struct TwoHopIndexPeer {
  using HubTable = TwoHopIndex::HubTable;
  static uint32_t SpanDistance(const TwoHopIndex& index, graph::NodeId s,
                               graph::NodeId t) {
    std::vector<uint64_t> spans;
    return index.CollectMinDistanceSpans(s, t, spans);
  }
};

namespace {

// The insert patch and the erase stale-set read distances from a hub
// table instead of collecting spans; both must agree on every pair, in
// both scatter directions: s == t (a cycle through a hub, not 0),
// unreachable pairs, and labels a patch added as well as built ones.
TEST(TwoHopHubTableTest, MatchesCollectMinDistanceSpansInBothDirections) {
  uint64_t same = 0, unreachable = 0, reachable = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (uint32_t max_hops : {1u, 2u, 3u, 5u}) {
      DirectedGraph g = RandomGraph(40 + 10 * seed, 1.5 + seed % 3, 700 + seed);
      auto index = TwoHopIndex::Build(&g, max_hops);
      ReachMaintainer maintainer(&g, max_hops);
      maintainer.Register(&index);
      Rng rng(seed);
      for (int round = 0; round < 2; ++round) {
        TwoHopIndexPeer::HubTable from(index), to(index);
        const uint32_t n = g.num_nodes();
        for (graph::NodeId x = 0; x < n; ++x) {
          from.ScatterFrom(x);
          to.ScatterTo(x);
          for (graph::NodeId y = 0; y < n; ++y) {
            const uint32_t xy = TwoHopIndexPeer::SpanDistance(index, x, y);
            ASSERT_EQ(from.Distance(y), xy)
                << "seed " << seed << " H " << max_hops << " " << x << "->"
                << y;
            ASSERT_EQ(to.Distance(y),
                      TwoHopIndexPeer::SpanDistance(index, y, x))
                << "seed " << seed << " H " << max_hops << " " << y << "->"
                << x;
            if (x == y) {
              ++same;
            } else {
              ++(xy == kUnreachableDistance ? unreachable : reachable);
            }
          }
        }
        // Second round: the same checks over patched labels.
        for (int applied = 0; applied < 10;) {
          applied += maintainer
                         .ApplyDelta({graph::EdgeDelta::Op::kInsert,
                                      static_cast<graph::NodeId>(
                                          rng.Uniform(g.num_nodes())),
                                      static_cast<graph::NodeId>(
                                          rng.Uniform(g.num_nodes()))})
                         .applied;
        }
      }
    }
  }
  EXPECT_GT(same, 0u);
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(reachable, 0u);
}

// Query objects share nothing mutable anymore (per-thread BFS scratch),
// so concurrent queries on one instance must agree with serial answers.
TEST(ParallelBuildTest, NaiveReachabilityConcurrentQueriesAreSafe) {
  DirectedGraph g = RandomGraph(50, 3.0, 21);
  NaiveReachability naive(&g, 5);
  std::vector<double> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = naive.Score(0, v);
  }
  util::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, g.num_nodes(), 1, [&](size_t v) {
    if (naive.Score(0, static_cast<graph::NodeId>(v)) != expected[v]) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// The 2-hop query path keeps per-thread span scratch; concurrent
// ScoreOnly/CountQuery readers on one instance must agree with serial
// answers (exercised under TSan via the Parallel filter in verify.sh).
TEST(ParallelBuildTest, TwoHopConcurrentScoreOnlyReadersAgree) {
  DirectedGraph g = RandomGraph(60, 3.0, 23);
  auto index = TwoHopIndex::Build(&g, 5);
  std::vector<double> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = index.Score(7, v);
  }
  util::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, g.num_nodes() * 8u, 1, [&](size_t i) {
    auto v = static_cast<graph::NodeId>(i % g.num_nodes());
    if (index.ScoreOnly(7, v) != expected[v]) mismatches.fetch_add(1);
    auto count = index.CountQuery(7, v);
    auto full = index.Query(7, v);
    if (count.distance != full.distance ||
        count.followee_count != full.followees.size()) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// --------------------------------------------------- CachedReachability

TEST(CachedReachabilityTest, MatchesBaseBackend) {
  DirectedGraph g = RandomGraph(50, 3.0, 31);
  NaiveReachability base(&g, 5);
  CachedReachability cached(&base, &g);
  for (graph::NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(cached.Score(u, v), base.Score(u, v));
      auto a = cached.Query(u, v);
      auto b = base.Query(u, v);
      ASSERT_EQ(a.distance, b.distance);
      ASSERT_EQ(a.followees, b.followees);
    }
  }
  EXPECT_STREQ(cached.Name(), "cached+naive-bfs");
}

TEST(CachedReachabilityTest, CountsHitsAndMisses) {
  DirectedGraph g = Diamond();
  NaiveReachability base(&g, 5);
  CachedReachability cached(&base, &g);
  auto& reg = metrics::Registry();
  uint64_t hits0 = reg.GetCounter("reach.cache.hits_total")->Value();
  uint64_t misses0 = reg.GetCounter("reach.cache.misses_total")->Value();
  EXPECT_EQ(cached.ApproxEntries(), 0u);
  cached.Query(0, 4);  // miss
  EXPECT_EQ(cached.ApproxEntries(), 1u);
  cached.Query(0, 4);  // hit
  cached.Query(0, 4);  // hit
  cached.Query(0, 3);  // miss
  EXPECT_EQ(cached.ApproxEntries(), 2u);
  EXPECT_EQ(reg.GetCounter("reach.cache.hits_total")->Value() - hits0, 2u);
  EXPECT_EQ(reg.GetCounter("reach.cache.misses_total")->Value() - misses0,
            2u);
}

TEST(CachedReachabilityTest, EvictsWhenShardIsFull) {
  DirectedGraph g = Chain(10);
  NaiveReachability base(&g, 5);
  CachedReachability::Options options;
  options.num_shards = 1;
  options.max_entries_per_shard = 4;
  CachedReachability cached(&base, &g, options);
  for (graph::NodeId v = 0; v < 10; ++v) cached.Query(0, v);
  // Every insert beyond capacity clears the single shard first, so the
  // entry count never exceeds the bound and the answers stay correct.
  EXPECT_LE(cached.ApproxEntries(), 4u);
  for (graph::NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(cached.Score(0, v), base.Score(0, v));
  }
}

TEST(CachedReachabilityTest, InvalidateEmptiesTheCache) {
  DirectedGraph g = Diamond();
  NaiveReachability base(&g, 5);
  CachedReachability cached(&base, &g);
  cached.Query(0, 3);
  cached.Query(1, 3);
  EXPECT_EQ(cached.ApproxEntries(), 2u);
  cached.Invalidate();
  EXPECT_EQ(cached.ApproxEntries(), 0u);
  EXPECT_EQ(cached.Score(0, 3), base.Score(0, 3));
}

TEST(CachedReachabilityTest, CountQueryUsesCacheAndMatchesBase) {
  DirectedGraph g = RandomGraph(40, 3.0, 51);
  NaiveReachability base(&g, 5);
  CachedReachability cached(&base, &g);
  auto& reg = metrics::Registry();
  uint64_t hits0 = reg.GetCounter("reach.cache.hits_total")->Value();
  for (graph::NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto a = cached.CountQuery(u, v);  // miss (or derived from full)
      auto b = base.CountQuery(u, v);
      ASSERT_EQ(a.distance, b.distance) << u << "->" << v;
      ASSERT_EQ(a.followee_count, b.followee_count) << u << "->" << v;
      ASSERT_EQ(cached.ScoreOnly(u, v), base.ScoreOnly(u, v))
          << u << "->" << v;  // hit on the count cache
    }
  }
  EXPECT_GT(reg.GetCounter("reach.cache.hits_total")->Value(), hits0);
}

// A full Query result already carries (distance, |F_uv|); a later
// CountQuery for the same pair must be served from it, not from a second
// base computation.
TEST(CachedReachabilityTest, CountQueryDerivesFromFullEntry) {
  DirectedGraph g = Diamond();
  NaiveReachability base(&g, 5);
  CachedReachability cached(&base, &g);
  auto& reg = metrics::Registry();
  cached.Query(0, 4);  // miss, populates the full cache
  uint64_t misses0 = reg.GetCounter("reach.cache.misses_total")->Value();
  auto count = cached.CountQuery(0, 4);
  EXPECT_EQ(count.distance, 3u);
  EXPECT_EQ(count.followee_count, 2u);
  EXPECT_EQ(reg.GetCounter("reach.cache.misses_total")->Value(), misses0);
}

TEST(CachedReachabilityTest, BytesGaugeTracksLivePayload) {
  DirectedGraph g = RandomGraph(40, 3.0, 61);
  NaiveReachability base(&g, 5);
  auto* gauge = metrics::Registry().GetGauge("reach.cache.bytes");
  const int64_t before = gauge->Value();
  {
    CachedReachability cached(&base, &g);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      cached.Query(0, v);
      cached.CountQuery(1, v);
    }
    EXPECT_GT(cached.ApproxPayloadBytes(), 0u);
    EXPECT_EQ(gauge->Value() - before,
              static_cast<int64_t>(cached.ApproxPayloadBytes()));
    EXPECT_LE(cached.ApproxPayloadBytes(), cached.IndexSizeBytes());
    cached.Invalidate();
    EXPECT_EQ(cached.ApproxPayloadBytes(), 0u);
    EXPECT_EQ(gauge->Value(), before);
    cached.Query(2, 3);  // repopulate, then let the destructor release it
    EXPECT_GT(gauge->Value(), before);
  }
  EXPECT_EQ(gauge->Value(), before);
}

TEST(CachedReachabilityTest, ConcurrentQueriesAgree) {
  DirectedGraph g = RandomGraph(40, 3.0, 41);
  NaiveReachability base(&g, 5);
  CachedReachability cached(&base, &g);
  std::vector<double> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = base.Score(3, v);
  }
  util::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  // Each target queried from several threads: some threads hit, some
  // race on the miss path; all must see the same score.
  pool.ParallelFor(0, g.num_nodes() * 8u, 1, [&](size_t i) {
    auto v = static_cast<graph::NodeId>(i % g.num_nodes());
    if (cached.Score(3, v) != expected[v]) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cached.ApproxEntries(), static_cast<size_t>(g.num_nodes()));
}

}  // namespace
}  // namespace mel::reach
