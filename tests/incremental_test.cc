// Tests of the incremental graph-mutation maintenance layer: the
// DirectedGraph edge-splice API driven through reach::ReachMaintainer,
// hand-computed Algorithm-1 (Eq. 4) values after single insertions and
// deletions on the 6-node diamond fixture, rejected-delta edge cases,
// byte identity of erase rebuilds with fresh label-index builds, the
// lazy stamped-ring retirement of the BurstTracker, a pinned
// mutation-event stream (seed regression), and a TSan stress test racing
// edge mutations against pooled ScoreOnly readers under a shared lock
// (scripts/verify.sh runs it under TSan).

#include "reach/reach_maintainer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/graph_builder.h"
#include "graph/mutation.h"
#include "reach/distance_label_index.h"
#include "reach/naive_reachability.h"
#include "reach/pruned_online_search.h"
#include "reach/reach_cache.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "recency/burst_tracker.h"
#include "testing/random_workload.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mel {
namespace {

constexpr uint32_t kMaxHops = 5;

// 0 -> 1 -> 2 -> 3, 0 -> 4 -> 2; node 5 isolated.
graph::DirectedGraph MakeDiamondGraph() {
  graph::GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 4);
  b.AddEdge(4, 2);
  b.AddEdge(2, 3);
  return std::move(b).Build();
}

/// Every production backend built over one live graph, registered with a
/// maintainer in the documented order (cache strictly after its base).
struct Rig {
  graph::DirectedGraph g;
  reach::NaiveReachability naive;
  reach::TransitiveClosureIndex tc;
  reach::TwoHopIndex two_hop;
  reach::DistanceLabelIndex dli;
  reach::PrunedOnlineSearch pruned;
  reach::CachedReachability cached;
  reach::ReachMaintainer maintainer;

  explicit Rig(graph::DirectedGraph graph, uint32_t max_hops = kMaxHops)
      : g(std::move(graph)),
        naive(&g, max_hops),
        tc(reach::TransitiveClosureIndex::Build(
            &g, max_hops,
            reach::TransitiveClosureIndex::Construction::kIncremental)),
        two_hop(reach::TwoHopIndex::Build(&g, max_hops)),
        dli(reach::DistanceLabelIndex::Build(&g, max_hops)),
        pruned(reach::PrunedOnlineSearch::Build(&g, max_hops, 3,
                                                /*seed=*/42)),
        cached(&naive, &g),
        maintainer(&g, max_hops) {
    maintainer.Register(&naive);
    maintainer.Register(&tc);
    maintainer.Register(&two_hop);
    maintainer.Register(&dli);
    maintainer.Register(&pruned);
    maintainer.Register(&cached);
  }

  std::vector<std::pair<const char*, const reach::WeightedReachability*>>
  backends() const {
    return {{"naive", &naive},     {"tc", &tc},
            {"two-hop", &two_hop}, {"dist-label", &dli},
            {"pruned", &pruned},   {"cached", &cached}};
  }

  reach::ReachMaintainer::ApplyResult Apply(graph::EdgeDelta::Op op,
                                            graph::NodeId u,
                                            graph::NodeId v) {
    graph::EdgeDelta delta;
    delta.op = op;
    delta.u = u;
    delta.v = v;
    return maintainer.ApplyDelta(delta);
  }
};

// Registration-order indexes into ApplyResult::results.
enum BackendIndex : size_t {
  kNaiveIdx = 0,
  kTcIdx,
  kTwoHopIdx,
  kDliIdx,
  kPrunedIdx,
  kCachedIdx,
};

void ExpectQuery(const Rig& rig, graph::NodeId u, graph::NodeId v,
                 uint32_t distance,
                 const std::vector<graph::NodeId>& followees,
                 double score) {
  for (const auto& [name, backend] : rig.backends()) {
    const auto q = backend->Query(u, v);
    EXPECT_EQ(q.distance, distance) << name << " " << u << "->" << v;
    EXPECT_EQ(q.followees, followees) << name << " " << u << "->" << v;
    const auto cq = backend->CountQuery(u, v);
    EXPECT_EQ(cq.distance, distance) << name << " " << u << "->" << v;
    EXPECT_EQ(cq.followee_count, followees.size())
        << name << " " << u << "->" << v;
    // The transitive closure stores float scores; everything else feeds
    // exact integers into WeightedScoreFromCount and is bit-identical.
    const double tol = backend == &rig.tc ? 1e-6 : 0.0;
    EXPECT_NEAR(backend->Score(u, v), score, tol)
        << name << " " << u << "->" << v;
    EXPECT_EQ(backend->ScoreOnly(u, v), backend->Score(u, v))
        << name << " " << u << "->" << v;
  }
}

// ------------------------------------------------- hand-computed patches

TEST(IncrementalHandComputed, InsertShortcutShortensDistances) {
  Rig rig(MakeDiamondGraph());
  // Pre-insert: d(0, 3) = 3 through both followees {1, 4}.
  ExpectQuery(rig, 0, 3, 3, {1, 4}, (1.0 / 3.0) * (2.0 / 2.0));

  const auto applied = rig.Apply(graph::EdgeDelta::Op::kInsert, 1, 3);
  ASSERT_TRUE(applied.applied);
  ASSERT_EQ(applied.results.size(), 6u);
  EXPECT_EQ(applied.results[kNaiveIdx],
            reach::MutationResult::kUnaffected);
  EXPECT_EQ(applied.results[kTcIdx], reach::MutationResult::kPatched);
  EXPECT_EQ(applied.results[kTwoHopIdx], reach::MutationResult::kPatched);
  EXPECT_EQ(applied.results[kDliIdx], reach::MutationResult::kPatched);
  EXPECT_EQ(applied.results[kPrunedIdx], reach::MutationResult::kRebuilt);
  EXPECT_EQ(applied.results[kCachedIdx], reach::MutationResult::kPatched);

  // d(1, 3) collapses to the direct edge; R = 1 by the followee
  // convention.
  ExpectQuery(rig, 1, 3, 1, {3}, 1.0);
  // d(0, 3) = 2 now runs through followee 1 alone: (1/2) * (1/2).
  ExpectQuery(rig, 0, 3, 2, {1}, 0.25);
  // Untouched pair: d(0, 2) = 2 through {1, 4} keeps (1/2) * (2/2).
  ExpectQuery(rig, 0, 2, 2, {1, 4}, 0.5);
}

TEST(IncrementalHandComputed, EraseReroutesAndDisconnects) {
  Rig rig(MakeDiamondGraph());
  const auto applied = rig.Apply(graph::EdgeDelta::Op::kErase, 4, 2);
  ASSERT_TRUE(applied.applied);
  ASSERT_EQ(applied.results.size(), 6u);
  EXPECT_EQ(applied.results[kTcIdx], reach::MutationResult::kPatched);
  // Deletion breaks the pruned-labeling cover (a new shortest path was
  // non-shortest before and never got labeled), so the label indexes
  // rebuild rather than patch.
  EXPECT_EQ(applied.results[kTwoHopIdx], reach::MutationResult::kRebuilt);
  EXPECT_EQ(applied.results[kDliIdx], reach::MutationResult::kRebuilt);

  // d(0, 2) = 2 now only through followee 1: (1/2) * (1/2).
  ExpectQuery(rig, 0, 2, 2, {1}, 0.25);
  // d(0, 3) = 3 through followee 1 alone: (1/3) * (1/2).
  ExpectQuery(rig, 0, 3, 3, {1}, 1.0 / 6.0);
  // Node 4 lost its only followee: nothing is reachable but itself.
  ExpectQuery(rig, 4, 2, reach::kUnreachableDistance, {}, 0.0);
  ExpectQuery(rig, 4, 4, 0, {}, 1.0);
}

TEST(IncrementalHandComputed, InsertConnectsIsolatedNode) {
  Rig rig(MakeDiamondGraph());
  ExpectQuery(rig, 5, 0, reach::kUnreachableDistance, {}, 0.0);

  ASSERT_TRUE(rig.Apply(graph::EdgeDelta::Op::kInsert, 5, 0).applied);
  ExpectQuery(rig, 5, 0, 1, {0}, 1.0);
  // 5 -> 0 -> 1 -> 2 -> 3 with the single followee 0: (1/4) * (1/1).
  ExpectQuery(rig, 5, 3, 4, {0}, 0.25);
  // Nothing reaches 5: the edge is directed.
  ExpectQuery(rig, 0, 5, reach::kUnreachableDistance, {}, 0.0);
}

// ------------------------------------------------------ rejected deltas

TEST(IncrementalEdgeCases, EmptyGraphRejectsEveryDelta) {
  Rig rig(graph::DirectedGraph{});
  EXPECT_FALSE(rig.Apply(graph::EdgeDelta::Op::kInsert, 0, 1).applied);
  EXPECT_FALSE(rig.Apply(graph::EdgeDelta::Op::kErase, 0, 1).applied);
  EXPECT_EQ(rig.g.version(), 0u);
}

TEST(IncrementalEdgeCases, SelfLoopDuplicateAndMissingAreNoOps) {
  Rig rig(MakeDiamondGraph());
  EXPECT_FALSE(
      rig.Apply(graph::EdgeDelta::Op::kInsert, 2, 2).applied);  // self-loop
  EXPECT_FALSE(
      rig.Apply(graph::EdgeDelta::Op::kErase, 2, 2).applied);  // self-loop
  EXPECT_FALSE(
      rig.Apply(graph::EdgeDelta::Op::kInsert, 0, 1).applied);  // duplicate
  EXPECT_FALSE(
      rig.Apply(graph::EdgeDelta::Op::kErase, 3, 0).applied);  // missing
  EXPECT_FALSE(
      rig.Apply(graph::EdgeDelta::Op::kInsert, 0, 99).applied);  // range
  EXPECT_EQ(rig.g.version(), 0u);
  // A rejected delta leaves every index untouched.
  ExpectQuery(rig, 0, 2, 2, {1, 4}, 0.5);
}

TEST(IncrementalEdgeCases, VersionCountsAppliedDeltasOnly) {
  Rig rig(MakeDiamondGraph());
  EXPECT_EQ(rig.g.version(), 0u);
  ASSERT_TRUE(rig.Apply(graph::EdgeDelta::Op::kInsert, 1, 3).applied);
  EXPECT_EQ(rig.g.version(), 1u);
  EXPECT_FALSE(rig.Apply(graph::EdgeDelta::Op::kInsert, 1, 3).applied);
  EXPECT_EQ(rig.g.version(), 1u);
  ASSERT_TRUE(rig.Apply(graph::EdgeDelta::Op::kErase, 1, 3).applied);
  EXPECT_EQ(rig.g.version(), 2u);
}

// ------------------------------------------------ erase rebuild identity

template <typename Index>
std::string SaveBytes(const Index& index, const char* name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  EXPECT_TRUE(index.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>{});
  std::remove(path.c_str());
  return bytes;
}

// An erase rebuilds the label indexes on the serving barrier; the rebuild
// must be exactly a fresh Build of the mutated graph, byte for byte —
// even after insert patches left the old labels non-canonical.
TEST(IncrementalEraseRebuild, LabelBytesMatchFreshBuild) {
  Rng rng(0xE5A5E);
  graph::GraphBuilder b(70);
  for (int i = 0; i < 220; ++i) {
    b.AddEdge(static_cast<graph::NodeId>(rng.Uniform(70)),
              static_cast<graph::NodeId>(rng.Uniform(70)));
  }
  for (uint32_t max_hops : {1u, 3u, 5u}) {
    Rig rig(std::move(graph::GraphBuilder(b)).Build(), max_hops);
    int inserted = 0;
    while (inserted < 4) {
      inserted += rig.Apply(graph::EdgeDelta::Op::kInsert,
                            static_cast<graph::NodeId>(rng.Uniform(70)),
                            static_cast<graph::NodeId>(rng.Uniform(70)))
                      .applied;
    }
    graph::NodeId u = 0;
    while (rig.g.OutNeighbors(u).empty()) ++u;
    const auto applied =
        rig.Apply(graph::EdgeDelta::Op::kErase, u, rig.g.OutNeighbors(u)[0]);
    ASSERT_TRUE(applied.applied);
    ASSERT_EQ(applied.results[kTwoHopIdx], reach::MutationResult::kRebuilt);
    ASSERT_EQ(applied.results[kDliIdx], reach::MutationResult::kRebuilt);

    const auto fresh_hop = reach::TwoHopIndex::Build(&rig.g, max_hops);
    EXPECT_EQ(SaveBytes(rig.two_hop, "erase_hop.idx"),
              SaveBytes(fresh_hop, "fresh_hop.idx"))
        << "H " << max_hops;
    const auto fresh_dli = reach::DistanceLabelIndex::Build(&rig.g, max_hops);
    EXPECT_EQ(SaveBytes(rig.dli, "erase_dli.idx"),
              SaveBytes(fresh_dli, "fresh_dli.idx"))
        << "H " << max_hops;
  }
}

// ------------------------------------------- burst-ring lazy retirement

TEST(IncrementalBurstTracker, LazySlotReclaimDropsExpiredCounts) {
  // tau = 160, 16 buckets -> width 10, 17 slots. Bucket 17 wraps onto
  // slot 0, so observing it must retire bucket 0's count lazily.
  recency::BurstTracker burst(/*num_entities=*/1, /*tau=*/160,
                              /*num_buckets=*/16, /*theta1=*/1);
  ASSERT_EQ(burst.bucket_width(), 10u);
  burst.Observe(0, 5);  // bucket 0
  EXPECT_EQ(burst.ApproxRecentCount(0, 5), 1u);

  burst.Observe(0, 175);  // bucket 17: reclaims slot 0
  EXPECT_EQ(burst.ApproxRecentCount(0, 175), 1u);  // not resurrected to 2
  // Bucket 0 is behind the retained span (head 17 - 0 >= 17 slots).
  EXPECT_EQ(burst.ApproxRecentCount(0, 9), 0u);
}

TEST(IncrementalBurstTracker, SparseHeadAdvanceIsExactAndDropsStragglers) {
  recency::BurstTracker burst(/*num_entities=*/1, /*tau=*/160,
                              /*num_buckets=*/16, /*theta1=*/1);
  burst.Observe(0, 5);
  const uint64_t epoch_before = burst.Epoch();
  // A huge forward jump (millions of skipped buckets) is O(1): nothing
  // is zeroed, old slots expire by stamp mismatch.
  burst.Observe(0, 10'000'000);
  EXPECT_EQ(burst.ApproxRecentCount(0, 10'000'000), 1u);
  EXPECT_EQ(burst.ApproxRecentCount(0, 165), 0u);  // old window all gone
  EXPECT_EQ(burst.Epoch(), epoch_before + 1);

  // A straggler older than the retained window is dropped without an
  // epoch bump (it would have expired anyway).
  burst.Observe(0, 5);
  EXPECT_EQ(burst.Epoch(), epoch_before + 1);
  EXPECT_EQ(burst.ApproxRecentCount(0, 10'000'000), 1u);
}

// --------------------------------------------- pinned mutation stream

// Bit-reproducibility regression: the first ten mutation events of seed
// 0xFEEDFACF, pinned the day the stream was introduced. A change here
// means the mutation seed stream (util::DeriveSeed stream 20) or the
// evolving-edge-set simulation drifted, invalidating every recorded
// repro seed.
TEST(IncrementalWorkload, MutationStreamIsPinned) {
  using Kind = testing::MutationEvent::Kind;
  struct Expected {
    uint32_t before_query;
    Kind kind;
    kb::UserId u, v;
    kb::EntityId entity;
    kb::TweetId tweet_id;
    kb::UserId tweet_user;
    kb::Timestamp tweet_time;
  };
  const Expected expected[] = {
      {2, Kind::kAddPost, 0, 0, 4, 2000000, 47, 1999861},
      {5, Kind::kAddEdge, 18, 32, kb::kInvalidEntity, 0, kb::kInvalidUser, 0},
      {8, Kind::kAddPost, 0, 0, 4, 2000002, 21, 387518},
      {10, Kind::kAddEdge, 0, 51, kb::kInvalidEntity, 0, kb::kInvalidUser, 0},
      {12, Kind::kAddEdge, 11, 48, kb::kInvalidEntity, 0, kb::kInvalidUser,
       0},
      {13, Kind::kRemoveEdge, 49, 1, kb::kInvalidEntity, 0, kb::kInvalidUser,
       0},
      {18, Kind::kAddPost, 0, 0, 19, 2000006, 23, 1310979},
      {21, Kind::kRemoveEdge, 28, 1, kb::kInvalidEntity, 0, kb::kInvalidUser,
       0},
      {23, Kind::kAddEdge, 49, 23, kb::kInvalidEntity, 0, kb::kInvalidUser,
       0},
      {24, Kind::kRemoveEdge, 58, 31, kb::kInvalidEntity, 0,
       kb::kInvalidUser, 0},
  };

  testing::RandomWorkloadOptions options;
  options.num_mutation_events = 10;
  testing::RandomWorkload w =
      testing::MakeRandomWorkload(0xFEEDFACFull, options);
  ASSERT_EQ(w.mutations.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    const auto& got = w.mutations[i];
    const auto& want = expected[i];
    EXPECT_EQ(got.before_query, want.before_query) << "event " << i;
    EXPECT_EQ(got.kind, want.kind) << "event " << i;
    EXPECT_EQ(got.u, want.u) << "event " << i;
    EXPECT_EQ(got.v, want.v) << "event " << i;
    EXPECT_EQ(got.entity, want.entity) << "event " << i;
    EXPECT_EQ(got.tweet.id, want.tweet_id) << "event " << i;
    EXPECT_EQ(got.tweet.user, want.tweet_user) << "event " << i;
    EXPECT_EQ(got.tweet.time, want.tweet_time) << "event " << i;
  }
}

// ------------------------------------------------- concurrency (TSan)

// Edge mutations (exclusive lock) race ScoreOnly readers on the shared
// thread pool (shared lock). Readers demand cross-backend agreement on
// every read; after the writer finishes, the patched indexes must equal
// from-scratch rebuilds exactly. scripts/verify.sh runs this under TSan,
// where any unlocked access inside the patch paths is a hard error.
TEST(IncrementalConcurrency, MutationsRaceScoreOnlyReadersUnderSharedLock) {
  constexpr uint32_t kNodes = 48;
  constexpr uint32_t kMutations = 150;
  constexpr uint32_t kReaders = 3;

  graph::GraphBuilder b(kNodes);
  Rng build_rng(7);
  for (uint32_t u = 0; u < kNodes; ++u) {
    for (int e = 0; e < 3; ++e) {
      const auto v =
          static_cast<graph::NodeId>(build_rng.Uniform(kNodes));
      if (v != u) b.AddEdge(u, v);
    }
  }
  Rig rig(std::move(b).Build());

  std::shared_mutex mu;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> applied_count{0};

  std::thread writer([&] {
    Rng wrng(11);
    for (uint32_t i = 0; i < kMutations; ++i) {
      const auto u = static_cast<graph::NodeId>(wrng.Uniform(kNodes));
      const auto v = static_cast<graph::NodeId>(wrng.Uniform(kNodes));
      if (u == v) continue;
      std::unique_lock lock(mu);
      const auto op = rig.g.HasEdge(u, v) ? graph::EdgeDelta::Op::kErase
                                          : graph::EdgeDelta::Op::kInsert;
      if (rig.Apply(op, u, v).applied) applied_count.fetch_add(1);
    }
    done.store(true);
  });

  // Readers are bounded AND yield after every read: glibc's shared_mutex
  // prefers readers, so an unbounded tight reader loop can starve the
  // writer indefinitely. The cap guarantees termination either way.
  constexpr uint32_t kMaxReadsPerLane = 20000;
  util::ThreadPool pool(kReaders);
  pool.ParallelFor(0, kReaders, /*grain=*/1, [&](size_t lane) {
    Rng rrng(100 + lane);
    for (uint32_t i = 0; i < kMaxReadsPerLane && !done.load(); ++i) {
      const auto u = static_cast<graph::NodeId>(rrng.Uniform(kNodes));
      const auto v = static_cast<graph::NodeId>(rrng.Uniform(kNodes));
      {
        std::shared_lock lock(mu);
        const double want = rig.naive.ScoreOnly(u, v);
        bool ok = rig.two_hop.ScoreOnly(u, v) == want &&
                  rig.dli.ScoreOnly(u, v) == want &&
                  rig.pruned.ScoreOnly(u, v) == want &&
                  rig.cached.ScoreOnly(u, v) == want &&
                  std::abs(rig.tc.ScoreOnly(u, v) - want) <= 1e-6;
        if (!ok) mismatches.fetch_add(1);
        reads.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  writer.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(applied_count.load(), 0u);
  EXPECT_EQ(rig.g.version(), applied_count.load());

  // Settled state equals from-scratch rebuilds, pair for pair.
  auto tc_fresh = reach::TransitiveClosureIndex::Build(
      &rig.g, kMaxHops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop_fresh = reach::TwoHopIndex::Build(&rig.g, kMaxHops);
  auto dli_fresh = reach::DistanceLabelIndex::Build(&rig.g, kMaxHops);
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    for (graph::NodeId v = 0; v < kNodes; ++v) {
      ASSERT_EQ(rig.tc.Distance(u, v), tc_fresh.Distance(u, v));
      ASSERT_EQ(rig.tc.Score(u, v), tc_fresh.Score(u, v));
      ASSERT_EQ(rig.two_hop.ScoreOnly(u, v),
                two_hop_fresh.ScoreOnly(u, v));
      ASSERT_EQ(rig.dli.ScoreOnly(u, v), dli_fresh.ScoreOnly(u, v));
      ASSERT_EQ(rig.naive.ScoreOnly(u, v), rig.cached.ScoreOnly(u, v));
    }
  }
}

}  // namespace
}  // namespace mel
