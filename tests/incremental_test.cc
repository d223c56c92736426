// Tests of the incremental graph-mutation maintenance layer: the
// DirectedGraph edge-splice API driven through reach::ReachMaintainer,
// hand-computed Algorithm-1 (Eq. 4) values after single insertions and
// deletions on the 6-node diamond fixture, rejected-delta edge cases,
// byte identity of erase rebuilds with fresh label-index builds, the
// lazy stamped-ring retirement of the BurstTracker, a pinned
// mutation-event stream (seed regression), a TSan stress test racing
// edge mutations against pooled ScoreOnly readers under a shared lock
// (scripts/verify.sh runs it under TSan), the 2-hop erase rebuild held
// pending off the barrier (stale-source set by brute force, readers
// racing its publish and install), and the maintenance thread's FIFO
// order and shutdown.

#include "reach/reach_maintainer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/bfs.h"
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
#include "util/metrics.h"
#include "util/random.h"
#include "util/serial_executor.h"
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

// ------------------------------------- erase rebuild off the barrier

// The two bounded BFS frontiers ReachMaintainer hands every hook, for a
// delta already applied to g.
struct Frontiers {
  std::vector<uint32_t> to_u;
  std::vector<uint32_t> from_v;
};

Frontiers ComputeFrontiers(const graph::DirectedGraph& g, graph::NodeId u,
                           graph::NodeId v, uint32_t max_hops) {
  Frontiers f;
  f.to_u.assign(g.num_nodes(), reach::kUnreachableDistance);
  f.from_v.assign(g.num_nodes(), reach::kUnreachableDistance);
  graph::BfsScratch scratch(g.num_nodes());
  scratch.RunBackward(g, u, max_hops);
  for (graph::NodeId x : scratch.Touched()) f.to_u[x] = scratch.Distance(x);
  scratch.RunForward(g, v, max_hops);
  for (graph::NodeId x : scratch.Touched()) f.from_v[x] = scratch.Distance(x);
  return f;
}

reach::MutationContext MakeContext(graph::EdgeDelta::Op op, graph::NodeId u,
                                   graph::NodeId v,
                                   const graph::DirectedGraph& g,
                                   const Frontiers& f,
                                   util::SerialExecutor* maintenance) {
  reach::MutationContext ctx;
  ctx.delta = graph::EdgeDelta{op, u, v};
  ctx.graph = &g;
  ctx.dist_to_u = &f.to_u;
  ctx.dist_from_v = &f.from_v;
  ctx.maintenance = maintenance;
  return ctx;
}

graph::DirectedGraph RandomGraph(uint64_t seed, uint32_t nodes,
                                 uint32_t edges) {
  Rng rng(seed);
  graph::GraphBuilder b(nodes);
  for (uint32_t i = 0; i < edges; ++i) {
    b.AddEdge(static_cast<graph::NodeId>(rng.Uniform(nodes)),
              static_cast<graph::NodeId>(rng.Uniform(nodes)));
  }
  return std::move(b).Build();
}

// Blocks a SerialExecutor until Open(): work queued behind the gate stays
// pending for as long as a test needs. Destruction opens the gate and
// drains the executor, so a failing assertion cannot leave it blocked.
class Gate {
 public:
  explicit Gate(util::SerialExecutor* exec) : exec_(exec) {
    exec->Post([this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    });
  }
  ~Gate() {
    Open();
    exec_->Drain();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  util::SerialExecutor* exec_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// The stale-source set S of an erased edge (u, v), from its definition:
// S = {x : d(x,u) + 1 <= H and d_old(x,v) = d(x,u) + 1}. Distances come
// from BFS on the graph before the erase.
std::vector<uint8_t> StaleSources(const graph::DirectedGraph& before,
                                  graph::NodeId u, graph::NodeId v,
                                  uint32_t max_hops) {
  const reach::NaiveReachability naive(&before, max_hops);
  std::vector<uint8_t> stale(before.num_nodes(), 0);
  for (graph::NodeId x = 0; x < before.num_nodes(); ++x) {
    const uint32_t dxu = naive.CountQuery(x, u).distance;
    if (dxu == reach::kUnreachableDistance || dxu + 1 > max_hops) continue;
    if (naive.CountQuery(x, v).distance != dxu + 1) continue;
    stale[x] = 1;
  }
  return stale;
}

// Brute force over seeded graphs and every hop bound: a source outside S
// answers every target exactly as before the erase — which is what lets
// the index keep serving it from the old labels. The index then routes
// exactly S to the BFS fallback while the rebuild is held pending, every
// answer is exact, and the published labels are a fresh Build's bytes.
TEST(TwoHopPendingRebuild, SourcesOutsideStaleSetKeepEveryAnswer) {
  metrics::Counter* fallback = metrics::Registry().GetCounter(
      "reach.twohop.fallback_queries_total");
  uint32_t nonempty_outside = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (uint32_t max_hops : {1u, 2u, 3u, 5u}) {
      // 20-49 nodes, 40-159 edges: sparse chains through dense cores.
      graph::DirectedGraph g = RandomGraph(
          seed, 20 + seed % 30, static_cast<uint32_t>(40 + seed * 7 % 120));
      const uint32_t n = g.num_nodes();
      Rng rng(seed * 31 + max_hops);
      graph::NodeId u = static_cast<graph::NodeId>(rng.Uniform(n));
      while (g.OutNeighbors(u).empty()) u = (u + 1) % n;
      const auto outs = g.OutNeighbors(u);
      const graph::NodeId v = outs[rng.Uniform(outs.size())];

      const graph::DirectedGraph before = g;
      const reach::NaiveReachability naive_before(&before, max_hops);
      const std::vector<uint8_t> stale = StaleSources(before, u, v, max_hops);
      ASSERT_EQ(stale[u], 1);
      auto index = reach::TwoHopIndex::Build(&g, max_hops);

      ASSERT_TRUE(g.EraseEdge(u, v));
      const reach::NaiveReachability naive(&g, max_hops);
      const std::string where = "seed " + std::to_string(seed) + " H " +
                                std::to_string(max_hops) + " erase " +
                                std::to_string(u) + "->" +
                                std::to_string(v);
      uint64_t num_stale = 0;
      for (graph::NodeId x = 0; x < n; ++x) {
        num_stale += stale[x];
        if (stale[x]) continue;
        ++nonempty_outside;
        for (graph::NodeId b = 0; b < n; ++b) {
          const auto was = naive_before.Query(x, b);
          const auto now = naive.Query(x, b);
          ASSERT_EQ(now.distance, was.distance) << where << " " << x << "->"
                                                << b;
          ASSERT_EQ(now.followees, was.followees)
              << where << " " << x << "->" << b;
          ASSERT_EQ(naive.ScoreOnly(x, b), naive_before.ScoreOnly(x, b))
              << where << " " << x << "->" << b;
        }
      }

      util::SerialExecutor exec;
      Gate gate(&exec);
      const Frontiers f = ComputeFrontiers(g, u, v, max_hops);
      ASSERT_EQ(index.OnGraphMutation(MakeContext(
                    graph::EdgeDelta::Op::kErase, u, v, g, f, &exec)),
                reach::MutationResult::kRebuilt);
      const uint64_t fallback0 = fallback->Value();
      for (graph::NodeId x = 0; x < n; ++x) {
        for (graph::NodeId b = 0; b < n; ++b) {
          const auto want = naive.Query(x, b);
          const auto got = index.Query(x, b);
          ASSERT_EQ(got.distance, want.distance) << where << " " << x
                                                 << "->" << b;
          ASSERT_EQ(got.followees, want.followees)
              << where << " " << x << "->" << b;
          ASSERT_EQ(index.CountQuery(x, b).followee_count,
                    want.followees.size());
          ASSERT_EQ(index.ScoreOnly(x, b), naive.ScoreOnly(x, b))
              << where << " " << x << "->" << b;
        }
      }
      // Three routed calls per pair; only sources in S fall back.
      EXPECT_EQ(fallback->Value() - fallback0, 3 * num_stale * n) << where;
      gate.Open();
      const auto fresh = reach::TwoHopIndex::Build(&g, max_hops);
      EXPECT_EQ(SaveBytes(index, "pending_hop.idx"),
                SaveBytes(fresh, "pending_fresh.idx"))
          << where;
    }
  }
  EXPECT_GT(nonempty_outside, 0u);
}

// reach.twohop.labels_scanned samples queries only: the stale-set walk
// of an erase, the install and the insert patch's distance walk record
// nothing, and each query records one sample. One erase records one
// reach.twohop.stale_sources sample.
TEST(TwoHopPendingRebuild, EraseRecordsNoLabelScanSamples) {
  metrics::Histogram* scanned =
      metrics::Registry().GetHistogram("reach.twohop.labels_scanned");
  metrics::Histogram* stale =
      metrics::Registry().GetHistogram("reach.twohop.stale_sources");
  graph::DirectedGraph g = RandomGraph(7, 40, 120);
  auto index = reach::TwoHopIndex::Build(&g, kMaxHops);
  graph::NodeId u = 0;
  while (g.OutDegree(u) < 2) ++u;
  const graph::NodeId v = g.OutNeighbors(u)[0];
  const uint64_t scanned0 = scanned->GetSnapshot().count;
  const uint64_t stale0 = stale->GetSnapshot().count;

  util::SerialExecutor exec;
  ASSERT_TRUE(g.EraseEdge(u, v));
  const Frontiers fe = ComputeFrontiers(g, u, v, kMaxHops);
  ASSERT_EQ(index.OnGraphMutation(MakeContext(graph::EdgeDelta::Op::kErase,
                                              u, v, g, fe, &exec)),
            reach::MutationResult::kRebuilt);
  exec.Drain();
  ASSERT_TRUE(g.InsertEdge(u, v));
  const Frontiers fi = ComputeFrontiers(g, u, v, kMaxHops);
  ASSERT_EQ(index.OnGraphMutation(MakeContext(graph::EdgeDelta::Op::kInsert,
                                              u, v, g, fi, &exec)),
            reach::MutationResult::kPatched);
  EXPECT_EQ(scanned->GetSnapshot().count, scanned0);
  EXPECT_EQ(stale->GetSnapshot().count, stale0 + 1);

  index.Query(u, v);
  index.CountQuery(u, v);
  index.ScoreOnly(v, u);
  EXPECT_EQ(scanned->GetSnapshot().count, scanned0 + 3);
}

// Readers under a shared lock race an erase whose rebuild is held
// pending, then its publish on the maintenance thread, then the next
// insert's install (under the exclusive lock) — every answer must match
// the live-graph BFS throughout. scripts/verify.sh runs this under TSan.
TEST(TwoHopPendingRebuild, ReadersStayExactThroughPendingPublishAndInstall) {
  constexpr uint32_t kNodes = 60;
  constexpr uint32_t kReaders = 3;
  constexpr uint64_t kReadsPerPhase = 3000;
  graph::DirectedGraph g = RandomGraph(99, kNodes, 180);
  auto index = reach::TwoHopIndex::Build(&g, kMaxHops);
  const reach::NaiveReachability naive(&g, kMaxHops);
  graph::NodeId u = 0;
  while (g.OutDegree(u) < 2) ++u;
  const graph::NodeId v = g.OutNeighbors(u)[0];

  std::shared_mutex mu;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> mismatches{0};
  util::SerialExecutor exec;
  Gate gate(&exec);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(g.EraseEdge(u, v));
    const Frontiers f = ComputeFrontiers(g, u, v, kMaxHops);
    index.OnGraphMutation(
        MakeContext(graph::EdgeDelta::Op::kErase, u, v, g, f, &exec));
  }

  std::vector<std::thread> readers;
  for (uint32_t lane = 0; lane < kReaders; ++lane) {
    readers.emplace_back([&, lane] {
      Rng rng(500 + lane);
      while (!done.load()) {
        // Every other read starts at u, which is always stale.
        const auto x = rng.Bernoulli(0.5)
                           ? u
                           : static_cast<graph::NodeId>(rng.Uniform(kNodes));
        const auto b = static_cast<graph::NodeId>(rng.Uniform(kNodes));
        {
          std::shared_lock lock(mu);
          const auto want = naive.Query(x, b);
          const auto got = index.Query(x, b);
          const bool ok = got.distance == want.distance &&
                          got.followees == want.followees &&
                          index.ScoreOnly(x, b) == naive.ScoreOnly(x, b);
          if (!ok) mismatches.fetch_add(1);
        }
        reads.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }
  auto wait_reads = [&](uint64_t target) {
    while (reads.load() < target) std::this_thread::yield();
  };
  metrics::Counter* fallback = metrics::Registry().GetCounter(
      "reach.twohop.fallback_queries_total");
  const uint64_t fallback0 = fallback->Value();
  wait_reads(kReadsPerPhase);  // phase 1: rebuild pending
  EXPECT_GT(fallback->Value(), fallback0);
  gate.Open();                 // phase 2: the job builds and publishes
  exec.Drain();
  wait_reads(2 * kReadsPerPhase);
  graph::NodeId a = 0, c = 1;  // phase 3: the next insert installs
  while (g.HasEdge(a, c) || a == c) c = (c + 1) % kNodes;
  {
    std::unique_lock lock(mu);
    EXPECT_TRUE(g.InsertEdge(a, c));
    const Frontiers f = ComputeFrontiers(g, a, c, kMaxHops);
    EXPECT_EQ(index.OnGraphMutation(MakeContext(
                  graph::EdgeDelta::Op::kInsert, a, c, g, f, &exec)),
              reach::MutationResult::kPatched);
  }
  wait_reads(3 * kReadsPerPhase);
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------- the maintenance thread

// Logs its hooks and the work each hook defers; the deferred work sleeps
// so a hook that did not wait for it would log first.
class RecordingIndex : public reach::WeightedReachability {
 public:
  double Score(graph::NodeId, graph::NodeId) const override { return 0; }
  reach::ReachQueryResult Query(graph::NodeId,
                                graph::NodeId) const override {
    return {};
  }
  uint64_t IndexSizeBytes() const override { return 0; }
  const char* Name() const override { return "recording"; }

  reach::MutationResult OnGraphMutation(
      const reach::MutationContext& ctx) override {
    Log("hook " + std::to_string(ctx.delta.u));
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook_threads_.push_back(std::this_thread::get_id());
    }
    ctx.maintenance->Post([this, u = ctx.delta.u] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Log("job " + std::to_string(u));
    });
    return reach::MutationResult::kRebuilt;
  }

  std::vector<std::string> log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }
  std::vector<std::thread::id> hook_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hook_threads_;
  }

 private:
  void Log(std::string event) {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(std::move(event));
  }

  mutable std::mutex mu_;
  std::vector<std::string> log_;
  std::vector<std::thread::id> hook_threads_;
};

TEST(ReachMaintainerThreading, HooksWaitForDeferredWorkInFifoOrder) {
  graph::DirectedGraph g = MakeDiamondGraph();
  RecordingIndex recording;
  reach::ReachMaintainer maintainer(&g, kMaxHops);
  maintainer.Register(&recording);
  for (graph::NodeId u : {0u, 1u, 3u}) {
    ASSERT_TRUE(maintainer
                    .ApplyDelta({graph::EdgeDelta::Op::kInsert, u, 5})
                    .applied);
  }
  maintainer.Drain();
  EXPECT_EQ(recording.log(),
            (std::vector<std::string>{"hook 0", "job 0", "hook 1", "job 1",
                                      "hook 3", "job 3"}));
  const auto threads = recording.hook_threads();
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  EXPECT_EQ(threads[1], threads[0]);
  EXPECT_EQ(threads[2], threads[0]);
}

// Destroying the maintainer with work still queued runs it: the deferred
// job completes, and an erase's 2-hop rebuild lands byte-identical to a
// fresh Build.
TEST(ReachMaintainerThreading, DestructorRunsPendingWork) {
  graph::DirectedGraph g = RandomGraph(17, 120, 480);
  auto two_hop = reach::TwoHopIndex::Build(&g, kMaxHops);
  RecordingIndex recording;
  graph::NodeId u = 0;
  while (g.OutNeighbors(u).empty()) ++u;
  {
    reach::ReachMaintainer maintainer(&g, kMaxHops);
    maintainer.Register(&two_hop);
    maintainer.Register(&recording);
    ASSERT_TRUE(maintainer
                    .ApplyDelta({graph::EdgeDelta::Op::kErase, u,
                                 g.OutNeighbors(u)[0]})
                    .applied);
  }
  EXPECT_EQ(recording.log(), (std::vector<std::string>{
                                 "hook " + std::to_string(u),
                                 "job " + std::to_string(u)}));
  const auto fresh = reach::TwoHopIndex::Build(&g, kMaxHops);
  EXPECT_EQ(SaveBytes(two_hop, "dtor_hop.idx"),
            SaveBytes(fresh, "dtor_fresh.idx"));
}

}  // namespace
}  // namespace mel
