#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/entity_linker.h"
#include "graph/graph_builder.h"
#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "reach/naive_reachability.h"
#include "reach/pruned_online_search.h"
#include "reach/reach_cache.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "recency/propagation_network.h"
#include "recency/recency_propagator.h"
#include "recency/sliding_window.h"
#include "testing/differential_runner.h"
#include "testing/oracle.h"
#include "testing/random_workload.h"
#include "testing/sync_source.h"
#include "util/metrics.h"

namespace mel::testing {
namespace {

// ===========================================================================
// Oracle unit tests — hand-computed values, independent of any production
// path. If these fail, the ground truth itself is wrong and every
// differential verdict is meaningless, so they run first.
// ===========================================================================

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

TEST(OracleReach, HandComputedDistances) {
  graph::DirectedGraph g = MakeDiamondGraph();
  EXPECT_EQ(OracleDistance(g, 0, 0, 5), 0u);
  EXPECT_EQ(OracleDistance(g, 0, 1, 5), 1u);
  EXPECT_EQ(OracleDistance(g, 0, 2, 5), 2u);
  EXPECT_EQ(OracleDistance(g, 0, 3, 5), 3u);
  EXPECT_EQ(OracleDistance(g, 0, 5, 5), reach::kUnreachableDistance);
  EXPECT_EQ(OracleDistance(g, 5, 0, 5), reach::kUnreachableDistance);
  // Hop bound: distance 2 is invisible with max_hops = 1.
  EXPECT_EQ(OracleDistance(g, 0, 2, 1), reach::kUnreachableDistance);
}

TEST(OracleReach, HandComputedScores) {
  graph::DirectedGraph g = MakeDiamondGraph();
  // Paper conventions.
  EXPECT_EQ(OracleReachScore(g, 0, 0, 5), 1.0);  // R(u, u) = 1
  EXPECT_EQ(OracleReachScore(g, 0, 1, 5), 1.0);  // direct followee
  EXPECT_EQ(OracleReachScore(g, 0, 5, 5), 0.0);  // unreachable
  EXPECT_EQ(OracleReachScore(g, 5, 0, 5), 0.0);  // out-degree 0
  EXPECT_EQ(OracleReachScore(g, 5, 5, 5), 1.0);  // even with out-degree 0
  // d(0, 2) = 2 via both followees {1, 4}: (1/2) * (2/2).
  EXPECT_DOUBLE_EQ(OracleReachScore(g, 0, 2, 5), 0.5);
  // d(0, 3) = 3, both followees on shortest paths: (1/3) * (2/2).
  EXPECT_DOUBLE_EQ(OracleReachScore(g, 0, 3, 5), 1.0 / 3.0);
  // Beyond the hop bound the score collapses to 0.
  EXPECT_EQ(OracleReachScore(g, 0, 2, 1), 0.0);
}

TEST(OracleReach, QueryReportsShortestPathFollowees) {
  graph::DirectedGraph g = MakeDiamondGraph();
  reach::ReachQueryResult r = OracleReachQuery(g, 0, 2, 5);
  EXPECT_EQ(r.distance, 2u);
  EXPECT_EQ(r.followees, (std::vector<graph::NodeId>{1, 4}));
  r = OracleReachQuery(g, 0, 3, 5);
  EXPECT_EQ(r.distance, 3u);
  EXPECT_EQ(r.followees, (std::vector<graph::NodeId>{1, 4}));
  r = OracleReachQuery(g, 0, 1, 5);
  EXPECT_EQ(r.distance, 1u);
  EXPECT_EQ(r.followees, (std::vector<graph::NodeId>{1}));
}

TEST(OracleRecency, InclusiveWindowAndThreshold) {
  kb::Knowledgebase kb;
  kb::EntityId e = kb.AddEntity("e", kb::EntityCategory::kPerson, {});
  kb.AddSurfaceForm("e", e, 1);
  kb.Finalize();
  kb::ComplementedKnowledgebase ckb(&kb);
  ckb.AddLink(e, kb::Posting{1, 0, 10});
  ckb.AddLink(e, kb::Posting{2, 0, 20});
  ckb.AddLink(e, kb::Posting{3, 0, 30});

  // Window [now - tau, now] is inclusive on both ends.
  EXPECT_EQ(OracleRecentCount(ckb, e, 30, 20), 3u);  // [10, 30]
  EXPECT_EQ(OracleRecentCount(ckb, e, 25, 5), 1u);   // [20, 25]
  EXPECT_EQ(OracleRecentCount(ckb, e, 9, 100), 0u);
  EXPECT_EQ(OracleRecentCount(ckb, e, 1000, 100), 0u);  // window passed

  EXPECT_DOUBLE_EQ(OracleBurstMass(ckb, e, 30, 20, 3), 3.0);
  EXPECT_DOUBLE_EQ(OracleBurstMass(ckb, e, 30, 20, 4), 0.0);  // below theta1

  // The production sliding window agrees on the hand-computed values.
  recency::SlidingWindowRecency window(&ckb, 20, 3);
  EXPECT_EQ(window.RecentCount(e, 30), 3u);
  EXPECT_EQ(window.RecentCount(e, 25), 2u);  // tau = 20: [5, 25]
  EXPECT_DOUBLE_EQ(window.BurstMass(e, 30), 3.0);
}

TEST(OracleWlm, HandComputedRelatedness) {
  kb::Knowledgebase kb;
  kb::EntityId x = kb.AddEntity("x", kb::EntityCategory::kPerson, {});
  kb::EntityId y = kb.AddEntity("y", kb::EntityCategory::kPerson, {});
  kb::EntityId z = kb.AddEntity("z", kb::EntityCategory::kPerson, {});
  for (int i = 0; i < 5; ++i) {
    kb::EntityId a = kb.AddEntity("a" + std::to_string(i),
                                  kb::EntityCategory::kMovieMusic, {});
    kb.AddHyperlink(a, x);
    if (i < 4) kb.AddHyperlink(a, y);
  }
  kb.Finalize();

  EXPECT_EQ(OracleInlinkIntersection(kb, x, y), 4u);
  EXPECT_EQ(OracleInlinkIntersection(kb, x, z), 0u);
  // |A_x| = 5, |A_y| = 4, |A_x ∩ A_y| = 4, N = 8 entities total:
  // rel = 1 - (log 5 - log 4) / (log 8 - log 4).
  const double expected =
      1.0 - (std::log(5.0) - std::log(4.0)) / (std::log(8.0) - std::log(4.0));
  EXPECT_NEAR(OracleWlmRelatedness(kb, x, y), expected, 1e-12);
  EXPECT_EQ(OracleWlmRelatedness(kb, x, x), 1.0);
  EXPECT_EQ(OracleWlmRelatedness(kb, x, z), 0.0);
}

TEST(OracleInfluence, TieBreakAscendingUser) {
  kb::Knowledgebase kb;
  kb::EntityId e = kb.AddEntity("e", kb::EntityCategory::kPerson, {});
  kb::EntityId f = kb.AddEntity("f", kb::EntityCategory::kPerson, {});
  kb.AddSurfaceForm("e", e, 1);
  kb.AddSurfaceForm("f", f, 1);
  kb.Finalize();
  kb::ComplementedKnowledgebase ckb(&kb);
  // Users 7 and 3 tie with two tweets each; user 5 trails with one. A
  // second candidate (with a disjoint community) keeps the tf-idf
  // discriminativeness of e's users positive — in a single-candidate
  // context every influence degenerates to idf = log(1/1) = 0.
  ckb.AddLink(e, kb::Posting{1, 7, 100});
  ckb.AddLink(e, kb::Posting{2, 3, 110});
  ckb.AddLink(e, kb::Posting{3, 5, 120});
  ckb.AddLink(e, kb::Posting{4, 7, 130});
  ckb.AddLink(e, kb::Posting{5, 3, 140});
  ckb.AddLink(f, kb::Posting{6, 9, 150});
  ckb.AddLink(f, kb::Posting{7, 9, 160});

  const std::vector<kb::EntityId> cands = {e, f};
  auto top =
      OracleTopInfluential(ckb, e, cands, 0, social::InfluenceMethod::kTfIdf);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].user, 3u);  // tie with 7 broken by ascending id
  EXPECT_EQ(top[1].user, 7u);
  EXPECT_EQ(top[2].user, 5u);
  EXPECT_DOUBLE_EQ(top[0].influence, top[1].influence);
  EXPECT_LT(top[2].influence, top[1].influence);

  auto top2 =
      OracleTopInfluential(ckb, e, cands, 2, social::InfluenceMethod::kTfIdf);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].user, 3u);
  EXPECT_EQ(top2[1].user, 7u);
}

// Two entities sharing three co-citing articles: one two-member cluster.
struct TwoEntityClusterWorld {
  kb::Knowledgebase kb;
  kb::EntityId x = 0, y = 0;

  TwoEntityClusterWorld() {
    x = kb.AddEntity("x", kb::EntityCategory::kPerson, {});
    y = kb.AddEntity("y", kb::EntityCategory::kPerson, {});
    kb.AddSurfaceForm("xx", x, 1);
    kb.AddSurfaceForm("yy", y, 1);
    for (int i = 0; i < 3; ++i) {
      kb::EntityId a = kb.AddEntity("a" + std::to_string(i),
                                    kb::EntityCategory::kMovieMusic, {});
      kb.AddHyperlink(a, x);
      kb.AddHyperlink(a, y);
    }
    kb.Finalize();
  }
};

TEST(OraclePropagation, LambdaOneKeepsRawMassAndZeroMassShortCircuits) {
  TwoEntityClusterWorld w;
  recency::PropagationNetwork network =
      recency::PropagationNetwork::Build(w.kb, 0.5);
  const uint32_t cluster = network.Cluster(w.x);
  ASSERT_EQ(network.Cluster(w.y), cluster);
  ASSERT_EQ(network.ClusterMembers(cluster).size(), 2u);

  kb::ComplementedKnowledgebase ckb(&w.kb);
  for (int i = 0; i < 4; ++i)
    ckb.AddLink(w.x, kb::Posting{static_cast<kb::TweetId>(i), 0, 100 + i});
  for (int i = 0; i < 8; ++i)
    ckb.AddLink(w.y,
                kb::Posting{static_cast<kb::TweetId>(100 + i), 1, 100 + i});

  OracleRecencySource source(&ckb, /*tau=*/1000, /*theta1=*/1);
  recency::PropagatorOptions po;
  po.lambda = 1.0;  // S^i = S^0 exactly, every iteration
  po.max_iterations = 6;
  po.convergence_epsilon = 0.0;
  std::vector<double> v =
      OraclePropagateCluster(network, source, cluster, /*now=*/200, po);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[network.MemberIndex(w.x)], 4.0);
  EXPECT_DOUBLE_EQ(v[network.MemberIndex(w.y)], 8.0);

  // Empty window: the all-zero initial vector short-circuits.
  std::vector<double> zeros =
      OraclePropagateCluster(network, source, cluster, /*now=*/10'000'000, po);
  EXPECT_EQ(zeros, (std::vector<double>{0.0, 0.0}));
}

// ===========================================================================
// Appendix-D rejection semantics across every reachability backend.
// ===========================================================================

// The core_test Fig.-1 world, extended with every production reachability
// backend plus the oracle, so Appendix-D semantics can be asserted to be
// backend-independent.
class BackendFixture : public ::testing::Test {
 protected:
  BackendFixture() {
    player_ = kb_.AddEntity("player", kb::EntityCategory::kPerson,
                            {"basketball", "nba"});
    expert_ = kb_.AddEntity("expert", kb::EntityCategory::kPerson,
                            {"machine", "learning"});
    bulls_ = kb_.AddEntity("bulls", kb::EntityCategory::kCompany,
                           {"basketball", "team"});
    nba_ = kb_.AddEntity("nba", kb::EntityCategory::kCompany,
                         {"basketball", "league"});
    icml_ = kb_.AddEntity("icml", kb::EntityCategory::kCompany,
                          {"machine", "learning"});
    kb_.AddSurfaceForm("jordan", player_, 100);
    kb_.AddSurfaceForm("jordan", expert_, 10);
    kb_.AddSurfaceForm("bulls", bulls_, 50);
    kb_.AddSurfaceForm("nba", nba_, 50);
    kb_.AddSurfaceForm("icml", icml_, 20);
    for (int i = 0; i < 4; ++i) {
      kb::EntityId a = kb_.AddEntity("art" + std::to_string(i),
                                     kb::EntityCategory::kMovieMusic, {});
      kb_.AddHyperlink(a, player_);
      kb_.AddHyperlink(a, bulls_);
      kb_.AddHyperlink(a, nba_);
    }
    kb_.Finalize();

    ckb_ = std::make_unique<kb::ComplementedKnowledgebase>(&kb_);
    for (int i = 0; i < 10; ++i) {
      ckb_->AddLink(player_,
                    kb::Posting{static_cast<kb::TweetId>(i), 1, i * 100});
    }
    for (int i = 0; i < 4; ++i) {
      ckb_->AddLink(expert_, kb::Posting{static_cast<kb::TweetId>(100 + i),
                                         2, i * 100});
    }

    // 0 follows the basketball hub 1; user 5 follows nobody and belongs
    // to no community, so every reachability score from 5 is 0.
    graph::GraphBuilder b(6);
    b.AddEdge(0, 1);
    b.AddEdge(3, 2);
    b.AddEdge(4, 1);
    b.AddEdge(4, 2);
    graph_ = std::move(b).Build();

    naive_ = std::make_unique<reach::NaiveReachability>(&graph_, 5);
    tc_ = std::make_unique<reach::TransitiveClosureIndex>(
        reach::TransitiveClosureIndex::Build(
            &graph_, 5, reach::TransitiveClosureIndex::Construction::
                            kIncremental));
    two_hop_ = std::make_unique<reach::TwoHopIndex>(
        reach::TwoHopIndex::Build(&graph_, 5));
    pruned_ = std::make_unique<reach::PrunedOnlineSearch>(
        reach::PrunedOnlineSearch::Build(&graph_, 5, 3, /*seed=*/123));
    cached_ = std::make_unique<reach::CachedReachability>(naive_.get(),
                                                          &graph_);
    oracle_ = std::make_unique<OracleReachability>(&graph_, 5);
    network_ = std::make_unique<recency::PropagationNetwork>(
        recency::PropagationNetwork::Build(kb_, 0.3));

    backends_ = {naive_.get(),   tc_.get(),     two_hop_.get(),
                 pruned_.get(),  cached_.get(), oracle_.get()};
  }

  core::EntityLinker MakeLinker(const reach::WeightedReachability* reach,
                                const core::LinkerOptions& options) {
    return core::EntityLinker(&kb_, ckb_.get(), reach, network_.get(),
                              options);
  }

  static core::LinkerOptions RejectOptions() {
    core::LinkerOptions options;
    options.theta1 = 3;
    options.tau = 500;
    options.reject_below_interest_threshold = true;
    return options;
  }

  kb::Knowledgebase kb_;
  std::unique_ptr<kb::ComplementedKnowledgebase> ckb_;
  graph::DirectedGraph graph_;
  std::unique_ptr<reach::NaiveReachability> naive_;
  std::unique_ptr<reach::TransitiveClosureIndex> tc_;
  std::unique_ptr<reach::TwoHopIndex> two_hop_;
  std::unique_ptr<reach::PrunedOnlineSearch> pruned_;
  std::unique_ptr<reach::CachedReachability> cached_;
  std::unique_ptr<OracleReachability> oracle_;
  std::unique_ptr<recency::PropagationNetwork> network_;
  std::vector<const reach::WeightedReachability*> backends_;
  kb::EntityId player_, expert_, bulls_, nba_, icml_;
};

TEST_F(BackendFixture, EmptyCandidateSetIsNotProbableNewEntity) {
  for (const auto* backend : backends_) {
    core::EntityLinker linker = MakeLinker(backend, RejectOptions());
    core::MentionLinkResult r = linker.LinkMention("zzzz", 0, 10000);
    EXPECT_FALSE(r.linked()) << backend->Name();
    // No candidates at all is "nothing to say", not "new entity".
    EXPECT_FALSE(r.probable_new_entity) << backend->Name();
  }
}

TEST_F(BackendFixture, AllCandidatesRejectedFlagsProbableNewEntity) {
  // User 5 follows nobody (and is in no community — a community member
  // would reach itself with R(u, u) = 1), and the query time is far past
  // every posting: interest and recency are 0 for both meanings of
  // "jordan", so each score is at most gamma < beta + gamma and
  // Appendix D suppresses all.
  for (const auto* backend : backends_) {
    for (bool use_index : {true, false}) {
      core::LinkerOptions options = RejectOptions();
      options.use_influential_index = use_index;
      core::EntityLinker linker = MakeLinker(backend, options);
      core::MentionLinkResult r = linker.LinkMention("jordan", 5, 10000);
      EXPECT_FALSE(r.linked()) << backend->Name();
      EXPECT_TRUE(r.probable_new_entity) << backend->Name();
    }
  }
}

TEST_F(BackendFixture, ScoreExactlyAtThresholdIsRejected) {
  // Single candidate with all the popularity mass: score == gamma * 1
  // exactly, and with beta = 0 the Appendix-D cut is score <= gamma —
  // the knife edge must reject (the paper's "at most beta + gamma").
  for (int i = 0; i < 3; ++i) {
    ckb_->AddLink(nba_,
                  kb::Posting{static_cast<kb::TweetId>(200 + i), 3, i * 100});
  }
  core::LinkerOptions options = RejectOptions();
  options.alpha = 0.7;
  options.beta = 0.0;
  options.gamma = 0.3;
  for (const auto* backend : backends_) {
    core::EntityLinker linker = MakeLinker(backend, options);
    core::MentionLinkResult r = linker.LinkMention("nba", 1, 10000);
    EXPECT_FALSE(r.linked()) << backend->Name();
    EXPECT_TRUE(r.probable_new_entity) << backend->Name();

    core::LinkerOptions keep = options;
    keep.reject_below_interest_threshold = false;
    core::EntityLinker accepting = MakeLinker(backend, keep);
    core::MentionLinkResult kept = accepting.LinkMention("nba", 1, 10000);
    ASSERT_TRUE(kept.linked()) << backend->Name();
    EXPECT_DOUBLE_EQ(kept.ranked[0].score, 0.3) << backend->Name();
  }
}

TEST_F(BackendFixture, AcceptedResultsAgreeAcrossBackends) {
  const core::LinkerOptions options = RejectOptions();
  core::EntityLinker reference = MakeLinker(naive_.get(), options);
  core::MentionLinkResult expected = reference.LinkMention("jordan", 0, 10000);
  ASSERT_TRUE(expected.linked());
  EXPECT_EQ(expected.best(), player_);
  ASSERT_EQ(expected.ranked.size(), 1u);  // "expert" rejected
  EXPECT_FALSE(expected.probable_new_entity);

  for (const auto* backend : backends_) {
    core::EntityLinker linker = MakeLinker(backend, options);
    core::MentionLinkResult r = linker.LinkMention("jordan", 0, 10000);
    ASSERT_TRUE(r.linked()) << backend->Name();
    ASSERT_EQ(r.ranked.size(), expected.ranked.size()) << backend->Name();
    EXPECT_EQ(r.ranked[0].entity, expected.ranked[0].entity)
        << backend->Name();
    // The transitive closure stores float scores; every other backend
    // (including the forward-BFS oracle adapter, which feeds the exact
    // same integers into reach::WeightedScore) is bitwise identical.
    const double tol = backend == tc_.get() ? 1e-6 : 0.0;
    EXPECT_NEAR(r.ranked[0].score, expected.ranked[0].score, tol)
        << backend->Name();
    EXPECT_NEAR(r.ranked[0].interest, expected.ranked[0].interest, tol)
        << backend->Name();
  }

  // The fully independent oracle pipeline lands on the same result.
  core::MentionLinkResult oracle_result =
      OracleLinkMention(kb_, *ckb_, *network_, *oracle_, "jordan", 0, 10000,
                        options);
  ASSERT_EQ(oracle_result.ranked.size(), expected.ranked.size());
  EXPECT_EQ(oracle_result.ranked[0].entity, expected.ranked[0].entity);
  EXPECT_NEAR(oracle_result.ranked[0].score, expected.ranked[0].score, 1e-9);
}

// ===========================================================================
// The randomized differential sweep. MEL_DIFF_CASES overrides the total
// case count (split across the shards so ctest -j runs them in parallel).
// ===========================================================================

constexpr uint32_t kNumShards = 4;
constexpr uint64_t kSeedBase = 0xD1FFC0DE00000000ull;

uint32_t TotalDiffCases() {
  if (const char* env = std::getenv("MEL_DIFF_CASES")) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<uint32_t>(parsed);
  }
  return 200;
}

void RunShard(uint32_t shard) {
  const uint32_t total = TotalDiffCases();
  const uint32_t count =
      total / kNumShards + (shard < total % kNumShards ? 1 : 0);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t seed = kSeedBase + shard + i * kNumShards;
    DiffReport report = RunDifferentialCase(seed);
    ASSERT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.checks, 0u);
  }
}

TEST(DifferentialShards, Shard0) { RunShard(0); }
TEST(DifferentialShards, Shard1) { RunShard(1); }
TEST(DifferentialShards, Shard2) { RunShard(2); }
TEST(DifferentialShards, Shard3) { RunShard(3); }

// Mutation sweep: the same differential harness with interleaved graph
// mutations and tweet ingestion, so every case also replays its event
// stream through reach::ReachMaintainer and exact-checks the patched
// indexes against from-scratch rebuilds at randomized checkpoints
// (CheckIncrementalMaintenance). Queries are trimmed to keep the per-case
// budget on the incremental checks. Shares the MEL_DIFF_CASES override.
constexpr uint64_t kMutationSeedBase = 0xD1FFC0DE80000000ull;

void RunMutationShard(uint32_t shard) {
  const uint32_t total = TotalDiffCases();
  const uint32_t count =
      total / kNumShards + (shard < total % kNumShards ? 1 : 0);
  RandomWorkloadOptions wopts;
  wopts.num_queries = 8;
  wopts.num_feedback_events = 4;
  wopts.num_mutation_events = 16;
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t seed = kMutationSeedBase + shard + i * kNumShards;
    DiffReport report = RunDifferentialCase(seed, wopts);
    ASSERT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.checks, 0u);
  }
}

TEST(MutationSweep, Shard0) { RunMutationShard(0); }
TEST(MutationSweep, Shard1) { RunMutationShard(1); }
TEST(MutationSweep, Shard2) { RunMutationShard(2); }
TEST(MutationSweep, Shard3) { RunMutationShard(3); }

TEST(DifferentialShards, WorkloadIsBitReproducible) {
  RandomWorkload a = MakeRandomWorkload(0xFEEDFACEull);
  RandomWorkload b = MakeRandomWorkload(0xFEEDFACEull);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].mention, b.queries[i].mention);
    EXPECT_EQ(a.queries[i].user, b.queries[i].user);
    EXPECT_EQ(a.queries[i].now, b.queries[i].now);
  }
  EXPECT_EQ(a.linker.alpha, b.linker.alpha);
  EXPECT_EQ(a.linker.tau, b.linker.tau);
  EXPECT_EQ(a.complement_seed, b.complement_seed);
  EXPECT_EQ(a.feedback.size(), b.feedback.size());

  RandomWorkload c = MakeRandomWorkload(0xFEEDFACFull);
  EXPECT_NE(a.linker.alpha, c.linker.alpha);  // streams actually differ
}

// Mutation events draw from their own DeriveSeed stream: enabling them
// must leave every pre-existing workload field bit-identical (pre-PR
// seeds replay unchanged), and the default workload carries none.
TEST(DifferentialShards, MutationEventsDoNotPerturbOtherStreams) {
  RandomWorkload plain = MakeRandomWorkload(0xFEEDFACEull);
  EXPECT_TRUE(plain.mutations.empty());

  RandomWorkloadOptions mo;
  mo.num_mutation_events = 12;
  RandomWorkload with = MakeRandomWorkload(0xFEEDFACEull, mo);
  ASSERT_EQ(with.mutations.size(), 12u);

  ASSERT_EQ(plain.queries.size(), with.queries.size());
  for (size_t i = 0; i < plain.queries.size(); ++i) {
    EXPECT_EQ(plain.queries[i].mention, with.queries[i].mention);
    EXPECT_EQ(plain.queries[i].user, with.queries[i].user);
    EXPECT_EQ(plain.queries[i].now, with.queries[i].now);
  }
  ASSERT_EQ(plain.feedback.size(), with.feedback.size());
  for (size_t i = 0; i < plain.feedback.size(); ++i) {
    EXPECT_EQ(plain.feedback[i].entity, with.feedback[i].entity);
    EXPECT_EQ(plain.feedback[i].tweet.id, with.feedback[i].tweet.id);
  }
  EXPECT_EQ(plain.linker.alpha, with.linker.alpha);
  EXPECT_EQ(plain.linker.tau, with.linker.tau);
  EXPECT_EQ(plain.complement_seed, with.complement_seed);
  EXPECT_EQ(plain.max_hops, with.max_hops);

  // Every edge event is effective at its position: replaying the stream
  // against a live graph copy never no-ops.
  graph::DirectedGraph live = with.world.social.graph;
  for (const MutationEvent& ev : with.mutations) {
    if (ev.kind == MutationEvent::Kind::kAddEdge) {
      EXPECT_TRUE(live.InsertEdge(ev.u, ev.v));
    } else if (ev.kind == MutationEvent::Kind::kRemoveEdge) {
      EXPECT_TRUE(live.EraseEdge(ev.u, ev.v));
    } else {
      EXPECT_LT(ev.entity, with.world.kb().num_entities());
    }
  }
}

TEST(DifferentialShards, ExportsMetrics) {
  auto& reg = metrics::Registry();
  metrics::Counter* cases = reg.GetCounter("testing.diff.cases_total");
  metrics::Counter* checks = reg.GetCounter("testing.diff.checks_total");
  metrics::Counter* divergences =
      reg.GetCounter("testing.diff.divergences_total");
  const uint64_t cases_before = cases->Value();
  const uint64_t checks_before = checks->Value();
  const uint64_t divergences_before = divergences->Value();

  RandomWorkloadOptions wopts;
  wopts.num_queries = 4;
  wopts.num_feedback_events = 2;
  DiffReport report = RunDifferentialCase(0xC0FFEEull, wopts);
  EXPECT_TRUE(report.ok()) << report.Summary();

  EXPECT_EQ(cases->Value(), cases_before + 1);
  EXPECT_EQ(checks->Value(), checks_before + report.checks);
  EXPECT_EQ(divergences->Value(), divergences_before);  // the case passed
}

// ===========================================================================
// Concurrency: ConfirmLink epoch bumps racing against readers that score
// through the recency cache. Run under TSan by scripts/verify.sh.
// ===========================================================================

// Every value the cache may legally serve for a reader that observed
// count c_before before the call and c_after after it is the propagation
// of SOME count in [c_before, c_after]. A stale Eq.-11 vector (cache not
// invalidated on an epoch bump) propagates an older, smaller count and
// violates the lower bound.
TEST(DifferentialConcurrency, RecencyCacheNeverServesStaleEpoch) {
  constexpr uint32_t kSeedPostings = 4;
  constexpr uint32_t kWriters = 4;
  constexpr uint32_t kWritesPerThread = 250;
  constexpr uint32_t kReaders = 4;
  constexpr kb::Timestamp kNow = 500000;
  constexpr kb::Timestamp kTau = 1 << 20;

  TwoEntityClusterWorld w;
  recency::PropagationNetwork network =
      recency::PropagationNetwork::Build(w.kb, 0.5);
  const uint32_t cluster = network.Cluster(w.x);
  ASSERT_EQ(network.Cluster(w.y), cluster);
  const uint32_t idx_x = network.MemberIndex(w.x);

  recency::PropagatorOptions po;
  po.lambda = 0.5;
  po.max_iterations = 20;
  po.convergence_epsilon = 0.0;
  po.enable_cache = true;

  auto seed_ckb = [&](kb::ComplementedKnowledgebase* ckb) {
    for (uint32_t i = 0; i < kSeedPostings; ++i)
      ckb->AddLink(w.x, kb::Posting{i, 0, 1000 + i});
    for (uint32_t i = 0; i < 8; ++i)
      ckb->AddLink(w.y, kb::Posting{100 + i, 1, 1000 + i});
  };

  // Expected values, one per possible count of x-postings, computed by
  // the production power iteration itself (bitwise-reproducible: same
  // masses, same code). y's mass stays fixed at 8 throughout.
  const uint32_t max_count = kSeedPostings + kWriters * kWritesPerThread;
  std::vector<double> expected;
  expected.reserve(max_count - kSeedPostings + 1);
  {
    kb::ComplementedKnowledgebase ref_ckb(&w.kb);
    seed_ckb(&ref_ckb);
    recency::SlidingWindowRecency ref_window(&ref_ckb, kTau, /*theta1=*/1);
    recency::PropagatorOptions ref_po = po;
    ref_po.enable_cache = false;
    recency::RecencyPropagator ref_prop(&network, &ref_window, ref_po);
    for (uint32_t c = kSeedPostings; c <= max_count; ++c) {
      expected.push_back(ref_prop.PropagateCluster(cluster, kNow)[idx_x]);
      ref_ckb.AddLink(w.x, kb::Posting{1000000 + c, 0,
                                       static_cast<kb::Timestamp>(2000 + c)});
    }
    // Monotone in the mass, so the range check below is meaningful.
    for (size_t i = 1; i < expected.size(); ++i)
      ASSERT_GT(expected[i], expected[i - 1]);
  }

  kb::ComplementedKnowledgebase ckb(&w.kb);
  seed_ckb(&ckb);
  recency::SlidingWindowRecency window(&ckb, kTau, /*theta1=*/1);
  SynchronizedRecencySource sync(&window);
  recency::RecencyPropagator prop(&network, &sync, po);

  std::atomic<uint32_t> writers_done{0};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> reads{0};
  // Advanced only under the exclusive lock so posting times are strictly
  // increasing (the posting lists never go dirty, and the monotone-count
  // invariant holds).
  uint64_t write_seq = 0;

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        sync.Mutate([&] {
          const uint64_t seq = write_seq++;
          ckb.AddLink(w.x,
                      kb::Posting{static_cast<kb::TweetId>(10000 + seq), 0,
                                  static_cast<kb::Timestamp>(2000 + seq)});
        });
      }
      writers_done.fetch_add(1);
    });
  }
  for (uint32_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      do {
        const uint32_t before = sync.RecentCount(w.x, kNow);
        const double served = prop.PropagateCluster(cluster, kNow)[idx_x];
        const uint32_t after = sync.RecentCount(w.x, kNow);
        bool found = false;
        for (uint32_t c = before; c <= after && !found; ++c) {
          found = expected[c - kSeedPostings] == served;
        }
        if (!found) violations.fetch_add(1);
        reads.fetch_add(1);
      } while (writers_done.load() < kWriters);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(ckb.RecentTweetCount(w.x, kNow, kTau), max_count);
  // A fresh read after the last write serves the final value exactly.
  EXPECT_EQ(prop.PropagateCluster(cluster, kNow)[idx_x], expected.back());
}

// Whole-linker variant: LinkMention under a reader lock races ConfirmLink
// under the writer lock; afterwards the feedback is fully absorbed.
TEST(DifferentialConcurrency, LinkerAbsorbsFeedbackUnderSharedLock) {
  constexpr uint32_t kConfirms = 200;
  constexpr uint32_t kReaders = 3;
  constexpr kb::Timestamp kNow = 100000;

  TwoEntityClusterWorld w;
  recency::PropagationNetwork network =
      recency::PropagationNetwork::Build(w.kb, 0.5);
  graph::GraphBuilder b(3);
  b.AddEdge(2, 0);
  graph::DirectedGraph graph = std::move(b).Build();
  reach::NaiveReachability reach(&graph, 5);

  kb::ComplementedKnowledgebase ckb(&w.kb);
  for (uint32_t i = 0; i < 5; ++i)
    ckb.AddLink(w.x, kb::Posting{i, 0, 1000 + i});

  core::LinkerOptions options;
  options.theta1 = 1;
  options.tau = 1 << 20;
  // The influential-user index is only safe between mutations (the WarmUp
  // contract); this test mutates continuously, so it stays off and the
  // online influence path runs instead.
  options.use_influential_index = false;
  core::EntityLinker linker(&w.kb, &ckb, &reach, &network, options);

  std::shared_mutex mu;
  // glibc's rwlock prefers readers: three readers re-taking `mu` in a
  // tight loop leave the writer about two confirms per second under ASan
  // (82 s for the 200). The writer holds this turnstile while it waits
  // for and holds the exclusive lock, and readers pass through it before
  // taking the shared lock, so new readers queue behind a waiting writer.
  std::mutex turnstile;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> unlinked{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint32_t i = 0; i < kConfirms; ++i) {
      {
        std::lock_guard gate(turnstile);
        std::unique_lock lock(mu);
        kb::Tweet tweet;
        tweet.id = 1000 + i;
        tweet.user = 0;
        tweet.time = static_cast<kb::Timestamp>(2000 + i);
        linker.ConfirmLink(w.x, tweet);
      }
      // std::mutex does not queue fairly, so the writer would otherwise
      // re-take the turnstile at once and the readers would barely run;
      // let kReaders more reads see this state before the next confirm.
      const uint64_t seen = reads.load();
      while (reads.load() < seen + kReaders) std::this_thread::yield();
    }
    done.store(true);
  });
  for (uint32_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      do {
        { std::lock_guard gate(turnstile); }
        std::shared_lock lock(mu);
        core::MentionLinkResult r = linker.LinkMention("xx", 2, kNow);
        if (!r.linked() || r.best() != w.x) unlinked.fetch_add(1);
        reads.fetch_add(1);
      } while (!done.load());
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(unlinked.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(ckb.LinkedTweetCount(w.x), 5 + kConfirms);
  core::MentionLinkResult settled = linker.LinkMention("xx", 2, kNow);
  ASSERT_TRUE(settled.linked());
  EXPECT_EQ(settled.best(), w.x);
}

}  // namespace
}  // namespace mel::testing
