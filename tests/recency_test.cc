#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "recency/burst_tracker.h"
#include "recency/propagation_network.h"
#include "recency/recency_propagator.h"
#include "recency/sliding_window.h"
#include "testing/oracle.h"
#include "testing/random_workload.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mel::recency {
namespace {

// Fig. 3 style world: a basketball cluster {player, bulls, nba} and an ML
// cluster {expert, icml}; "jordan" is ambiguous between player and expert
// (so they must never be directly connected in the propagation network).
class RecencyFixture : public ::testing::Test {
 protected:
  RecencyFixture() {
    player_ = kb_.AddEntity("player", kb::EntityCategory::kPerson, {});
    expert_ = kb_.AddEntity("expert", kb::EntityCategory::kPerson, {});
    bulls_ = kb_.AddEntity("bulls", kb::EntityCategory::kCompany, {});
    nba_ = kb_.AddEntity("nba", kb::EntityCategory::kCompany, {});
    icml_ = kb_.AddEntity("icml", kb::EntityCategory::kCompany, {});
    for (int i = 0; i < 5; ++i) {
      // Five "article" entities co-citing the basketball cluster.
      kb::EntityId a = kb_.AddEntity("art" + std::to_string(i),
                                     kb::EntityCategory::kMovieMusic, {});
      kb_.AddHyperlink(a, player_);
      kb_.AddHyperlink(a, bulls_);
      kb_.AddHyperlink(a, nba_);
    }
    for (int i = 0; i < 5; ++i) {
      kb::EntityId a = kb_.AddEntity("ml" + std::to_string(i),
                                     kb::EntityCategory::kMovieMusic, {});
      kb_.AddHyperlink(a, expert_);
      kb_.AddHyperlink(a, icml_);
    }
    kb_.AddSurfaceForm("jordan", player_, 10);
    kb_.AddSurfaceForm("jordan", expert_, 5);
    kb_.Finalize();
    ckb_ = std::make_unique<kb::ComplementedKnowledgebase>(&kb_);
  }

  void Burst(kb::EntityId e, kb::Timestamp around, int count) {
    for (int i = 0; i < count; ++i) {
      ckb_->AddLink(e, kb::Posting{next_tweet_++, 1, around + i});
    }
  }

  kb::Knowledgebase kb_;
  std::unique_ptr<kb::ComplementedKnowledgebase> ckb_;
  kb::EntityId player_, expert_, bulls_, nba_, icml_;
  kb::TweetId next_tweet_ = 0;
};

// ---------------------------------------------------------------- window

TEST_F(RecencyFixture, BurstMassRespectsThreshold) {
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  Burst(player_, 1000, 4);  // below theta1 = 5
  EXPECT_EQ(window.RecentCount(player_, 1050), 4u);
  EXPECT_DOUBLE_EQ(window.BurstMass(player_, 1050), 0.0);
  Burst(player_, 1010, 3);  // now 7 in window
  EXPECT_DOUBLE_EQ(window.BurstMass(player_, 1050), 7.0);
}

TEST_F(RecencyFixture, WindowSlidesPastOldTweets) {
  SlidingWindowRecency window(ckb_.get(), 100, 1);
  Burst(player_, 0, 10);
  EXPECT_EQ(window.RecentCount(player_, 50), 10u);
  EXPECT_EQ(window.RecentCount(player_, 500), 0u);
}

TEST_F(RecencyFixture, ScoresNormalizedOverCandidates) {
  SlidingWindowRecency window(ckb_.get(), 100, 2);
  Burst(player_, 1000, 6);
  Burst(expert_, 1000, 2);
  std::vector<kb::EntityId> candidates = {player_, expert_};
  auto scores = window.Scores(candidates, 1050);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_DOUBLE_EQ(scores[0], 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(scores[1], 2.0 / 8.0);
}

TEST_F(RecencyFixture, SubThresholdCandidateScoresZeroButFeedsDenominator) {
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  Burst(player_, 1000, 6);
  Burst(expert_, 1000, 2);  // below threshold
  auto scores = window.Scores({{player_, expert_}}, 1050);
  EXPECT_DOUBLE_EQ(scores[0], 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

TEST_F(RecencyFixture, NoRecentTweetsAllZero) {
  SlidingWindowRecency window(ckb_.get(), 100, 1);
  auto scores = window.Scores({{player_, expert_}}, 123456);
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

// --------------------------------------------------------------- network

TEST_F(RecencyFixture, ClustersFollowTopicStructure) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  // Basketball trio share a cluster; ML pair share another; the two
  // differ.
  EXPECT_EQ(net.Cluster(player_), net.Cluster(bulls_));
  EXPECT_EQ(net.Cluster(bulls_), net.Cluster(nba_));
  EXPECT_EQ(net.Cluster(expert_), net.Cluster(icml_));
  EXPECT_NE(net.Cluster(player_), net.Cluster(expert_));
  EXPECT_GT(net.num_edges(), 0u);
  EXPECT_GE(net.MaxClusterSize(), 3u);
}

TEST_F(RecencyFixture, SameMentionCandidatesNeverConnected) {
  // Even with threshold 0 (accept any positive relatedness), player_ and
  // expert_ must not be adjacent: both are candidates of "jordan".
  auto net = PropagationNetwork::Build(kb_, 0.01);
  for (const auto& edge : net.Neighbors(player_)) {
    EXPECT_NE(edge.target, expert_);
  }
  for (const auto& edge : net.Neighbors(expert_)) {
    EXPECT_NE(edge.target, player_);
  }
}

TEST_F(RecencyFixture, HighThresholdPrunesAllEdges) {
  auto net = PropagationNetwork::Build(kb_, 1.01);
  EXPECT_EQ(net.num_edges(), 0u);
  EXPECT_EQ(net.num_clusters(), kb_.num_entities());
  EXPECT_EQ(net.MaxClusterSize(), 1u);
}

TEST_F(RecencyFixture, ProbabilitiesRowNormalized) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  for (kb::EntityId e = 0; e < kb_.num_entities(); ++e) {
    auto nbrs = net.Neighbors(e);
    if (nbrs.empty()) continue;
    double total = 0;
    for (const auto& edge : nbrs) total += edge.probability;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(RecencyFixture, ClusterMembersPartitionEntities) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  size_t total = 0;
  for (uint32_t c = 0; c < net.num_clusters(); ++c) {
    total += net.ClusterMembers(c).size();
    for (kb::EntityId e : net.ClusterMembers(c)) {
      EXPECT_EQ(net.Cluster(e), c);
    }
  }
  EXPECT_EQ(total, kb_.num_entities());
}

// ------------------------------------------------------------ propagator

TEST_F(RecencyFixture, BurstPropagatesWithinCluster) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});

  Burst(nba_, 1000, 20);  // NBA bursts; the player has no burst of his own
  auto scores = propagator.CandidateScores({{player_, expert_}}, 1050,
                                           /*enable_propagation=*/true);
  // Propagation lifts the player above the (silent) expert.
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);

  // Without propagation neither candidate has any burst of its own.
  auto plain = propagator.CandidateScores({{player_, expert_}}, 1050,
                                          /*enable_propagation=*/false);
  EXPECT_DOUBLE_EQ(plain[0], 0.0);
  EXPECT_DOUBLE_EQ(plain[1], 0.0);
}

TEST_F(RecencyFixture, IcmlBurstFavoursExpert) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});
  Burst(icml_, 2000, 15);
  auto scores = propagator.CandidateScores({{player_, expert_}}, 2050, true);
  EXPECT_GT(scores[1], scores[0]);
}

TEST_F(RecencyFixture, LambdaOnePreservesInitialVector) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  PropagatorOptions opts;
  opts.lambda = 1.0;  // no reinforcement at all
  RecencyPropagator propagator(&net, &window, opts);
  Burst(nba_, 1000, 20);
  auto cluster_scores =
      propagator.PropagateCluster(net.Cluster(nba_), 1050);
  auto members = net.ClusterMembers(net.Cluster(nba_));
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i] == nba_) {
      EXPECT_NEAR(cluster_scores[i], 20.0, 1e-9);  // raw burst mass
    } else {
      EXPECT_NEAR(cluster_scores[i], 0.0, 1e-9);
    }
  }
}

TEST_F(RecencyFixture, PropagatedMassStaysFinite) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 1);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});
  Burst(player_, 1000, 10);
  Burst(bulls_, 1000, 10);
  Burst(nba_, 1000, 10);
  auto scores = propagator.PropagateCluster(net.Cluster(nba_), 1050);
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 30.0);  // never exceeds the total injected burst mass
  }
}

TEST_F(RecencyFixture, CandidateScoresNormalized) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 2);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});
  Burst(player_, 1000, 8);
  Burst(expert_, 1000, 4);
  auto scores = propagator.CandidateScores({{player_, expert_}}, 1050, true);
  EXPECT_NEAR(scores[0] + scores[1], 1.0, 1e-9);
  EXPECT_GT(scores[0], scores[1]);
}

// ----------------------------------------------------------------- cache

uint64_t Hits() {
  return metrics::Registry().GetCounter("recency.cache.hits_total")->Value();
}
uint64_t Misses() {
  return metrics::Registry()
      .GetCounter("recency.cache.misses_total")
      ->Value();
}
uint64_t Invalidations() {
  return metrics::Registry()
      .GetCounter("recency.cache.invalidations_total")
      ->Value();
}

TEST_F(RecencyFixture, CacheHitsOnRepeatedQuery) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});
  Burst(nba_, 1000, 20);

  const uint64_t hits0 = Hits(), misses0 = Misses();
  auto first = propagator.PropagateCluster(net.Cluster(nba_), 1050);
  EXPECT_EQ(Misses(), misses0 + 1);
  EXPECT_EQ(Hits(), hits0);
  auto second = propagator.PropagateCluster(net.Cluster(nba_), 1050);
  EXPECT_EQ(Hits(), hits0 + 1);
  EXPECT_EQ(Misses(), misses0 + 1);
  EXPECT_EQ(first, second);
}

TEST_F(RecencyFixture, CacheMissesAfterWindowAdvance) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});
  Burst(nba_, 1000, 20);

  propagator.PropagateCluster(net.Cluster(nba_), 1050);
  const uint64_t misses0 = Misses(), invalidations0 = Invalidations();
  // The sliding window's token is the exact timestamp: a different `now`
  // may change which tweets are inside the window, so it must recompute.
  auto later = propagator.PropagateCluster(net.Cluster(nba_), 1200);
  EXPECT_EQ(Misses(), misses0 + 1);
  EXPECT_EQ(Invalidations(), invalidations0 + 1);
  // 1200 is past the burst's window [1100, 1200): all mass is gone.
  for (double v : later) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(RecencyFixture, CacheInvalidatesAfterConfirmedLinkMutation) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  RecencyPropagator propagator(&net, &window, PropagatorOptions{});
  Burst(nba_, 1000, 20);

  auto before = propagator.PropagateCluster(net.Cluster(nba_), 1050);
  const uint64_t invalidations0 = Invalidations();
  // ConfirmLink-style feedback lands in the complemented KB and bumps its
  // version; the cached vector for the same (cluster, now) must refresh.
  Burst(nba_, 1040, 7);
  auto after = propagator.PropagateCluster(net.Cluster(nba_), 1050);
  EXPECT_EQ(Invalidations(), invalidations0 + 1);
  auto members = net.ClusterMembers(net.Cluster(nba_));
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i] == nba_) {
      EXPECT_GT(after[i], before[i]);
    }
  }
}

TEST_F(RecencyFixture, CachedResultsMatchUncached) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  PropagatorOptions off;
  off.enable_cache = false;
  RecencyPropagator cached(&net, &window, PropagatorOptions{});
  RecencyPropagator uncached(&net, &window, off);
  Burst(nba_, 1000, 20);
  Burst(icml_, 1000, 9);
  for (kb::Timestamp now : {1050, 1060, 1120}) {
    for (uint32_t c = 0; c < net.num_clusters(); ++c) {
      EXPECT_EQ(cached.PropagateCluster(c, now),
                uncached.PropagateCluster(c, now));
      // Repeat hits the cache and must still agree.
      EXPECT_EQ(cached.PropagateCluster(c, now),
                uncached.PropagateCluster(c, now));
    }
  }
}

TEST_F(RecencyFixture, SourcesWithoutEpochBypassTheCache) {
  // A source that cannot track mutations keeps the default kNoEpoch and
  // must never be served from (or populate) the cache.
  struct UntrackedSource : RecencySource {
    uint32_t RecentCount(kb::EntityId, kb::Timestamp) const override {
      return 12;
    }
    double BurstMass(kb::EntityId, kb::Timestamp) const override {
      return 12.0;
    }
  };
  auto net = PropagationNetwork::Build(kb_, 0.3);
  UntrackedSource source;
  RecencyPropagator propagator(&net, &source, PropagatorOptions{});
  const uint64_t hits0 = Hits(), misses0 = Misses();
  propagator.PropagateCluster(net.Cluster(nba_), 1050);
  propagator.PropagateCluster(net.Cluster(nba_), 1050);
  EXPECT_EQ(Hits(), hits0);
  EXPECT_EQ(Misses(), misses0);
}

TEST_F(RecencyFixture, BurstTrackerEpochTracksObservations) {
  BurstTracker tracker(kb_.num_entities(), 100, 10, 5);
  const uint64_t epoch0 = tracker.Epoch();
  tracker.Observe(nba_, 1000);
  EXPECT_EQ(tracker.Epoch(), epoch0 + 1);
  tracker.Observe(nba_, 1001);
  EXPECT_EQ(tracker.Epoch(), epoch0 + 2);
  // A straggler older than the retained window is dropped: no count
  // changes, so the epoch must not move either.
  tracker.Observe(nba_, 0);
  EXPECT_EQ(tracker.Epoch(), epoch0 + 2);
}

TEST_F(RecencyFixture, BurstTrackerWindowTokenIsBucketGranular) {
  BurstTracker tracker(kb_.num_entities(), 100, 10, 5);  // bucket = 10s
  EXPECT_EQ(tracker.WindowToken(1000), tracker.WindowToken(1009));
  EXPECT_NE(tracker.WindowToken(1000), tracker.WindowToken(1010));
  // Queries sharing a token must see identical counts.
  tracker.Observe(nba_, 950);
  EXPECT_EQ(tracker.ApproxRecentCount(nba_, 1000),
            tracker.ApproxRecentCount(nba_, 1009));
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_F(RecencyFixture, BurstTrackerCacheHitsWithinBucket) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  BurstTracker tracker(kb_.num_entities(), 100, 10, 5);
  RecencyPropagator propagator(&net, &tracker, PropagatorOptions{});
  PropagatorOptions off;
  off.enable_cache = false;
  RecencyPropagator uncached(&net, &tracker, off);
  for (int i = 0; i < 20; ++i) tracker.Observe(nba_, 1000);
  const uint32_t cluster = net.Cluster(nba_);

  const uint64_t hits0 = Hits(), misses0 = Misses();
  propagator.PropagateCluster(cluster, 1050);
  // Different `now`, same bucket pair: served from cache.
  propagator.PropagateCluster(cluster, 1055);
  EXPECT_EQ(Misses(), misses0 + 1);
  EXPECT_EQ(Hits(), hits0 + 1);
  // Crossing a bucket boundary changes the token but no count (the burst
  // at 1000 is still inside the window): S_r^0 is unchanged, a hit.
  const auto crossed = propagator.PropagateCluster(cluster, 1061);
  EXPECT_EQ(Misses(), misses0 + 1);
  EXPECT_EQ(Hits(), hits0 + 2);
  EXPECT_TRUE(BitwiseEqual(crossed, uncached.PropagateCluster(cluster, 1061)));
  // Crossing the boundary that ages the burst out changes a count: a miss.
  const auto aged = propagator.PropagateCluster(cluster, 1111);
  EXPECT_EQ(Misses(), misses0 + 2);
  EXPECT_EQ(Hits(), hits0 + 2);
  EXPECT_TRUE(BitwiseEqual(aged, uncached.PropagateCluster(cluster, 1111)));
}

// A seeded stream of queries whose `now` mostly advances but sometimes
// jumps back, with links landing in between (half of them reported to the
// window, half not): the content-keyed cache must agree bit for bit with
// the uncached propagator, and BurstMass with the scan oracle, at every
// step, while still hitting across distinct `now` values.
TEST_F(RecencyFixture, ContentKeyedCacheMatchesUncachedOnSeededStream) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 3);
  PropagatorOptions off;
  off.enable_cache = false;
  RecencyPropagator cached(&net, &window, PropagatorOptions{});
  RecencyPropagator uncached(&net, &window, off);
  Rng rng(41);
  kb::Timestamp now = 1000;
  kb::Timestamp previous = -1;
  uint64_t hits_at_new_now = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.Bernoulli(0.3)) {
      const auto e = static_cast<kb::EntityId>(rng.Uniform(5));  // topical
      ckb_->AddLink(e, kb::Posting{next_tweet_++, 1,
                                   now - rng.UniformInt(0, 150)});
      if (rng.Bernoulli(0.5)) window.OnLinkAdded(e);
    }
    now = rng.Bernoulli(0.1) ? now - rng.UniformInt(0, 200)
                             : now + rng.UniformInt(0, 30);
    for (kb::EntityId e = 0; e < kb_.num_entities(); ++e) {
      ASSERT_EQ(window.BurstMass(e, now),
                testing::OracleBurstMass(*ckb_, e, now, 100, 3))
          << "step " << step << " entity " << e;
    }
    const uint64_t hits0 = Hits();
    for (uint32_t c = 0; c < net.num_clusters(); ++c) {
      ASSERT_TRUE(BitwiseEqual(cached.PropagateCluster(c, now),
                               uncached.PropagateCluster(c, now)))
          << "step " << step << " cluster " << c;
    }
    if (now != previous) hits_at_new_now += Hits() - hits0;
    previous = now;
  }
  EXPECT_GT(hits_at_new_now, 0u);
}

// ------------------------------------------------------------ quiet proof

TEST_F(RecencyFixture, QuietProofWindowIsInclusive) {
  // Two postings exactly tau apart share the window [1000, 1100].
  Burst(player_, 1000, 1);
  Burst(player_, 1100, 1);
  // One tick further apart, no window holds both.
  Burst(expert_, 1000, 1);
  Burst(expert_, 1101, 1);
  SlidingWindowRecency window(ckb_.get(), 100, 2);
  EXPECT_FALSE(window.ProvenQuiet(player_));
  EXPECT_DOUBLE_EQ(window.BurstMass(player_, 1100), 2.0);
  EXPECT_TRUE(window.ProvenQuiet(expert_));
  for (kb::Timestamp now : {1000, 1050, 1100, 1101, 1200}) {
    EXPECT_DOUBLE_EQ(window.BurstMass(expert_, now), 0.0);
  }
  // No postings at all: quiet.
  EXPECT_TRUE(window.ProvenQuiet(nba_));
}

TEST_F(RecencyFixture, QuietProofWithThetaOneNeedsNoPostings) {
  Burst(player_, 1000, 1);
  SlidingWindowRecency window(ckb_.get(), 100, 1);
  // Every single posting is a burst of one.
  EXPECT_FALSE(window.ProvenQuiet(player_));
  EXPECT_DOUBLE_EQ(window.BurstMass(player_, 1050), 1.0);
  EXPECT_DOUBLE_EQ(window.BurstMass(player_, 1101), 0.0);
  EXPECT_TRUE(window.ProvenQuiet(expert_));
  EXPECT_DOUBLE_EQ(window.BurstMass(expert_, 1050), 0.0);
}

TEST_F(RecencyFixture, UnreportedLinkFallsBackToSearch) {
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  ASSERT_TRUE(window.ProvenQuiet(nba_));
  // The CKB gains a burst the window is never told about.
  Burst(nba_, 1000, 6);
  EXPECT_FALSE(window.ProvenQuiet(nba_));
  EXPECT_DOUBLE_EQ(window.BurstMass(nba_, 1050), 6.0);
  EXPECT_DOUBLE_EQ(window.BurstMass(nba_, 2000), 0.0);
}

TEST_F(RecencyFixture, OnLinkAddedEndsQuietWhenABurstForms) {
  Burst(nba_, 1000, 1);
  Burst(nba_, 1200, 1);
  SlidingWindowRecency window(ckb_.get(), 100, 2);
  EXPECT_TRUE(window.ProvenQuiet(nba_));
  // Out of time order, so the posting list must be re-sorted first.
  ckb_->AddLink(nba_, kb::Posting{next_tweet_++, 1, 1150});
  window.OnLinkAdded(nba_);
  EXPECT_FALSE(window.ProvenQuiet(nba_));
  EXPECT_DOUBLE_EQ(window.BurstMass(nba_, 1200), 2.0);
  EXPECT_DOUBLE_EQ(window.BurstMass(nba_, 1250), 2.0);
  EXPECT_DOUBLE_EQ(window.BurstMass(nba_, 1160), 0.0);
  // A link that forms no burst renews the proof at the new count.
  Burst(icml_, 1000, 1);
  window.OnLinkAdded(icml_);
  EXPECT_TRUE(window.ProvenQuiet(icml_));
  Burst(icml_, 1500, 1);
  window.OnLinkAdded(icml_);
  EXPECT_TRUE(window.ProvenQuiet(icml_));
}

// ---------------------------------------------------------- parallel build

TEST_F(RecencyFixture, ParallelNetworkBuildIsByteIdenticalToSerial) {
  util::ThreadPool one(1);
  util::ThreadPool three(3);
  auto serial = PropagationNetwork::Build(kb_, 0.3, &one);
  auto parallel = PropagationNetwork::Build(kb_, 0.3, &three);
  auto shared = PropagationNetwork::Build(kb_, 0.3);
  EXPECT_TRUE(serial.IdenticalTo(parallel));
  EXPECT_TRUE(parallel.IdenticalTo(serial));
  EXPECT_TRUE(serial.IdenticalTo(shared));
}

// FNV-1a over everything a query reads: per entity its cluster, member
// index and neighbour row (target, weight and probability bits), then
// every cluster's member order.
uint64_t NetworkDigest(const PropagationNetwork& net) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (kb::EntityId e = 0; e < net.num_entities(); ++e) {
    const uint32_t head[3] = {net.Cluster(e), net.MemberIndex(e),
                              static_cast<uint32_t>(net.Neighbors(e).size())};
    mix(head, sizeof(head));
    for (const PropagationNetwork::Edge& edge : net.Neighbors(e)) {
      mix(&edge.target, sizeof(edge.target));
      mix(&edge.weight, sizeof(edge.weight));
      mix(&edge.probability, sizeof(edge.probability));
    }
  }
  for (uint32_t c = 0; c < net.num_clusters(); ++c) {
    auto members = net.ClusterMembers(c);
    mix(members.data(), members.size_bytes());
  }
  return h;
}

// Golden digests of networks built by the flat enumerate-then-sort
// construction, so any rewrite of Build must reproduce its bytes. The
// co-citation pair count is pinned alongside.
TEST_F(RecencyFixture, NetworkDigestIsPinned) {
  metrics::Counter* pairs =
      metrics::Registry().GetCounter("recency.network.pairs_total");
  struct Case {
    const kb::Knowledgebase* kb;
    double theta2;
    uint64_t pairs;
    uint64_t digest;
  };
  const testing::RandomWorkload small = testing::MakeRandomWorkload(3);
  testing::RandomWorkloadOptions large_options;
  large_options.scale = 8;
  const testing::RandomWorkload large =
      testing::MakeRandomWorkload(11, large_options);
  const Case cases[] = {
      {&kb_, 0.3, 4, 0x914411d8a66d110eull},
      {&small.world.kb(), small.theta2, 576, 0x2cd1ae345869a818ull},
      {&large.world.kb(), large.theta2, 5391, 0x8dc71bd299d98e06ull},
  };
  for (const Case& c : cases) {
    const uint64_t before = pairs->Value();
    const auto net = PropagationNetwork::Build(*c.kb, c.theta2);
    EXPECT_EQ(pairs->Value() - before, c.pairs);
    EXPECT_EQ(NetworkDigest(net), c.digest);
  }
}

TEST_F(RecencyFixture, ParallelCachedPropagationIsConsistent) {
  auto net = PropagationNetwork::Build(kb_, 0.3);
  SlidingWindowRecency window(ckb_.get(), 100, 5);
  PropagatorOptions off;
  off.enable_cache = false;
  RecencyPropagator cached(&net, &window, PropagatorOptions{});
  RecencyPropagator uncached(&net, &window, off);
  Burst(nba_, 1000, 20);
  Burst(icml_, 1000, 9);
  const uint32_t cluster = net.Cluster(nba_);
  const auto expected = uncached.PropagateCluster(cluster, 1050);

  // Concurrent queries race to fill the same slot; every one of them must
  // observe the fully computed vector.
  util::ThreadPool pool(4);
  std::vector<std::vector<double>> results(64);
  pool.ParallelFor(0, results.size(), 1, [&](size_t i) {
    results[i] = cached.PropagateCluster(cluster, 1050);
  });
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

}  // namespace
}  // namespace mel::recency
