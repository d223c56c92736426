#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "mel.h"

#include "core/parallel_linker.h"
#include "core/personalized_search.h"
#include "eval/harness.h"
#include "eval/runner.h"
#include "eval/weight_learner.h"
#include "gen/workload.h"
#include "social/influential_index.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace mel {
namespace {

class ExtensionsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::HarnessOptions options;
    options.scale = 0.5;
    harness_ = new eval::Harness(options);
  }
  static void TearDownTestSuite() {
    delete harness_;
    harness_ = nullptr;
  }
  static eval::Harness* harness_;
};

eval::Harness* ExtensionsFixture::harness_ = nullptr;

// ------------------------------------------------- influential index

TEST_F(ExtensionsFixture, InfluentialIndexMatchesOnlineComputation) {
  social::InfluenceEstimator online(&harness_->ckb(),
                                    social::InfluenceMethod::kEntropy);
  social::InfluentialUserIndex index(&harness_->ckb(),
                                     social::InfluenceMethod::kEntropy, 5);
  const auto& kb = harness_->kb();
  for (uint32_t sid = 0; sid < std::min<size_t>(kb.surfaces().size(), 50);
       ++sid) {
    auto candidates = kb.CandidatesBySurfaceId(sid);
    std::vector<kb::EntityId> entities;
    for (const auto& c : candidates) entities.push_back(c.entity);
    for (kb::EntityId e : entities) {
      auto expected = online.TopInfluential(e, entities, 5);
      const auto& cached = index.Get(sid, e);
      ASSERT_EQ(expected.size(), cached.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].user, cached[i].user);
        EXPECT_DOUBLE_EQ(expected[i].influence, cached[i].influence);
      }
    }
  }
}

TEST_F(ExtensionsFixture, InfluentialIndexOnLinkAddedRefreshes) {
  kb::ComplementedKnowledgebase fresh(&harness_->kb());
  social::InfluentialUserIndex index(&fresh,
                                     social::InfluenceMethod::kEntropy, 3);
  // An ambiguous surface whose candidates start with empty communities.
  uint32_t sid = harness_->kb().SurfaceId(
      harness_->world().kb_world.ambiguous_surfaces[0]);
  ASSERT_NE(sid, kb::Knowledgebase::kInvalidSurface);
  auto candidates = harness_->kb().CandidatesBySurfaceId(sid);
  ASSERT_GE(candidates.size(), 2u);
  kb::EntityId entity = candidates[0].entity;
  EXPECT_TRUE(index.Get(sid, entity).empty());

  // A new link makes user 7 influential; without OnLinkAdded the cache
  // would still say "empty".
  fresh.AddLink(entity, kb::Posting{1, 7, 100});
  index.OnLinkAdded(entity, 7);
  auto updated = index.Get(sid, entity);
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0].user, 7u);
}

// Confirms a seeded random link sequence through OnLinkAdded and checks
// that every cached (surface, candidate) list is bit-identical to a fresh
// TopInfluential over the same complemented knowledgebase.
class InfluentialIndexExactness : public ExtensionsFixture {
 protected:
  struct Confirm {
    kb::EntityId entity;
    kb::UserId user;
  };

  // A random confirm on a candidate of `sid`. Half the time the author
  // already tweeted about a co-candidate, so cached entries reset; else a
  // random user, usually a first tweet about the entity (a community
  // append).
  Confirm RandomConfirm(const kb::ComplementedKnowledgebase& ckb,
                        uint32_t sid, Rng* rng) const {
    auto candidates = harness_->kb().CandidatesBySurfaceId(sid);
    kb::EntityId entity = candidates[rng->Uniform(candidates.size())].entity;
    auto co = ckb.Community(candidates[rng->Uniform(candidates.size())].entity);
    kb::UserId user;
    if (!co.empty() && rng->Bernoulli(0.5)) {
      user = co[rng->Uniform(co.size())].first;
    } else {
      user = static_cast<kb::UserId>(
          rng->Uniform(harness_->world().corpus.tweets_by_user.size()));
    }
    return Confirm{entity, user};
  }

  static void Apply(const Confirm& c, kb::TweetId tweet,
                    kb::ComplementedKnowledgebase* ckb,
                    social::InfluentialUserIndex* index) {
    ckb->AddLink(c.entity, kb::Posting{tweet, c.user, 1000 + tweet});
    index->OnLinkAdded(c.entity, c.user);
  }

  // Compares through Get, so stale lists take the lazy refill path.
  static void ExpectAllListsExact(const kb::ComplementedKnowledgebase& ckb,
                                  social::InfluenceMethod method,
                                  uint32_t top_k,
                                  social::InfluentialUserIndex* index) {
    social::InfluenceEstimator fresh(&ckb, method);
    const kb::Knowledgebase& kbase = ckb.base();
    size_t mismatches = 0;
    for (uint32_t sid = 0; sid < kbase.surfaces().size(); ++sid) {
      std::vector<kb::EntityId> entities;
      for (const auto& c : kbase.CandidatesBySurfaceId(sid)) {
        entities.push_back(c.entity);
      }
      for (kb::EntityId e : entities) {
        auto expected = fresh.TopInfluential(e, entities, top_k);
        const auto& cached = index->Get(sid, e);
        bool same = expected.size() == cached.size();
        for (size_t i = 0; same && i < expected.size(); ++i) {
          same = expected[i].user == cached[i].user &&
                 std::memcmp(&expected[i].influence, &cached[i].influence,
                             sizeof(double)) == 0;
        }
        mismatches += !same;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }

  void RunSequence(social::InfluenceMethod method, uint32_t top_k) {
    kb::ComplementedKnowledgebase ckb = harness_->ckb();
    social::InfluentialUserIndex index(&ckb, method, top_k);
    const kb::Knowledgebase& kbase = harness_->kb();
    std::vector<uint32_t> ambiguous;
    for (uint32_t sid = 0; sid < kbase.surfaces().size(); ++sid) {
      if (kbase.CandidatesBySurfaceId(sid).size() >= 2) {
        ambiguous.push_back(sid);
      }
    }
    ASSERT_GE(ambiguous.size(), 2u);
    Rng rng(17);
    kb::TweetId tweet = 1u << 30;

    // Fill only even-indexed ambiguous surfaces, then confirm on the
    // odd ones: their entities' other surfaces may be filled or not.
    for (size_t i = 0; i < ambiguous.size(); i += 2) {
      index.Get(ambiguous[i], kbase.CandidatesBySurfaceId(ambiguous[i])[0]
                                  .entity);
    }
    for (int step = 0; step < 50; ++step) {
      uint32_t sid = ambiguous[1 + 2 * rng.Uniform(ambiguous.size() / 2)];
      Apply(RandomConfirm(ckb, sid, &rng), tweet++, &ckb, &index);
    }
    ExpectAllListsExact(ckb, method, top_k, &index);

    // Feedback with the offline refill between rounds (the serving
    // barrier), including a user's first tweet about an entity.
    for (int round = 0; round < 20; ++round) {
      for (int step = 0; step < 10; ++step) {
        uint32_t sid = ambiguous[rng.Uniform(ambiguous.size())];
        Apply(RandomConfirm(ckb, sid, &rng), tweet++, &ckb, &index);
      }
      index.PrecomputeAll();
    }
    uint32_t first_sid = ambiguous[0];
    kb::EntityId first_entity =
        kbase.CandidatesBySurfaceId(first_sid)[0].entity;
    kb::UserId newcomer =
        static_cast<kb::UserId>(harness_->world().corpus.tweets_by_user.size());
    ASSERT_EQ(ckb.UserTweetCount(first_entity, newcomer), 0u);
    Apply(Confirm{first_entity, newcomer}, tweet++, &ckb, &index);
    Apply(Confirm{first_entity, newcomer}, tweet++, &ckb, &index);
    index.PrecomputeAll();
    ExpectAllListsExact(ckb, method, top_k, &index);

    // Lazy lookups with no refill in between: repeated confirms by the
    // same users, each list read right after.
    for (int step = 0; step < 100; ++step) {
      uint32_t sid = ambiguous[rng.Uniform(ambiguous.size())];
      Confirm c = RandomConfirm(ckb, sid, &rng);
      Apply(c, tweet++, &ckb, &index);
      Apply(c, tweet++, &ckb, &index);
      index.Get(sid, c.entity);
    }
    ExpectAllListsExact(ckb, method, top_k, &index);
  }
};

TEST_F(InfluentialIndexExactness, TfIdfMatchesFreshRanking) {
  RunSequence(social::InfluenceMethod::kTfIdf, 5);
}

TEST_F(InfluentialIndexExactness, EntropyMatchesFreshRanking) {
  RunSequence(social::InfluenceMethod::kEntropy, 5);
}

TEST_F(InfluentialIndexExactness, WholeCommunityMatchesFreshRanking) {
  RunSequence(social::InfluenceMethod::kEntropy, 0);
}

// Refill work is deterministic, so it is pinned exactly: discriminativeness
// evaluations for the offline pass plus 200 confirms, refilled after every
// 4 (a serving barrier each). The confirms cost 1392 evaluations.
// Re-evaluating every member of every list on each surface of a confirmed
// entity, as the coarse per-entity invalidation did, cost 53119 for the
// same sequence (61323 in total).
TEST_F(ExtensionsFixture, InfluentialIndexDiscEvalsArePinned) {
  kb::ComplementedKnowledgebase ckb = harness_->ckb();
  social::InfluentialUserIndex index(&ckb, social::InfluenceMethod::kEntropy,
                                     5);
  metrics::Counter* evals = metrics::Registry().GetCounter(
      "social.influential_index.disc_evals_total");
  const uint64_t before = evals->Value();
  index.PrecomputeAll();
  const uint64_t offline = evals->Value() - before;
  const kb::Knowledgebase& kbase = harness_->kb();
  Rng rng(29);
  for (int step = 0; step < 200; ++step) {
    uint32_t sid = static_cast<uint32_t>(rng.Uniform(kbase.surfaces().size()));
    auto candidates = kbase.CandidatesBySurfaceId(sid);
    kb::EntityId entity = candidates[rng.Uniform(candidates.size())].entity;
    auto community = ckb.Community(entity);
    kb::UserId user =
        community.empty() || rng.Bernoulli(0.25)
            ? static_cast<kb::UserId>(rng.Uniform(
                  harness_->world().corpus.tweets_by_user.size()))
            : community[rng.Uniform(community.size())].first;
    ckb.AddLink(entity, kb::Posting{(1u << 30) + step, user, 1000 + step});
    index.OnLinkAdded(entity, user);
    if (step % 4 == 3) index.PrecomputeAll();
  }
  EXPECT_EQ(offline, 8204u);
  EXPECT_EQ(evals->Value() - before, 9596u);
}

// PrecomputeAll fills queued surfaces on a pool; the lists must not
// depend on how many threads filled them. Compared on the cold fill and
// after rounds of confirms whose stale surfaces span several fill grains,
// so refills really run in parallel.
TEST_F(ExtensionsFixture, InfluentialIndexParallelFill) {
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  kb::ComplementedKnowledgebase serial_ckb = harness_->ckb();
  kb::ComplementedKnowledgebase parallel_ckb = harness_->ckb();
  social::InfluentialUserIndex serial(
      &serial_ckb, social::InfluenceMethod::kEntropy, 5);
  social::InfluentialUserIndex parallel(
      &parallel_ckb, social::InfluenceMethod::kEntropy, 5);
  const kb::Knowledgebase& kbase = harness_->kb();
  ASSERT_GT(kbase.surfaces().size(), 64u);

  auto expect_same = [&](const char* phase) {
    size_t mismatches = 0;
    for (uint32_t sid = 0; sid < kbase.surfaces().size(); ++sid) {
      for (const kb::Candidate& c : kbase.CandidatesBySurfaceId(sid)) {
        const auto& a = serial.Get(sid, c.entity);
        const auto& b = parallel.Get(sid, c.entity);
        bool same = a.size() == b.size();
        for (size_t i = 0; same && i < a.size(); ++i) {
          same = a[i].user == b[i].user &&
                 std::memcmp(&a[i].influence, &b[i].influence,
                             sizeof(double)) == 0;
        }
        mismatches += !same;
      }
    }
    EXPECT_EQ(mismatches, 0u) << phase;
  };

  serial.PrecomputeAll(&one);
  parallel.PrecomputeAll(&four);
  expect_same("cold fill");

  metrics::Counter* parallel_regions =
      metrics::Registry().GetCounter("util.pool.parallel_for_total");
  Rng rng(41);
  kb::TweetId tweet = 1u << 30;
  for (int round = 0; round < 4; ++round) {
    for (int step = 0; step < 40; ++step) {
      uint32_t sid =
          static_cast<uint32_t>(rng.Uniform(kbase.surfaces().size()));
      auto candidates = kbase.CandidatesBySurfaceId(sid);
      kb::EntityId entity = candidates[rng.Uniform(candidates.size())].entity;
      auto community = serial_ckb.Community(entity);
      kb::UserId user =
          community.empty() || rng.Bernoulli(0.25)
              ? static_cast<kb::UserId>(rng.Uniform(
                    harness_->world().corpus.tweets_by_user.size()))
              : community[rng.Uniform(community.size())].first;
      const kb::Posting posting{tweet, user, 1000 + tweet};
      ++tweet;
      serial_ckb.AddLink(entity, posting);
      parallel_ckb.AddLink(entity, posting);
      serial.OnLinkAdded(entity, user);
      parallel.OnLinkAdded(entity, user);
    }
    serial.PrecomputeAll(&one);
    const uint64_t regions = parallel_regions->Value();
    parallel.PrecomputeAll(&four);
    // More surfaces than one grain were stale, so the refill opened a
    // parallel region instead of running inline.
    EXPECT_EQ(parallel_regions->Value() - regions, 1u);
    expect_same("after confirms");
  }
}

// Eq.-11 work is deterministic too: power iterations (runs) while the
// linker links the test split's first 300 tweets in time order and every
// fourth mention is confirmed with its true entity, each confirm followed
// by WarmUp (a serving barrier). Keying the memo on (epoch, timestamp)
// alone reran the iteration 1098 times for this sequence; keying it also
// on S_r^0's bits reruns it only when a cluster's burst vector moved.
TEST_F(ExtensionsFixture, RecencyPropagationRunsArePinned) {
  kb::ComplementedKnowledgebase ckb = harness_->ckb();
  core::EntityLinker linker(&harness_->kb(), &ckb, &harness_->reachability(),
                            &harness_->network(),
                            harness_->DefaultLinkerOptions());
  linker.WarmUp();
  metrics::Counter* runs =
      metrics::Registry().GetCounter("recency.propagation.runs_total");
  const uint64_t before = runs->Value();
  const auto& tweets = harness_->world().corpus.tweets;
  const auto& indices = harness_->test_split().tweet_indices;
  uint32_t mentions = 0;
  for (size_t i = 0; i < std::min<size_t>(indices.size(), 300); ++i) {
    const gen::LabeledTweet& lt = tweets[indices[i]];
    for (const gen::LabeledMention& m : lt.mentions) {
      linker.LinkMention(m.surface, lt.tweet.user, lt.tweet.time);
      if (++mentions % 4 == 0) {
        linker.ConfirmLink(m.truth, lt.tweet);
        linker.WarmUp();
      }
    }
  }
  EXPECT_EQ(runs->Value() - before, 168u);
}

TEST_F(ExtensionsFixture, PrecomputeAllFillsEverySurface) {
  social::InfluentialUserIndex index(&harness_->ckb(),
                                     social::InfluenceMethod::kTfIdf, 2);
  EXPECT_EQ(index.CachedEntries(), 0u);
  index.PrecomputeAll();
  EXPECT_GT(index.CachedEntries(), harness_->kb().surfaces().size());
}

// --------------------------------------------------- parallel linking

TEST_F(ExtensionsFixture, ParallelMatchesSequential) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  std::vector<kb::Tweet> batch;
  for (uint32_t ti : harness_->test_split().tweet_indices) {
    batch.push_back(harness_->world().corpus.tweets[ti].tweet);
    if (batch.size() >= 200) break;
  }
  auto sequential = core::LinkTweetsParallel(&linker, batch, 1);
  auto parallel = core::LinkTweetsParallel(&linker, batch, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].mentions.size(), parallel[i].mentions.size());
    for (size_t m = 0; m < sequential[i].mentions.size(); ++m) {
      EXPECT_EQ(sequential[i].mentions[m].best(),
                parallel[i].mentions[m].best());
    }
  }
}

TEST_F(ExtensionsFixture, ParallelMentionRequests) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  std::vector<core::MentionRequest> requests;
  for (uint32_t ti : harness_->test_split().tweet_indices) {
    const auto& lt = harness_->world().corpus.tweets[ti];
    for (const auto& m : lt.mentions) {
      requests.push_back(
          core::MentionRequest{m.surface, lt.tweet.user, lt.tweet.time});
    }
    if (requests.size() >= 100) break;
  }
  auto results = core::LinkMentionsParallel(&linker, requests, 3);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    auto direct = linker.LinkMention(requests[i].surface, requests[i].user,
                                     requests[i].time);
    EXPECT_EQ(results[i].best(), direct.best());
  }
}

TEST(ParallelLinkerTest, EmptyBatch) {
  eval::HarnessOptions options;
  options.scale = 0.3;
  eval::Harness harness(options);
  auto linker = harness.MakeLinker(harness.DefaultLinkerOptions());
  EXPECT_TRUE(core::LinkTweetsParallel(&linker, {}, 4).empty());
}

// ------------------------------------------------- personalized search

TEST_F(ExtensionsFixture, SearchReturnsFreshRelevantTweets) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness_->ckb());

  const auto& surface = harness_->world().kb_world.ambiguous_surfaces[0];
  kb::UserId user = harness_->test_split().users[0];
  kb::Timestamp now = 90 * kb::kSecondsPerDay;

  core::SearchOptions options;
  options.top_k_tweets = 5;
  auto result = search.Query(surface, user, now, options);
  ASSERT_EQ(result.interpretations.size(), 1u);
  EXPECT_TRUE(result.interpretations[0].linked());
  EXPECT_LE(result.hits.size(), 5u);
  EXPECT_FALSE(result.hits.empty());
  for (const auto& hit : result.hits) {
    EXPECT_LE(hit.time, now);  // never from the future
  }
  // Sorted by relevance, ties by freshness.
  for (size_t i = 0; i + 1 < result.hits.size(); ++i) {
    EXPECT_GE(result.hits[i].relevance, result.hits[i + 1].relevance);
  }
}

TEST_F(ExtensionsFixture, SearchFreshnessWindowFilters) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness_->ckb());
  const auto& surface = harness_->world().kb_world.ambiguous_surfaces[0];
  kb::UserId user = harness_->test_split().users[0];
  kb::Timestamp now = 90 * kb::kSecondsPerDay;

  core::SearchOptions narrow;
  narrow.freshness_window = 2 * kb::kSecondsPerDay;
  auto result = search.Query(surface, user, now, narrow);
  for (const auto& hit : result.hits) {
    EXPECT_GE(hit.time, now - narrow.freshness_window);
  }
}

TEST_F(ExtensionsFixture, SearchWithNoMentionsIsEmpty) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness_->ckb());
  auto result =
      search.Query("zzz qqq completely unknown words", 0, 1000, {});
  EXPECT_TRUE(result.interpretations.empty());
  EXPECT_TRUE(result.hits.empty());
}

// ----------------------------------------------------- weight learning

TEST_F(ExtensionsFixture, LearnedWeightsLieOnSimplexAndBeatCorners) {
  auto [validation, held_out] = gen::SplitDataset(
      harness_->world().corpus, harness_->test_split(), 0.5, 3);
  auto learned = eval::LearnWeights(harness_, validation, 0.25);
  EXPECT_NEAR(learned.alpha + learned.beta + learned.gamma, 1.0, 1e-9);
  EXPECT_GE(learned.alpha, 0.0);
  EXPECT_GE(learned.beta, 0.0);
  EXPECT_GE(learned.gamma, 0.0);

  // By construction the grid includes the three corners, so the learned
  // validation accuracy dominates every single-feature configuration.
  auto corner = [&](double a, double b, double g) {
    core::LinkerOptions options = harness_->DefaultLinkerOptions();
    options.alpha = a;
    options.beta = b;
    options.gamma = g;
    auto linker = harness_->MakeLinker(options);
    return eval::EvaluateOurs(linker, harness_->world(), validation)
        .accuracy()
        .MentionAccuracy();
  };
  EXPECT_GE(learned.validation_accuracy, corner(1, 0, 0));
  EXPECT_GE(learned.validation_accuracy, corner(0, 1, 0));
  EXPECT_GE(learned.validation_accuracy, corner(0, 0, 1));
}

TEST_F(ExtensionsFixture, SplitDatasetPartitionsUsers) {
  auto [a, b] = gen::SplitDataset(harness_->world().corpus,
                                  harness_->test_split(), 0.4, 5);
  EXPECT_EQ(a.users.size() + b.users.size(),
            harness_->test_split().users.size());
  for (uint32_t u : a.users) {
    EXPECT_FALSE(std::binary_search(b.users.begin(), b.users.end(), u));
  }
  EXPECT_EQ(a.tweet_indices.size() + b.tweet_indices.size(),
            harness_->test_split().tweet_indices.size());
}

}  // namespace
}  // namespace mel
