#include "core/entity_linker.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"

namespace mel::core {

namespace {

// Per-stage accounting of the Eq.-1 pipeline. Pointers are resolved once
// (registry lookups take a mutex) and stay valid forever.
struct LinkerMetrics {
  metrics::Counter* mentions;
  metrics::Counter* unlinked;
  metrics::Counter* probable_new;
  metrics::Counter* candidates;
  metrics::Histogram* candidate_fanout;
  metrics::Histogram* candidate_gen_ns;
  metrics::Histogram* popularity_ns;
  metrics::Histogram* recency_ns;
  metrics::Histogram* interest_ns;
  metrics::Histogram* scoring_ns;
  metrics::Histogram* total_ns;
};

const LinkerMetrics& GetLinkerMetrics() {
  static const LinkerMetrics m = [] {
    auto& reg = metrics::Registry();
    LinkerMetrics lm;
    lm.mentions = reg.GetCounter("linker.mentions_total");
    lm.unlinked = reg.GetCounter("linker.mentions_unlinked_total");
    lm.probable_new = reg.GetCounter("linker.probable_new_entity_total");
    lm.candidates = reg.GetCounter("linker.candidates_total");
    lm.candidate_fanout = reg.GetHistogram("linker.candidate_fanout");
    lm.candidate_gen_ns = reg.GetHistogram("linker.stage.candidate_gen_ns");
    lm.popularity_ns = reg.GetHistogram("linker.stage.popularity_ns");
    lm.recency_ns = reg.GetHistogram("linker.stage.recency_ns");
    lm.interest_ns = reg.GetHistogram("linker.stage.interest_ns");
    lm.scoring_ns = reg.GetHistogram("linker.stage.scoring_ns");
    lm.total_ns = reg.GetHistogram("linker.link_mention_ns");
    return lm;
  }();
  return m;
}

}  // namespace

EntityLinker::EntityLinker(
    const kb::Knowledgebase* kb, kb::ComplementedKnowledgebase* ckb,
    const reach::WeightedReachability* reachability,
    const recency::PropagationNetwork* propagation_network,
    const LinkerOptions& options,
    const recency::RecencySource* recency_override)
    : kb_(kb),
      ckb_(ckb),
      options_(options),
      candidate_generator_(kb, options.fuzzy_max_edits),
      influence_(ckb, options.influence_method),
      interest_(&influence_, reachability, options.top_k_influential),
      window_(ckb, options.tau, options.theta1),
      propagator_(propagation_network,
                  recency_override != nullptr ? recency_override : &window_,
                  options.propagator),
      influential_index_(ckb, options.influence_method,
                         options.top_k_influential) {
  MEL_CHECK(kb != nullptr && ckb != nullptr);
  MEL_CHECK(&ckb->base() == kb);
}

MentionLinkResult EntityLinker::LinkMention(std::string_view mention,
                                            kb::UserId user,
                                            kb::Timestamp now) const {
  const LinkerMetrics& lm = GetLinkerMetrics();
  metrics::ScopedStageTimer total_timer(lm.total_ns);
  metrics::StageClock clock;
  lm.mentions->Increment();

  MentionLinkResult result;
  result.surface = std::string(mention);

  std::vector<kb::Candidate> candidates =
      candidate_generator_.Generate(mention);
  clock.Lap(lm.candidate_gen_ns);
  lm.candidates->Increment(candidates.size());
  if (clock.on()) lm.candidate_fanout->Record(candidates.size());
  if (candidates.empty()) {
    lm.unlinked->Increment();
    return result;
  }

  std::vector<kb::EntityId> entities;
  entities.reserve(candidates.size());
  for (const auto& c : candidates) entities.push_back(c.entity);

  // S_p (Eq. 2): tweet-count share among the candidates.
  std::vector<double> popularity(entities.size(), 0.0);
  {
    double total = 0;
    for (size_t i = 0; i < entities.size(); ++i) {
      popularity[i] = ckb_->LinkedTweetCount(entities[i]);
      total += popularity[i];
    }
    if (total > 0) {
      for (double& p : popularity) p /= total;
    }
  }
  clock.Lap(lm.popularity_ns);

  // S_r (Eq. 9 + Eq. 11): burst recency with optional propagation.
  std::vector<double> recency_scores = propagator_.CandidateScores(
      entities, now, options_.enable_recency_propagation);
  clock.Lap(lm.recency_ns);

  // S_in (Eq. 8): average weighted reachability to the most influential
  // users of each candidate's community, served through the backends'
  // count-only ScoreOnly path (no followee materialization). Like S_p and
  // S_r, the vector is normalized over the candidate set so that the
  // three features of Eq. 1 share a scale (raw average reachability is
  // orders of magnitude below the popularity/recency shares and alpha
  // would otherwise be meaningless).
  std::vector<double> interest(entities.size(), 0.0);
  {
    // Prefer the offline influential-user index when the mention resolved
    // through an exact surface (the fuzzy path merges several surfaces
    // and has no single cached entry).
    const uint32_t surface_id =
        options_.use_influential_index ? kb_->SurfaceId(mention)
                                       : kb::Knowledgebase::kInvalidSurface;
    double total = 0;
    for (size_t i = 0; i < entities.size(); ++i) {
      if (surface_id != kb::Knowledgebase::kInvalidSurface) {
        interest[i] = interest_.InterestOver(
            user, influential_index_.Get(surface_id, entities[i]));
      } else {
        auto influential = influence_.TopInfluential(
            entities[i], entities, options_.top_k_influential);
        interest[i] = interest_.InterestOver(user, influential);
      }
      total += interest[i];
    }
    if (total > 0) {
      for (double& v : interest) v /= total;
    }
  }
  clock.Lap(lm.interest_ns);

  std::vector<ScoredEntity> scored(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    ScoredEntity& s = scored[i];
    s.entity = entities[i];
    s.interest = interest[i];
    s.recency = recency_scores[i];
    s.popularity = popularity[i];
    s.score = options_.alpha * s.interest + options_.beta * s.recency +
              options_.gamma * s.popularity;
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ScoredEntity& a, const ScoredEntity& b) {
                     return a.score > b.score;
                   });

  if (options_.reject_below_interest_threshold) {
    // Appendix D: a candidate the user has no interest in scores at most
    // beta + gamma; such candidates are suppressed and an empty result
    // flags a probable new entity / new meaning.
    const double threshold = options_.beta + options_.gamma;
    auto first_bad = std::find_if(scored.begin(), scored.end(),
                                  [&](const ScoredEntity& s) {
                                    return s.score <= threshold;
                                  });
    if (first_bad == scored.begin()) result.probable_new_entity = true;
    scored.erase(first_bad, scored.end());
  }

  if (scored.size() > options_.top_k_results) {
    scored.resize(options_.top_k_results);
  }
  result.ranked = std::move(scored);
  clock.Lap(lm.scoring_ns);
  if (result.probable_new_entity) lm.probable_new->Increment();
  if (!result.linked()) lm.unlinked->Increment();
  return result;
}

TweetLinkResult EntityLinker::LinkTweet(const kb::Tweet& tweet) const {
  TweetLinkResult result;
  for (const auto& detected :
       candidate_generator_.DetectMentions(tweet.text)) {
    result.mentions.push_back(
        LinkMention(detected.surface, tweet.user, tweet.time));
  }
  return result;
}

void EntityLinker::ConfirmLink(kb::EntityId entity, const kb::Tweet& tweet) {
  ckb_->AddLink(entity,
                kb::Posting{tweet.id, tweet.user, tweet.time});
  // The entity's community and postings changed: cached influential
  // users it affects are stale (Sec. 3.2.2: "update existing knowledge
  // such as user influences"), and so is its quiet proof.
  influential_index_.OnLinkAdded(entity, tweet.user);
  window_.OnLinkAdded(entity);
}

void EntityLinker::WarmUp() {
  ckb_->EnsureAllSorted();
  if (options_.use_influential_index) influential_index_.PrecomputeAll();
}

}  // namespace mel::core
