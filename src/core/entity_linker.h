#ifndef MEL_CORE_ENTITY_LINKER_H_
#define MEL_CORE_ENTITY_LINKER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_generator.h"
#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "kb/types.h"
#include "reach/weighted_reachability.h"
#include "recency/propagation_network.h"
#include "recency/recency_propagator.h"
#include "recency/sliding_window.h"
#include "social/influence.h"
#include "social/influential_index.h"
#include "social/user_interest.h"

namespace mel::core {

/// \brief All tunables of the framework; defaults follow the paper's
/// Table 3 where given.
struct LinkerOptions {
  /// Feature weights of Eq. 1 (alpha + beta + gamma should be 1).
  /// NOTE: the paper's Table 3 / Table 4 convention is followed —
  /// beta weighs recency, gamma weighs popularity.
  double alpha = 0.6;  // user interest
  double beta = 0.3;   // entity recency
  double gamma = 0.1;  // entity popularity

  /// Recency window tau (Table 3: 3 days) and burst threshold theta1.
  kb::Timestamp tau = 3 * kb::kSecondsPerDay;
  uint32_t theta1 = 10;

  /// Number of most influential users whose reachability is aggregated
  /// into S_in (Eq. 8); 0 means the entire community (Eq. 3).
  uint32_t top_k_influential = 5;

  /// Number of entities returned per mention.
  uint32_t top_k_results = 3;

  social::InfluenceMethod influence_method =
      social::InfluenceMethod::kEntropy;

  /// Serve influential users from the offline InfluentialUserIndex
  /// (Sec. 3.2.1 knowledge acquisition) instead of ranking communities
  /// per query. ConfirmLink marks the entries it changes stale. Mentions
  /// reaching the fuzzy candidate path (no single surface id) always fall
  /// back to the online computation.
  bool use_influential_index = true;

  /// Recency reinforcement between related entities (Fig. 4(d) ablation).
  bool enable_recency_propagation = true;
  recency::PropagatorOptions propagator;

  /// Fuzzy candidate generation: maximum edit distance (0 disables).
  uint32_t fuzzy_max_edits = 1;

  /// Appendix D: when true, candidates scoring at most beta + gamma are
  /// suppressed — the user shows no interest in any existing meaning, so
  /// the mention likely refers to an entity missing from the KB.
  bool reject_below_interest_threshold = false;
};

/// \brief One scored candidate with its feature breakdown.
struct ScoredEntity {
  kb::EntityId entity = kb::kInvalidEntity;
  double score = 0;       // Eq. 1
  double interest = 0;    // S_in(u, e)
  double recency = 0;     // S_r(e)
  double popularity = 0;  // S_p(e)
};

/// \brief Linking outcome for a single mention.
struct MentionLinkResult {
  std::string surface;
  /// Candidates sorted by descending score, truncated to top_k_results.
  std::vector<ScoredEntity> ranked;
  /// True when the mention had at least one candidate but all were
  /// suppressed by the Appendix-D threshold — a probable new entity.
  bool probable_new_entity = false;

  bool linked() const { return !ranked.empty(); }
  kb::EntityId best() const {
    return ranked.empty() ? kb::kInvalidEntity : ranked.front().entity;
  }
};

/// \brief Linking outcome for a whole tweet.
struct TweetLinkResult {
  std::vector<MentionLinkResult> mentions;
};

/// \brief The paper's on-the-fly entity linker (Sec. 3.2.2): candidate
/// generation followed by scoring with user interest (social), entity
/// recency (temporal), and entity popularity.
///
/// Mentions are linked independently — no intra- or inter-tweet coupling —
/// which is what makes the approach embarrassingly parallel and suitable
/// for streaming workloads.
class EntityLinker {
 public:
  /// All dependencies must outlive the linker. `ckb` is mutable because
  /// online feedback (ConfirmLink) complements the knowledgebase in place.
  ///
  /// `recency_override` replaces the internal exact SlidingWindowRecency
  /// as the burst-mass source — pass a streaming recency::BurstTracker
  /// for deployments that cannot afford full posting lists. The caller
  /// keeps it fed (e.g., Observe on every confirmed link) and alive.
  EntityLinker(const kb::Knowledgebase* kb,
               kb::ComplementedKnowledgebase* ckb,
               const reach::WeightedReachability* reachability,
               const recency::PropagationNetwork* propagation_network,
               const LinkerOptions& options,
               const recency::RecencySource* recency_override = nullptr);

  /// Links a single mention issued by `user` at time `now`.
  MentionLinkResult LinkMention(std::string_view mention, kb::UserId user,
                                kb::Timestamp now) const;

  /// Detects mentions in the tweet's text and links each independently.
  TweetLinkResult LinkTweet(const kb::Tweet& tweet) const;

  /// Online feedback loop (Sec. 3.2.2): the author confirmed that the
  /// tweet refers to `entity`; the complemented knowledgebase absorbs the
  /// link so future popularity/recency/influence reflect it.
  void ConfirmLink(kb::EntityId entity, const kb::Tweet& tweet);

  /// Materializes all lazily computed shared state (influential-user
  /// cache, posting-list sort order). After WarmUp — and until the next
  /// ConfirmLink — LinkMention and LinkTweet are safe to call from
  /// multiple threads concurrently (see LinkTweetsParallel).
  void WarmUp();

  const LinkerOptions& options() const { return options_; }
  LinkerOptions* mutable_options() { return &options_; }
  const CandidateGenerator& candidate_generator() const {
    return candidate_generator_;
  }

 private:
  const kb::Knowledgebase* kb_;
  kb::ComplementedKnowledgebase* ckb_;
  LinkerOptions options_;
  CandidateGenerator candidate_generator_;
  social::InfluenceEstimator influence_;
  social::UserInterestScorer interest_;
  recency::SlidingWindowRecency window_;
  recency::RecencyPropagator propagator_;
  // Lazily filled offline cache; mutable because lookups during the
  // logically-const LinkMention populate it.
  mutable social::InfluentialUserIndex influential_index_;
};

}  // namespace mel::core

#endif  // MEL_CORE_ENTITY_LINKER_H_
