#ifndef MEL_SOCIAL_INFLUENCE_H_
#define MEL_SOCIAL_INFLUENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kb/complemented_kb.h"
#include "kb/types.h"

namespace mel::social {

/// Which user-influence estimator to use (Sec. 4.1.2).
enum class InfluenceMethod {
  /// Eq. 6: tweet share times idf over the candidate entity set. Penalizes
  /// users who mention several candidates at all, however rarely.
  kTfIdf,
  /// Eq. 7: tweet share divided by the entropy of the user's tweet
  /// distribution over candidates. Tolerates incidental postings about
  /// other candidates.
  kEntropy,
};

/// \brief One influential user with her influence score.
struct InfluentialUser {
  kb::UserId user = kb::kInvalidUser;
  double influence = 0;
};

/// \brief Estimates user influence within entity communities and extracts
/// the most influential users (Sec. 4.1.2).
///
/// Influence is defined relative to a mention's candidate entity set E_m:
/// a user is influential for candidate e if she contributes many of e's
/// tweets AND discriminates e from the other candidates.
class InfluenceEstimator {
 public:
  /// The complemented knowledgebase must outlive this object.
  InfluenceEstimator(const kb::ComplementedKnowledgebase* ckb,
                     InfluenceMethod method);

  /// Inf(u, U_e) of Eq. 6 or Eq. 7, in the context of candidate set
  /// `candidates` (which must contain `entity`).
  double Influence(kb::UserId u, kb::EntityId entity,
                   std::span<const kb::EntityId> candidates) const;

  /// The top_k most influential users of entity's community U_e* under
  /// the candidate set, sorted by descending influence. Fewer are
  /// returned when the community is smaller than top_k; top_k == 0 means
  /// "the whole community" (ranked).
  std::vector<InfluentialUser> TopInfluential(
      kb::EntityId entity, std::span<const kb::EntityId> candidates,
      uint32_t top_k) const;

  /// The candidate-set factor of Eq. 6 (idf) or Eq. 7 (inverse entropy)
  /// for user u. It reads only u's tweet counts over `candidates`.
  double Discriminativeness(kb::UserId u,
                            std::span<const kb::EntityId> candidates) const;

  InfluenceMethod method() const { return method_; }

 private:
  const kb::ComplementedKnowledgebase* ckb_;
  InfluenceMethod method_;
};

/// The ranking body of TopInfluential, given each community member's
/// discriminativeness: `disc[j]` belongs to `community[j]` and
/// `linked_tweets` is |D_e|. InfluentialUserIndex calls it with
/// discriminativeness cached across feedback, so both paths produce the
/// same bits.
std::vector<InfluentialUser> RankInfluential(
    std::span<const std::pair<kb::UserId, uint32_t>> community,
    uint32_t linked_tweets, std::span<const double> disc, uint32_t top_k);

}  // namespace mel::social

#endif  // MEL_SOCIAL_INFLUENCE_H_
