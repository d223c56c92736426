#include "social/influence.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace mel::social {

namespace {

// Eq. 7 divides by the entropy, which is 0 for a perfectly discriminative
// user. An additive smoothing of 1 keeps the score finite and bounded in
// (0, 1], preserving the ranking "focused users first, then by tweet
// share" without letting zero-entropy users dwarf everyone else.
constexpr double kEntropySmoothing = 1.0;

}  // namespace

InfluenceEstimator::InfluenceEstimator(
    const kb::ComplementedKnowledgebase* ckb, InfluenceMethod method)
    : ckb_(ckb), method_(method) {
  MEL_CHECK(ckb != nullptr);
}

double InfluenceEstimator::Discriminativeness(
    kb::UserId u, std::span<const kb::EntityId> candidates) const {
  if (method_ == InfluenceMethod::kTfIdf) {
    // log(|E_m| / |E_m^u|): how unique u's interest is among candidates.
    uint32_t mentioned = 0;
    for (kb::EntityId e : candidates) {
      if (ckb_->UserTweetCount(e, u) > 0) ++mentioned;
    }
    if (mentioned == 0) return 0;
    return std::log(static_cast<double>(candidates.size()) / mentioned);
  }
  // Entropy of u's tweet distribution over the candidates (Eq. 7).
  double total = 0;
  for (kb::EntityId e : candidates) total += ckb_->UserTweetCount(e, u);
  if (total == 0) return 0;
  double entropy = 0;
  for (kb::EntityId e : candidates) {
    uint32_t c = ckb_->UserTweetCount(e, u);
    if (c == 0) continue;
    double p = c / total;
    entropy -= p * std::log(p);
  }
  return 1.0 / (entropy + kEntropySmoothing);
}

double InfluenceEstimator::Influence(
    kb::UserId u, kb::EntityId entity,
    std::span<const kb::EntityId> candidates) const {
  uint32_t community_tweets = ckb_->LinkedTweetCount(entity);
  if (community_tweets == 0) return 0;
  uint32_t user_tweets = ckb_->UserTweetCount(entity, u);
  if (user_tweets == 0) return 0;
  double share = static_cast<double>(user_tweets) / community_tweets;
  return share * Discriminativeness(u, candidates);
}

std::vector<InfluentialUser> InfluenceEstimator::TopInfluential(
    kb::EntityId entity, std::span<const kb::EntityId> candidates,
    uint32_t top_k) const {
  auto community = ckb_->Community(entity);
  std::vector<double> disc;
  disc.reserve(community.size());
  for (const auto& member : community) {
    disc.push_back(Discriminativeness(member.first, candidates));
  }
  return RankInfluential(community, ckb_->LinkedTweetCount(entity), disc,
                         top_k);
}

std::vector<InfluentialUser> RankInfluential(
    std::span<const std::pair<kb::UserId, uint32_t>> community,
    uint32_t linked_tweets, std::span<const double> disc, uint32_t top_k) {
  MEL_CHECK(disc.size() == community.size());
  std::vector<InfluentialUser> scored;
  scored.reserve(community.size());
  const double inv_total = community.empty() ? 0 : 1.0 / linked_tweets;
  for (size_t j = 0; j < community.size(); ++j) {
    double influence = community[j].second * inv_total * disc[j];
    scored.push_back(InfluentialUser{community[j].first, influence});
  }
  auto by_influence = [](const InfluentialUser& a, const InfluentialUser& b) {
    if (a.influence != b.influence) return a.influence > b.influence;
    return a.user < b.user;  // deterministic tie-break
  };
  if (top_k != 0 && top_k < scored.size()) {
    std::partial_sort(scored.begin(), scored.begin() + top_k, scored.end(),
                      by_influence);
    scored.resize(top_k);
  } else {
    std::sort(scored.begin(), scored.end(), by_influence);
  }
  return scored;
}

}  // namespace mel::social
