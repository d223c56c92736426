#include "recency/sliding_window.h"

#include "util/logging.h"

namespace mel::recency {

SlidingWindowRecency::SlidingWindowRecency(
    const kb::ComplementedKnowledgebase* ckb, kb::Timestamp tau,
    uint32_t theta1)
    : ckb_(ckb), tau_(tau), theta1_(theta1) {
  MEL_CHECK(ckb != nullptr);
  MEL_CHECK(tau > 0);
  quiet_at_.resize(ckb->base().num_entities());
  for (kb::EntityId e = 0; e < quiet_at_.size(); ++e) ProveQuiet(e);
}

void SlidingWindowRecency::ProveQuiet(kb::EntityId e) {
  const std::span<const kb::Posting> p = ckb_->Postings(e);  // sorted
  quiet_at_[e] = kNotQuiet;
  // With theta1 == 0 any count is a burst, so only "no postings" is
  // quiet (and that case is already cheap); give no proof at all.
  if (theta1_ == 0) return;
  // Some window [t, t + tau] holds theta1 postings iff theta1 consecutive
  // sorted postings span at most tau; inclusive on both ends, as in
  // RecentTweetCount's [now - tau, now].
  for (size_t i = 0; i + theta1_ <= p.size(); ++i) {
    if (p[i + theta1_ - 1].time - p[i].time <= tau_) return;
  }
  quiet_at_[e] = static_cast<uint32_t>(p.size());
}

void SlidingWindowRecency::OnLinkAdded(kb::EntityId e) {
  MEL_CHECK(e < quiet_at_.size());
  // A link only adds windows, never removes one: an entity that already
  // bursts somewhere keeps bursting there.
  if (quiet_at_[e] != kNotQuiet) ProveQuiet(e);
}

uint32_t SlidingWindowRecency::RecentCount(kb::EntityId e,
                                           kb::Timestamp now) const {
  return ckb_->RecentTweetCount(e, now, tau_);
}

double SlidingWindowRecency::BurstMass(kb::EntityId e,
                                       kb::Timestamp now) const {
  if (ProvenQuiet(e)) return 0.0;
  uint32_t count = RecentCount(e, now);
  return count >= theta1_ ? static_cast<double>(count) : 0.0;
}

std::vector<double> SlidingWindowRecency::Scores(
    std::span<const kb::EntityId> candidates, kb::Timestamp now) const {
  std::vector<double> scores(candidates.size(), 0.0);
  double denom = 0;
  std::vector<uint32_t> counts(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    counts[i] = RecentCount(candidates[i], now);
    denom += counts[i];
  }
  if (denom == 0) return scores;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (counts[i] >= theta1_) scores[i] = counts[i] / denom;
  }
  return scores;
}

}  // namespace mel::recency
