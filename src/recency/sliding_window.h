#ifndef MEL_RECENCY_SLIDING_WINDOW_H_
#define MEL_RECENCY_SLIDING_WINDOW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kb/complemented_kb.h"
#include "kb/types.h"
#include "recency/recency_source.h"

namespace mel::recency {

/// \brief Sliding-window burst detector (Sec. 4.2, Eq. 9).
///
/// An entity is "fresh" when at least theta1 tweets were linked to it
/// inside the window [now - tau, now]. Scores are normalized over a
/// mention's candidate set.
///
/// Most entities never burst: no tau-window of their postings ever holds
/// theta1 of them. For those the source keeps a "quiet" proof, the
/// posting count at which it was established, and BurstMass answers 0
/// without a binary search while LinkedTweetCount still equals it.
/// Posting lists are append-only, so an unchanged count means unchanged
/// postings; a changed count (a link the source was not told about)
/// falls back to the binary search, so results stay exact either way.
class SlidingWindowRecency : public RecencySource {
 public:
  /// \param ckb complemented knowledgebase (must outlive this object)
  /// \param tau window length in seconds (paper default: 3 days)
  /// \param theta1 minimum recent tweets forming a burst (default: 10)
  SlidingWindowRecency(const kb::ComplementedKnowledgebase* ckb,
                       kb::Timestamp tau, uint32_t theta1);

  /// |D_e^tau|: tweets linked to e in the window ending at `now`.
  uint32_t RecentCount(kb::EntityId e, kb::Timestamp now) const override;

  /// Thresholded burst mass: |D_e^tau| when >= theta1, else 0. This is
  /// the un-normalized numerator of Eq. 9 and the initial recency fed to
  /// the propagation model.
  double BurstMass(kb::EntityId e, kb::Timestamp now) const override;

  /// Eq. 9 for a whole candidate set: the i-th result is S_r of
  /// candidates[i], normalized by the total recent count over the set.
  std::vector<double> Scores(std::span<const kb::EntityId> candidates,
                             kb::Timestamp now) const;

  /// Re-derives e's quiet proof after a link to e was added to the
  /// complemented KB. Not thread-safe against concurrent readers (call it
  /// where the AddLink itself happens).
  void OnLinkAdded(kb::EntityId e);

  /// True when e's quiet proof holds for its current postings, so
  /// BurstMass(e, ·) answers 0 without a search.
  bool ProvenQuiet(kb::EntityId e) const {
    const uint32_t linked = ckb_->LinkedTweetCount(e);  // range-checks e
    return quiet_at_[e] == linked;
  }

  /// Counts come straight from the complemented KB's posting lists, so
  /// its mutation counter is exactly this source's epoch.
  uint64_t Epoch() const override { return ckb_->version(); }

  kb::Timestamp tau() const { return tau_; }
  uint32_t theta1() const { return theta1_; }

 private:
  /// quiet_at_ value of an entity with no proof.
  static constexpr uint32_t kNotQuiet = static_cast<uint32_t>(-1);

  /// Recomputes quiet_at_[e] from e's sorted postings.
  void ProveQuiet(kb::EntityId e);

  const kb::ComplementedKnowledgebase* ckb_;
  kb::Timestamp tau_;
  uint32_t theta1_;
  /// quiet_at_[e] == LinkedTweetCount(e) proves BurstMass(e, now) == 0
  /// for every `now`; kNotQuiet (never a count) proves nothing.
  std::vector<uint32_t> quiet_at_;
};

}  // namespace mel::recency

#endif  // MEL_RECENCY_SLIDING_WINDOW_H_
