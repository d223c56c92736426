#ifndef MEL_RECENCY_RECENCY_SOURCE_H_
#define MEL_RECENCY_RECENCY_SOURCE_H_

#include <cstdint>

#include "kb/types.h"

namespace mel::recency {

/// \brief Source of per-entity recent-tweet mass for the propagation
/// model.
///
/// Two implementations ship with the library:
///  * SlidingWindowRecency — exact counts by binary search over the
///    complemented knowledgebase's posting lists (the evaluation setup);
///  * BurstTracker — O(1)-maintenance bucketed ring counters for
///    streaming deployments that cannot retain full posting lists.
class RecencySource {
 public:
  /// Epoch() value of sources that cannot track their mutations; it
  /// disables result memoization in RecencyPropagator.
  static constexpr uint64_t kNoEpoch = static_cast<uint64_t>(-1);

  virtual ~RecencySource() = default;

  /// |D_e^tau| (possibly approximate) at time `now`.
  virtual uint32_t RecentCount(kb::EntityId e, kb::Timestamp now) const = 0;

  /// Thresholded burst mass: RecentCount when >= theta1, else 0 (the
  /// un-normalized Eq. 9 numerator and the propagation seed).
  virtual double BurstMass(kb::EntityId e, kb::Timestamp now) const = 0;

  /// Monotonic version of the underlying data: two calls returning the
  /// same value guarantee that no mutation affecting RecentCount/BurstMass
  /// happened in between. Sources that cannot make that guarantee keep
  /// the default kNoEpoch, which turns the propagation cache off.
  virtual uint64_t Epoch() const { return kNoEpoch; }

  /// Window-state token: BurstMass(e, now) is identical for any two `now`
  /// values with equal (Epoch, WindowToken). The default is the exact
  /// timestamp — always correct; bucketed sources return a coarser token
  /// so queries inside one bucket skip even rebuilding S_r^0. A token
  /// miss is not a recompute: RecencyPropagator still reuses its result
  /// when the rebuilt S_r^0 is bitwise unchanged.
  virtual uint64_t WindowToken(kb::Timestamp now) const {
    return static_cast<uint64_t>(now);
  }
};

}  // namespace mel::recency

#endif  // MEL_RECENCY_RECENCY_SOURCE_H_
