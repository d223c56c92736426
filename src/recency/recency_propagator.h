#ifndef MEL_RECENCY_RECENCY_PROPAGATOR_H_
#define MEL_RECENCY_RECENCY_PROPAGATOR_H_

#include <mutex>
#include <span>
#include <vector>

#include "kb/types.h"
#include "recency/propagation_network.h"
#include "recency/recency_source.h"
#include "recency/sliding_window.h"

namespace mel::recency {

/// \brief Options for the PageRank-style reinforcement of Eq. 11.
struct PropagatorOptions {
  /// lambda: weight of the recency gathered from underlying tweets vs the
  /// part reinforced by related entities.
  double lambda = 0.8;
  /// Power-iteration stops after this many rounds...
  uint32_t max_iterations = 20;
  /// ...or when the L1 change drops below this.
  double convergence_epsilon = 1e-6;
  /// Memoize PropagateCluster results per cluster. A query with the
  /// slot's (Epoch, WindowToken) returns the stored vector outright;
  /// any other query rebuilds S_r^0 and reuses the stored vector when
  /// S_r^0 is bitwise unchanged, so the power iteration reruns only when
  /// the cluster's thresholded burst vector moves. Only takes effect for
  /// sources that track their mutations (Epoch != kNoEpoch).
  bool enable_cache = true;
};

/// \brief Runs recency propagation (Eq. 11) restricted to clusters of the
/// propagation network.
///
///   S_r^i = lambda * S_r^0 + (1 - lambda) * P * S_r^{i-1}
///
/// Restricting the power iteration to the (small) cluster containing a
/// candidate is what keeps online inference fast: a burst on "NBA" only
/// ever diffuses inside the basketball cluster.
///
/// With the cache enabled, per-cluster results are memoized under a
/// per-cluster mutex, so concurrent LinkMention calls (the WarmUp
/// contract) stay safe and the power iteration runs at most once per
/// (cluster, S_r^0). Hits (window-state and content alike), misses and
/// invalidations are exported as `recency.cache.*`.
class RecencyPropagator {
 public:
  /// All dependencies must outlive this object.
  RecencyPropagator(const PropagationNetwork* network,
                    const RecencySource* source,
                    const PropagatorOptions& options);

  /// Propagated recency of every member of the given cluster at time
  /// `now`, aligned with PropagationNetwork::ClusterMembers(cluster).
  /// The initial vector is the thresholded burst mass (Eq. 9 numerator)
  /// normalized within the cluster.
  std::vector<double> PropagateCluster(uint32_t cluster,
                                       kb::Timestamp now) const;

  /// Convenience for online inference: propagated recency of each
  /// candidate at time `now` (propagation runs once per distinct cluster
  /// among the candidates), normalized over the candidate set so the
  /// result is directly usable as S_r in Eq. 1. With propagation disabled
  /// (enable_propagation = false) this degenerates to plain Eq. 9 — the
  /// ablation of Fig. 4(d).
  std::vector<double> CandidateScores(
      std::span<const kb::EntityId> candidates, kb::Timestamp now,
      bool enable_propagation) const;

  const PropagatorOptions& options() const { return options_; }

 private:
  /// S_r^0: the raw thresholded burst mass of every cluster member.
  std::vector<double> InitialVector(uint32_t cluster,
                                    kb::Timestamp now) const;

  /// The uncached Eq. 11 power iteration from S_r^0. A pure function of
  /// `initial` and the (immutable) network.
  std::vector<double> Iterate(uint32_t cluster,
                              const std::vector<double>& initial) const;

  struct CacheSlot {
    std::mutex mu;
    uint64_t epoch = 0;
    uint64_t token = 0;
    bool valid = false;
    std::vector<double> initial;  // the S_r^0 `values` was iterated from
    std::vector<double> values;
  };

  const PropagationNetwork* network_;
  const RecencySource* source_;
  PropagatorOptions options_;
  mutable std::vector<CacheSlot> cache_;  // one slot per cluster
};

}  // namespace mel::recency

#endif  // MEL_RECENCY_RECENCY_PROPAGATOR_H_
