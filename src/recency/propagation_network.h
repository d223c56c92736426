#ifndef MEL_RECENCY_PROPAGATION_NETWORK_H_
#define MEL_RECENCY_PROPAGATION_NETWORK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kb/knowledgebase.h"
#include "kb/types.h"
#include "kb/wlm.h"
#include "util/thread_pool.h"

namespace mel::recency {

/// \brief The recency propagation network of Sec. 4.2 (Fig. 3).
///
/// Nodes are knowledgebase entities; an undirected weighted edge connects
/// two entities when
///   1. they are NOT candidates of a common mention (heuristic 1),
///   2. their WLM topical relatedness is at least theta2 (heuristics 2+3).
/// Clusters of strongly related entities are the connected components of
/// the thresholded graph (the paper's Graph-Cut step); recency is only
/// propagated within a cluster, which bounds per-query diffusion cost.
///
/// Candidate edge pairs are enumerated through hyperlink co-citation (two
/// entities must share at least one inlinking article to have WLM > 0),
/// avoiding the quadratic all-pairs WLM computation.
class PropagationNetwork {
 public:
  struct Edge {
    kb::EntityId target;
    double weight;       // WLM relatedness
    double probability;  // row-normalized propagation probability
  };

  /// Builds the network. theta2 is the minimum relatedness (paper
  /// default: 0.6). The knowledgebase must be finalized.
  ///
  /// Construction fans the co-citation enumeration and the theta2 WLM
  /// filter out across `pool` (nullptr = the shared pool). Candidate
  /// pairs are enumerated per entity a (every b > a sharing an inlinking
  /// article, sorted and deduplicated within the row) and the rows are
  /// concatenated in entity order, so the pairs come out in (a, b) order
  /// and the result is byte-identical for any thread count.
  static PropagationNetwork Build(const kb::Knowledgebase& kb, double theta2,
                                  util::ThreadPool* pool = nullptr);

  uint32_t num_entities() const {
    return static_cast<uint32_t>(cluster_of_.size());
  }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t num_clusters() const { return num_clusters_; }

  /// Cluster id of the entity (every entity has one; singletons allowed).
  uint32_t Cluster(kb::EntityId e) const { return cluster_of_[e]; }

  /// Position of the entity inside ClusterMembers(Cluster(e)) — the index
  /// its propagated recency occupies in a PropagateCluster result.
  uint32_t MemberIndex(kb::EntityId e) const { return member_index_[e]; }

  /// Entities of a cluster.
  std::span<const kb::EntityId> ClusterMembers(uint32_t cluster) const;

  /// Propagation neighbours of e with normalized probabilities.
  std::span<const Edge> Neighbors(kb::EntityId e) const;

  /// Size of the largest cluster (diffusion cost bound).
  uint32_t MaxClusterSize() const;

  /// Exact structural equality (adjacency, weights, probabilities,
  /// clusters) — the parallel-vs-serial build determinism check.
  bool IdenticalTo(const PropagationNetwork& other) const;

 private:
  PropagationNetwork() = default;

  std::vector<uint32_t> adj_offsets_;
  std::vector<Edge> adj_;
  std::vector<uint32_t> cluster_of_;
  std::vector<uint32_t> member_index_;
  std::vector<uint32_t> cluster_offsets_;
  std::vector<kb::EntityId> cluster_members_;
  uint64_t num_edges_ = 0;
  uint32_t num_clusters_ = 0;
};

}  // namespace mel::recency

#endif  // MEL_RECENCY_PROPAGATION_NETWORK_H_
