#ifndef MEL_REACH_DISTANCE_LABEL_INDEX_H_
#define MEL_REACH_DISTANCE_LABEL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/directed_graph.h"
#include "reach/weighted_reachability.h"
#include "util/arena_ref.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace mel::reach {

/// \brief Ablation of the paper's extended 2-hop cover: classic pruned
/// landmark labeling that stores ONLY distances, reconstructing the
/// followee set at query time through Theorem 1:
///
///   F_uv = { t in F_u : d(t, v) = d(u, v) - 1 }
///
/// Each weighted query therefore costs 1 + outdeg(u) distance queries,
/// trading query time for an index that is smaller and much faster to
/// build than the followee-carrying labels of Algorithm 2. The
/// bench_followee_storage benchmark quantifies the trade-off.
///
/// Labels are arena-flattened like TwoHopIndex: all (node, dist) entries
/// of one side live in a single contiguous array addressed by per-node
/// prefix offsets, so a query walks two cache-friendly spans and Save /
/// Load stream each arena as one block.
class DistanceLabelIndex : public WeightedReachability {
 public:
  struct Label {
    NodeId node;
    uint32_t dist;
  };

  /// Builds the index; landmarks in descending total-degree order.
  static DistanceLabelIndex Build(const graph::DirectedGraph* g,
                                  uint32_t max_hops);

  /// Shortest-path distance (kUnreachableDistance beyond H hops).
  uint32_t Distance(NodeId u, NodeId v) const;

  double Score(NodeId u, NodeId v) const override;
  ReachQueryResult Query(NodeId u, NodeId v) const override;
  ReachCountResult CountQuery(NodeId u, NodeId v) const override;
  double ScoreOnly(NodeId u, NodeId v) const override;
  uint64_t IndexSizeBytes() const override;
  const char* Name() const override { return "2-hop-dist-only"; }

  /// \brief Mutate-or-invalidate contract: insertions patch the distance
  /// labels in place (closed form + hub-u injection over the affected
  /// region; followee sets are query-time reconstructions here, so exact
  /// distances are all that is needed), erasures rebuild — the
  /// decremental case is unsound for a pruned cover. A mapped index
  /// becomes heap-owned when patched.
  MutationResult OnGraphMutation(const MutationContext& ctx) override;

  uint64_t TotalLabelEntries() const;

  /// Persists the arenas as a MEL3 container (sector-aligned checksummed
  /// blocks, wrapping inner format "MELD").
  Status Save(const std::string& path) const;

  /// Copying load. Accepts both MEL3 containers (written by Save) and
  /// legacy length-prefixed "MELD" files; either way the arenas land in
  /// owned heap storage and are fully validated. The graph must be the
  /// same one the index was built from (node count is validated).
  static Result<DistanceLabelIndex> Load(const std::string& path,
                                         const graph::DirectedGraph* g);

  /// Zero-deserialization load: binds the arena spans straight into a
  /// read-only mapping of the MEL3 file. See TwoHopIndex::LoadMapped for
  /// the validation contract.
  static Result<DistanceLabelIndex> LoadMapped(
      const std::string& path, const graph::DirectedGraph* g,
      const util::MmapLoadOptions& opts = {});

  /// True when the arenas view a file mapping instead of owned heap
  /// storage.
  bool IsMapped() const { return mapping_ != nullptr; }
  /// Size of the backing mapping (0 for heap-resident indexes).
  uint64_t MappedBytes() const {
    return mapping_ ? mapping_->size() : 0;
  }

  std::span<const Label> in_labels(NodeId v) const {
    return in_entries_.view().subspan(
        in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]);
  }
  std::span<const Label> out_labels(NodeId v) const {
    return out_entries_.view().subspan(
        out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]);
  }

 private:
  DistanceLabelIndex(const graph::DirectedGraph* g, uint32_t max_hops);

  void ProcessLandmark(NodeId landmark, bool forward);

  /// Insert-patch body of OnGraphMutation (graph already mutated, arenas
  /// still pre-insert and serving as the old-distance oracle).
  void PatchInsertedEdge(const MutationContext& ctx);

  /// Flattens the per-node build vectors onto the arenas and releases
  /// them (plus the BFS scratch).
  void FinalizeArenas();

  /// Structural / content validation shared by every load path; see
  /// TwoHopIndex for the split.
  Status ValidateOffsets() const;
  Status ValidateNodeIds() const;

  /// Copies any view-state arenas into owned heap storage and drops the
  /// mapping (the final step of the MEL3 copying load).
  void MaterializeOwned();

  const graph::DirectedGraph* g_;
  uint32_t max_hops_;

  // Arena storage: entries sorted by hub node within each node's span.
  // Each arena either owns heap storage (Build / copying Load) or views
  // the file mapping below (LoadMapped).
  util::ArenaRef<uint64_t> in_offsets_;   // n + 1
  util::ArenaRef<Label> in_entries_;
  util::ArenaRef<uint64_t> out_offsets_;  // n + 1
  util::ArenaRef<Label> out_entries_;

  // Keeps the MEL3 mapping alive while any arena views it.
  std::shared_ptr<const util::MmapFile> mapping_;

  // Construction scratch (empty after Build / in loaded indexes).
  std::vector<std::vector<Label>> build_in_labels_;
  std::vector<std::vector<Label>> build_out_labels_;
  std::vector<uint32_t> hub_dist_;
  std::vector<uint8_t> visited_;  // node examined by the current BFS
};

}  // namespace mel::reach

#endif  // MEL_REACH_DISTANCE_LABEL_INDEX_H_
