#ifndef MEL_REACH_TWO_HOP_INDEX_H_
#define MEL_REACH_TWO_HOP_INDEX_H_

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
#include "util/thread_pool.h"

namespace mel::reach {

/// \brief Extended 2-hop cover for weighted reachability (Sec. 4.1.1,
/// Algorithm 2).
///
/// A pruned-landmark-labeling index where, unlike classic reachability
/// labels, the out-labels additionally carry the followee sets needed by
/// Eq. 4:
///
///   L_in(v)  = { (s, d_sv) }            — landmarks reaching v
///   L_out(v) = { (t, d_vt, F_vt) }      — landmarks reachable from v,
///                                          with v's followees on the
///                                          shortest paths to t
///
/// A query unions the followee sets of every minimum-distance meeting
/// landmark (Theorem 2), recovering the exact F_uv. Distances are bounded
/// by H hops, matching the transitive-closure backend.
///
/// Storage is arena-flattened: labels live in three contiguous arrays
/// (in-entries, out-entries, followee node ids) addressed by per-node
/// prefix offsets — no per-label heap vectors. An out-label is the span
/// record (node, dist) in `out_entries_` plus the half-open followee
/// range [followee_offsets_[i], followee_offsets_[i+1]) into the id
/// arena. Queries intersect spans in place; the count-only path
/// (CountQuery/ScoreOnly) never materializes F_uv at all.
class TwoHopIndex : public WeightedReachability {
 public:
  struct InLabel {
    NodeId node;
    uint32_t dist;
  };
  /// Arena span record of one out-label; the followee ids of entry i
  /// (global index) occupy followee_arena_[followee_offsets_[i] ..
  /// followee_offsets_[i + 1]).
  struct OutSpan {
    NodeId node;
    uint32_t dist;
  };

  /// Builds the index; landmarks are processed in descending total-degree
  /// order (Algorithm 2 line 1). The graph must outlive the index.
  ///
  /// The landmark loop is sequential (each landmark's BFS prunes against
  /// the labels of all earlier ones) and queries each node's labels once
  /// per landmark and pass, not once per BFS edge. The final per-node
  /// label sort pass fans out on `pool` (nullptr = the shared pool).
  /// Construction uses per-node scratch vectors, then flattens them onto
  /// the arenas in node order — output is bit-identical to a 1-thread
  /// build.
  static TwoHopIndex Build(const graph::DirectedGraph* g, uint32_t max_hops,
                           util::ThreadPool* pool = nullptr);

  double Score(NodeId u, NodeId v) const override;
  ReachQueryResult Query(NodeId u, NodeId v) const override;
  ReachCountResult CountQuery(NodeId u, NodeId v) const override;
  double ScoreOnly(NodeId u, NodeId v) const override;
  uint64_t IndexSizeBytes() const override;
  const char* Name() const override { return "2-hop-cover"; }

  /// \brief Mutate-or-invalidate contract.
  ///
  /// Insertion of (u, v) is patched as an edit list merged into fresh
  /// arenas. First the edits are collected against the untouched
  /// pre-insert labels: existing out-labels whose distance can route
  /// through the new edge get the closed form
  /// d' = min(d, d(s,u) + 1 + d(v,h)) and a recomputed followee set,
  /// and hub u (and hub v for the (u, b) pairs, whose degenerate
  /// source-hub carries no followee span) is upserted on the affected
  /// region so every pair routing through the edge keeps a
  /// minimum-distance meeting hub. Then one pass writes new arenas in
  /// node order, copying untouched runs in bulk and applying the
  /// in-label closed form as it goes. The current arenas are never
  /// written (they may view a read-only mapping), so a mapped index
  /// becomes heap-owned when patched. The patched index can carry MORE
  /// labels than a fresh build — equality with a rebuild holds on query
  /// results, not on label structure.
  ///
  /// Erasure rebuilds, off the serving barrier: a decremental cover
  /// update is unsound because the pair's new shortest path was
  /// non-shortest before and is in no label. The hook computes the
  /// stale-source set S = {x : d(x,u) + 1 <= H and
  /// d_old(x,v) = d(x,u) + 1} (u included), copies the mutated graph,
  /// and queues Build(copy) on ctx.maintenance (required) with a
  /// single-participant pool. A pair (x,b) can change distance only if
  /// every old shortest path used (u,v), which puts x in S; a followee
  /// t can leave F_xb only if its own shortest paths to b all used
  /// (u,v), and then x -> t ~> u -> v ~> b was a shortest path too,
  /// which again puts x in S; only |F_u| changes, and u is in S. So
  /// until the build publishes, queries from S run a BFS over the live
  /// graph (NaiveReachability; bitwise equal, since every backend
  /// funnels through WeightedScoreFromCount) and all others keep using
  /// the old labels. Once it publishes, every query uses the new labels;
  /// the next hook installs them (waiting if needed) and repoints the
  /// index at the live graph. Save and the structure accessors below
  /// wait for the build and describe the rebuilt labels, byte for byte
  /// a fresh Build of the mutated graph. Copies of an index share a
  /// pending rebuild.
  MutationResult OnGraphMutation(const MutationContext& ctx) override;

  /// Total number of in-label plus out-label entries (index-size metric).
  uint64_t TotalLabelEntries() const;

  uint64_t NumInEntries() const { return Settled().in_entries_.size(); }
  uint64_t NumOutEntries() const { return Settled().out_entries_.size(); }
  uint64_t NumFolloweeIds() const {
    return Settled().followee_arena_.size();
  }

  /// What the same labels cost in the pre-arena layout (one heap vector
  /// per out-label, one vector-of-vectors per side): per-node vector
  /// headers, per-label inline vector headers, and the followee heap
  /// blocks. Reported by bench_reachability_index as the layout A/B
  /// baseline.
  uint64_t LegacyIndexSizeBytes() const;

  /// Persists the labels as a MEL3 container: fixed 64-byte header +
  /// block table, then the six arenas as sector-aligned (4096 B)
  /// checksummed blocks. Deterministic — save/load/save is
  /// byte-identical.
  Status Save(const std::string& path) const;

  /// Copying load. Accepts both MEL3 containers (written by Save) and
  /// legacy length-prefixed "MEL2" files; either way the arenas land in
  /// owned heap storage and are fully validated (offsets, node ids, and
  /// — for MEL3 — block checksums). The graph must be the same one the
  /// index was built from (node count is validated).
  static Result<TwoHopIndex> Load(const std::string& path,
                                  const graph::DirectedGraph* g);

  /// Zero-deserialization load: maps the MEL3 file read-only and binds
  /// the arena spans straight into the mapping — no copies, no arena
  /// allocation. Validates the header, block table, and offset arrays;
  /// block payloads are trusted unless `opts.verify_checksums` is set
  /// (which additionally checksums every block and range-checks every
  /// node id, touching all pages like the copying load would).
  /// Queries are bit-identical to the heap-built index; the mapping is
  /// released when the last index sharing it is destroyed.
  static Result<TwoHopIndex> LoadMapped(
      const std::string& path, const graph::DirectedGraph* g,
      const util::MmapLoadOptions& opts = {});

  /// True when the arenas view a file mapping instead of owned heap
  /// storage.
  bool IsMapped() const { return Settled().mapping_ != nullptr; }
  /// Size of the backing mapping (0 for heap-resident indexes).
  uint64_t MappedBytes() const {
    const TwoHopIndex& s = Settled();
    return s.mapping_ ? s.mapping_->size() : 0;
  }

  std::span<const InLabel> in_labels(NodeId v) const {
    return Settled().InLabelsOf(v);
  }
  std::span<const OutSpan> out_labels(NodeId v) const {
    return Settled().OutLabelsOf(v);
  }
  /// Global entry index of v's first out-label; add the position within
  /// out_labels(v) to address its followee span below.
  uint64_t out_offset(NodeId v) const { return Settled().out_offsets_[v]; }
  /// Followee ids of the out-label with GLOBAL entry index i (i.e.
  /// out_offset(v) + position within out_labels(v)).
  std::span<const NodeId> followees(uint64_t out_entry_index) const {
    return Settled().FolloweesAt(out_entry_index);
  }

 private:
  /// Construction-time out-label before flattening: followees still in a
  /// per-label vector (append-heavy BFS phase), converted to arena spans
  /// by FinalizeArenas.
  struct BuildOutLabel {
    NodeId node;
    uint32_t dist;
    std::vector<NodeId> followees;  // sorted after Build's sort pass
  };

  /// Construction-time BFS scratch keyed by node id, shared by the
  /// backward and forward pass of every landmark (defined in the .cc).
  struct LandmarkScratch;
  /// An out-label the insert patch writes instead of copying (defined in
  /// the .cc).
  struct OutEdit;
  /// Per-thread query scratch (defined in the .cc).
  struct QueryScratch;
  /// An erase's rebuild while it is queued or running: the graph
  /// snapshot it builds from, the stale-source set S, the live-graph
  /// BFS backend that answers for S, and the published result.
  struct PendingRebuild;

  explicit TwoHopIndex(const graph::DirectedGraph* g, uint32_t max_hops);

  // Raw arena views: the query and patch paths read the labels this
  // object holds, pending rebuild or not.
  std::span<const InLabel> InLabelsOf(NodeId v) const {
    return in_entries_.view().subspan(
        in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]);
  }
  std::span<const OutSpan> OutLabelsOf(NodeId v) const {
    return out_entries_.view().subspan(
        out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]);
  }
  std::span<const NodeId> FolloweesAt(uint64_t i) const {
    return followee_arena_.view().subspan(
        followee_offsets_[i], followee_offsets_[i + 1] - followee_offsets_[i]);
  }

  /// The index whose labels describe the current graph: *this, or —
  /// after waiting for it — the pending rebuild's result.
  const TwoHopIndex& Settled() const {
    return pending_ == nullptr ? *this : WaitForRebuild();
  }
  const TwoHopIndex& WaitForRebuild() const;

  /// Where a query from source u goes while a rebuild is pending: the
  /// published rebuild, the live-graph BFS for stale sources, or
  /// nullptr for the labels of *this.
  const WeightedReachability* PendingRoute(NodeId u) const;

  /// Erase body of OnGraphMutation (see the contract above).
  void ScheduleRebuild(const MutationContext& ctx);
  /// Replaces the labels with the pending rebuild's (waiting for it) and
  /// points the index at `live`; no-op when nothing is pending.
  void InstallRebuild(const graph::DirectedGraph* live);

  static QueryScratch& TlsQueryScratch();
  /// |union| of the followee spans collected in `scratch`.
  uint32_t CountSpanUnion(QueryScratch& scratch) const;

  void ProcessLandmarkBackward(NodeId landmark, LandmarkScratch& scratch);
  void ProcessLandmarkForward(NodeId landmark, LandmarkScratch& scratch);

  /// Distance-only lookups against one node's labels, scattered once
  /// into a node-indexed table. After ScatterFrom(s), Distance(x) is the
  /// label distance d(s, x); after ScatterTo(t), it is d(x, t). Either
  /// way one lookup scans only x's own label list on the other side. It
  /// meets the same hubs as CollectMinDistanceSpans, the degenerate
  /// w = s and w = t ones included, and applies the same > H cut, so it
  /// returns the same dmin, s == t included.
  class HubTable {
   public:
    explicit HubTable(const TwoHopIndex& index);
    void ScatterFrom(NodeId s);
    void ScatterTo(NodeId t);
    uint32_t Distance(NodeId x) const;

   private:
    void Scatter(NodeId center, bool from);

    const TwoHopIndex& index_;
    NodeId center_ = 0;
    bool from_ = true;
    std::vector<uint32_t> dist_;  // kUnreachableDistance off the hubs
    std::vector<NodeId> hubs_;    // the entries Scatter set
  };
  friend struct TwoHopIndexPeer;  // tests: HubTable against the spans

  /// Insert-patch body of OnGraphMutation: the graph already contains
  /// the edge, the arenas still predate it and serve as the old-distance
  /// oracle while the edits are collected; the merge then replaces them.
  void PatchInsertedEdge(const MutationContext& ctx);
  /// Writes fresh arenas: the current ones with `edits` (sorted by
  /// entry) applied to the out-labels, and the in-label closed form plus
  /// the hub-u (distance `in_hub_u[b]`, kUnreachableDistance for none)
  /// and hub-v upserts applied to the in-labels. Returns the number of
  /// entries it wrote other than by copying.
  uint64_t MergePatch(const MutationContext& ctx,
                      const std::vector<OutEdit>& edits,
                      const std::vector<NodeId>& edit_followees,
                      const std::vector<uint32_t>& in_hub_u);

  /// Flattens Build's per-node vectors onto the arenas (node order,
  /// deterministic) and releases the construction scratch.
  void FinalizeArenas();

  /// Publishes reach.arena.* gauges for this index's arenas.
  void PublishArenaMetrics() const;

  /// Pass 1 + hub collection: returns d_uv (kUnreachableDistance when
  /// none) and fills `spans` with the GLOBAL out-entry indices of every
  /// hub achieving it, in ascending entry order.
  uint32_t CollectMinDistanceSpans(NodeId u, NodeId v,
                                   std::vector<uint64_t>& spans) const;
  /// CollectMinDistanceSpans for a query: also records the entries it
  /// merges in reach.twohop.labels_scanned (the insert patch and the
  /// erase stale set read distances from a HubTable and record nothing).
  uint32_t QuerySpans(NodeId u, NodeId v, std::vector<uint64_t>& spans) const;

  /// Structural validation shared by every load path: offsets arrays
  /// must be monotone prefix sums covering their arenas. Content (node
  /// id) validation is separate — see ValidateNodeIds.
  Status ValidateOffsets() const;
  Status ValidateNodeIds() const;

  /// Copies any view-state arenas into owned heap storage and drops the
  /// mapping (the final step of the MEL3 copying load).
  void MaterializeOwned();

  const graph::DirectedGraph* g_;
  uint32_t max_hops_;

  // Build's construction scratch; empty once Build returns and in loaded
  // indexes.
  std::vector<std::vector<InLabel>> build_in_labels_;
  std::vector<std::vector<BuildOutLabel>> build_out_labels_;

  // Arena storage (see class comment). Offsets arrays have n + 1 /
  // num-out-entries + 1 elements; entry arrays are contiguous. Each
  // arena either owns heap storage (Build / copying Load) or views the
  // file mapping below (LoadMapped).
  util::ArenaRef<uint64_t> in_offsets_;
  util::ArenaRef<InLabel> in_entries_;
  util::ArenaRef<uint64_t> out_offsets_;
  util::ArenaRef<OutSpan> out_entries_;
  util::ArenaRef<uint64_t> followee_offsets_;
  util::ArenaRef<NodeId> followee_arena_;

  // Keeps the MEL3 mapping alive while any arena views it; shared so
  // copies of a mapped index stay valid and re-mapping the same file
  // twice yields independent lifetimes.
  std::shared_ptr<const util::MmapFile> mapping_;

  // Set by an erase hook, cleared by the next hook's install. Written
  // only inside hooks; queries read it (and the immutable parts of the
  // rebuild it points to) concurrently with the rebuild job.
  std::shared_ptr<PendingRebuild> pending_;
};

}  // namespace mel::reach

#endif  // MEL_REACH_TWO_HOP_INDEX_H_
