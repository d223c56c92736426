#include "reach/two_hop_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <type_traits>
#include <utility>

#include "graph/stats.h"
#include "reach/naive_reachability.h"
#include "reach/reach_metrics.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serial_executor.h"
#include "util/serialize.h"
#include "util/simd/simd.h"
#include "util/sorted_intersect.h"

namespace mel::reach {

namespace {

constexpr uint32_t kInf = kUnreachableDistance;

bool Contains(const std::vector<NodeId>& vec, NodeId x) {
  return std::find(vec.begin(), vec.end(), x) != vec.end();
}

struct TwoHopMetrics {
  metrics::Counter* lookups;
  metrics::Counter* unreachable;
  metrics::Histogram* labels_scanned;
  metrics::Histogram* build_ns;
  metrics::Counter* build_label_scans;
  metrics::Histogram* stale_sources;
  metrics::Counter* fallback_queries;
  metrics::Histogram* insert_patch_edits;
};

const TwoHopMetrics& GetTwoHopMetrics() {
  static const TwoHopMetrics m = [] {
    auto& reg = metrics::Registry();
    TwoHopMetrics hm;
    hm.lookups = reg.GetCounter("reach.twohop.lookups_total");
    hm.unreachable = reg.GetCounter("reach.twohop.unreachable_total");
    hm.labels_scanned = reg.GetHistogram("reach.twohop.labels_scanned");
    hm.build_ns = reg.GetHistogram("reach.twohop.build_ns");
    hm.build_label_scans =
        reg.GetCounter("reach.twohop.build_label_scans_total");
    hm.stale_sources = reg.GetHistogram("reach.twohop.stale_sources");
    hm.fallback_queries =
        reg.GetCounter("reach.twohop.fallback_queries_total");
    hm.insert_patch_edits =
        reg.GetHistogram("reach.twohop.insert_patch_edits");
    return hm;
  }();
  return m;
}

// Metric bundles resolved once at namespace scope instead of per query:
// the function-local statics above still pay a guard-variable load on
// every call, which shows up on the ScoreOnly hot path (millions of
// lookups per eval run). Both getters are self-initializing, so the
// dynamic-init order here is safe.
const TwoHopMetrics& g_twohop_metrics = GetTwoHopMetrics();
const ScoreOnlyMetrics& g_scoreonly_metrics = GetScoreOnlyMetrics();

}  // namespace

/// Per-thread query scratch: contributing-span indices, k-way merge
/// cursors, and an epoch-marked seen array for union counting. Reused
/// across queries so the steady-state hot path never allocates (vectors
/// keep their capacity between calls).
struct TwoHopIndex::QueryScratch {
  std::vector<uint64_t> spans;
  std::vector<uint64_t> cursors;
  std::vector<uint32_t> seen;
  uint32_t seen_epoch = 0;
};

TwoHopIndex::QueryScratch& TwoHopIndex::TlsQueryScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

struct TwoHopIndex::PendingRebuild {
  PendingRebuild(const graph::DirectedGraph& live, uint32_t max_hops)
      : graph(live), naive(&live, max_hops) {}

  const graph::DirectedGraph graph;  // the snapshot the job builds from
  const NaiveReachability naive;     // answers stale sources meanwhile
  std::vector<uint8_t> stale;        // 1 for every source in S
  // Written by the job before `ready`: the rebuilt index, or what Build
  // threw. A failed rebuild keeps routing as if still pending (exact),
  // and the next hook rethrows.
  std::unique_ptr<TwoHopIndex> index;
  std::exception_ptr error;
  std::atomic<bool> ready{false};
};

/// Each pass starts with SetHubs and ends with Reset, which restores
/// hub_dist to kInf and visited to 0 by walking only what the pass touched.
struct TwoHopIndex::LandmarkScratch {
  std::vector<uint32_t> hub_dist;  // d(hub, landmark) or d(landmark, hub)
  std::vector<uint32_t> pre_dist;  // backward: d over pre-landmark labels
  std::vector<uint8_t> visited;    // node already examined by this pass
  std::vector<NodeId> hubs;
  std::vector<NodeId> visited_nodes;
  std::vector<std::pair<NodeId, uint32_t>> queue;  // (node, BFS length)
  uint64_t label_scans = 0;  // reach.twohop.build_label_scans_total

  explicit LandmarkScratch(uint32_t num_nodes)
      : hub_dist(num_nodes, kInf), pre_dist(num_nodes, kInf),
        visited(num_nodes, 0) {}

  /// Loads the landmark's own labels as meeting hubs and seeds the queue
  /// with the landmark.
  template <typename Label>
  void SetHubs(NodeId landmark, const std::vector<Label>& meet_labels) {
    for (const Label& label : meet_labels) {
      hub_dist[label.node] = label.dist;
      hubs.push_back(label.node);
    }
    hub_dist[landmark] = 0;
    hubs.push_back(landmark);
    queue.clear();
    queue.emplace_back(landmark, 0);
  }

  /// Marks x visited; false when it already was.
  bool Visit(NodeId x) {
    if (visited[x]) return false;
    visited[x] = 1;
    visited_nodes.push_back(x);
    return true;
  }

  void Reset() {
    for (NodeId w : hubs) hub_dist[w] = kInf;
    for (NodeId x : visited_nodes) visited[x] = 0;
    hubs.clear();
    visited_nodes.clear();
  }

  /// min over labels of dist + hub_dist[hub]; kInf when no label meets a
  /// hub. 64-bit sums make a kInf hub distance an ordinary large term:
  /// no branch per entry, and the minimum never drops below kInf via it.
  template <typename Label>
  uint32_t MinDistance(const std::vector<Label>& labels) {
    uint64_t dmin = kInf;
    for (const Label& label : labels) {
      dmin = std::min(dmin, uint64_t{label.dist} + hub_dist[label.node]);
    }
    label_scans += labels.size();
    return static_cast<uint32_t>(dmin);
  }

  /// Whether u is already in the union of the followee sets of every
  /// label achieving distance d (the unioned F of Theorem 2).
  bool OnMinPath(const std::vector<BuildOutLabel>& labels, uint32_t d,
                 NodeId u) {
    label_scans += labels.size();
    for (const BuildOutLabel& label : labels) {
      if (uint64_t{label.dist} + hub_dist[label.node] == d &&
          Contains(label.followees, u)) {
        return true;
      }
    }
    return false;
  }
};

TwoHopIndex::TwoHopIndex(const graph::DirectedGraph* g, uint32_t max_hops)
    : g_(g), max_hops_(max_hops) {}

TwoHopIndex TwoHopIndex::Build(const graph::DirectedGraph* g,
                               uint32_t max_hops, util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::Shared();
  TwoHopIndex index(g, max_hops);
  index.build_in_labels_.resize(g->num_nodes());
  index.build_out_labels_.resize(g->num_nodes());
  metrics::ScopedStageTimer build_timer(g_twohop_metrics.build_ns);
  // The backward pass reads build_in_labels_[landmark] and appends to
  // out-labels of other nodes; the forward pass reads
  // build_out_labels_[landmark] and appends to in-labels of other nodes
  // (each skips the landmark itself). Their footprints are disjoint, so
  // the pass order within a landmark does not matter; the landmark order
  // does (each BFS prunes against all earlier landmarks' labels).
  LandmarkScratch scratch(g->num_nodes());
  // Algorithm 2 line 1: landmarks in descending degree order, so that hub
  // nodes prune the most subsequent label entries.
  const auto degrees = graph::TotalDegrees(*g);
  for (NodeId landmark : graph::NodesByDegreeDescending(*g, degrees)) {
    index.ProcessLandmarkBackward(landmark, scratch);
    index.ProcessLandmarkForward(landmark, scratch);
  }
  g_twohop_metrics.build_label_scans->Increment(scratch.label_scans);
  // Canonical ordering enables two-pointer intersection at query time.
  // Nodes are independent here, so the sort/dedup pass fans out.
  const uint32_t n = g->num_nodes();
  pool->ParallelFor(0, n, 64, [&](size_t v) {
    auto& ins = index.build_in_labels_[v];
    std::sort(ins.begin(), ins.end(),
              [](const InLabel& a, const InLabel& b) {
                return a.node < b.node;
              });
    auto& outs = index.build_out_labels_[v];
    std::sort(outs.begin(), outs.end(),
              [](const BuildOutLabel& a, const BuildOutLabel& b) {
                return a.node < b.node;
              });
    for (auto& label : outs) {
      std::sort(label.followees.begin(), label.followees.end());
    }
  });
  index.FinalizeArenas();
  return index;
}

void TwoHopIndex::FinalizeArenas() {
  const uint32_t n = g_->num_nodes();
  std::vector<uint64_t> in_offsets(n + 1, 0);
  std::vector<uint64_t> out_offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    in_offsets[v + 1] = in_offsets[v] + build_in_labels_[v].size();
    out_offsets[v + 1] = out_offsets[v] + build_out_labels_[v].size();
  }
  std::vector<InLabel> in_entries(in_offsets[n]);
  std::vector<OutSpan> out_entries(out_offsets[n]);
  std::vector<uint64_t> followee_offsets(out_offsets[n] + 1, 0);

  uint64_t followee_total = 0;
  {
    uint64_t e = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (const BuildOutLabel& label : build_out_labels_[v]) {
        followee_offsets[e] = followee_total;
        followee_total += label.followees.size();
        ++e;
      }
    }
    followee_offsets[out_offsets[n]] = followee_total;
  }
  std::vector<NodeId> followee_arena(followee_total);

  for (NodeId v = 0; v < n; ++v) {
    std::copy(build_in_labels_[v].begin(), build_in_labels_[v].end(),
              in_entries.begin() + static_cast<ptrdiff_t>(in_offsets[v]));
    uint64_t e = out_offsets[v];
    for (const BuildOutLabel& label : build_out_labels_[v]) {
      out_entries[e] = OutSpan{label.node, label.dist};
      std::copy(label.followees.begin(), label.followees.end(),
                followee_arena.begin() +
                    static_cast<ptrdiff_t>(followee_offsets[e]));
      ++e;
    }
  }

  in_offsets_.Own(std::move(in_offsets));
  in_entries_.Own(std::move(in_entries));
  out_offsets_.Own(std::move(out_offsets));
  out_entries_.Own(std::move(out_entries));
  followee_offsets_.Own(std::move(followee_offsets));
  followee_arena_.Own(std::move(followee_arena));

  // Release the construction scratch; the arenas are the index now.
  build_in_labels_ = {};
  build_out_labels_ = {};
  PublishArenaMetrics();
  PublishMmapLoadMetrics(kLoadModeBuilt, 0,
                         util::MmapFile::Advice::kNormal);
}

void TwoHopIndex::PublishArenaMetrics() const {
  const ArenaMetrics& am = GetArenaMetrics();
  am.in_entries->Set(static_cast<int64_t>(in_entries_.size()));
  am.out_entries->Set(static_cast<int64_t>(out_entries_.size()));
  am.followee_ids->Set(static_cast<int64_t>(followee_arena_.size()));
  am.bytes->Set(static_cast<int64_t>(IndexSizeBytes()));
}

// During landmark L's BFS a node's labels change only when that node
// itself gains (or extends) its L entry, and BFS lengths never decrease.
// So each node needs one label query per landmark: the first time it is
// examined its pre-landmark distance is final, and every later edge is
// decided by combining that distance with its own L entry.
void TwoHopIndex::ProcessLandmarkBackward(NodeId landmark,
                                          LandmarkScratch& scratch) {
  // hub_dist[w] = d(w, landmark) for every hub w that queries may meet at.
  scratch.SetHubs(landmark, build_in_labels_[landmark]);
  auto& queue = scratch.queue;
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [u, len_u] = queue[head];
    if (len_u >= max_hops_) continue;
    const uint32_t len = len_u + 1;
    for (NodeId s : g_->InNeighbors(u)) {
      if (s == landmark) continue;
      auto& labels = build_out_labels_[s];
      if (scratch.Visit(s)) scratch.pre_dist[s] = scratch.MinDistance(labels);
      // Entries for this landmark are only appended during this BFS, so
      // if one exists it is the most recent.
      const bool has_entry = !labels.empty() && labels.back().node == landmark;
      const uint32_t d = has_entry
                             ? std::min(scratch.pre_dist[s], labels.back().dist)
                             : scratch.pre_dist[s];
      if (len < d) {
        // A strictly shorter path s -> u ~> landmark: record the landmark
        // as a hub of s, remembering followee u (Algorithm 2 lines 11-19).
        labels.push_back(BuildOutLabel{landmark, len, {u}});
        if (len < max_hops_) queue.emplace_back(s, len);
      } else if (len == d && !scratch.OnMinPath(labels, d, u)) {
        // A new shortest path through followee u (lines 20-27). Distances
        // of s's ancestors are unchanged, so s is not re-enqueued.
        if (has_entry) {
          MEL_CHECK(labels.back().dist == len);
          labels.back().followees.push_back(u);
        } else {
          labels.push_back(BuildOutLabel{landmark, len, {u}});
        }
      }
    }
  }
  scratch.Reset();
}

void TwoHopIndex::ProcessLandmarkForward(NodeId landmark,
                                         LandmarkScratch& scratch) {
  scratch.SetHubs(landmark, build_out_labels_[landmark]);
  auto& queue = scratch.queue;
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [u, len_u] = queue[head];
    if (len_u >= max_hops_) continue;
    const uint32_t len = len_u + 1;
    for (NodeId t : g_->OutNeighbors(u)) {
      // L_in carries distances only, and t's first examination has the
      // shortest len it will see: that one query decides whether t gains
      // an entry (Algorithm 2 line 30), so later edges into t are skipped.
      if (t == landmark || !scratch.Visit(t)) continue;
      if (len < scratch.MinDistance(build_in_labels_[t])) {
        build_in_labels_[t].push_back(InLabel{landmark, len});
        if (len < max_hops_) queue.emplace_back(t, len);
      }
    }
  }
  scratch.Reset();
}

uint32_t TwoHopIndex::CollectMinDistanceSpans(
    NodeId u, NodeId v, std::vector<uint64_t>& spans) const {
  spans.clear();
  const auto outs = OutLabelsOf(u);
  const auto ins = InLabelsOf(v);

  // Degenerate hub w = u as an entry of L_in(v): contributes a distance
  // but no out-entry span. Labels are sorted by hub node, so it — and
  // the w = v entry below — are binary searches, not linear scans.
  // Seeding dmin with it first lets the main walk run the running-min
  // collection without ever re-filtering.
  uint32_t dmin = kInf;
  {
    auto it = std::lower_bound(
        ins.begin(), ins.end(), u,
        [](const InLabel& l, NodeId x) { return l.node < x; });
    if (it != ins.end() && it->node == u) dmin = it->dist;
  }

  // Single fused walk over both sorted label lists (the old layout
  // needed two passes — min, then collect — because labels lived in
  // per-node vectors). Spans are collected against the running minimum:
  // a strictly smaller distance resets the list, an equal one appends,
  // so at the end `spans` holds exactly the hubs achieving dmin
  // (Theorem 2) in walk order. The walk itself is the dispatched
  // min-sum kernel: both label structs are exactly a little-endian
  // (node lo32, dist hi32) u64 word, so the arenas reinterpret as the
  // packed layout the kernel wants with no copy.
  static_assert(sizeof(InLabel) == 8 && sizeof(OutSpan) == 8);
  static_assert(offsetof(InLabel, node) == 0 && offsetof(InLabel, dist) == 4);
  static_assert(offsetof(OutSpan, node) == 0 && offsetof(OutSpan, dist) == 4);
  static_assert(std::endian::native == std::endian::little,
                "packed u64 label view assumes little-endian");
  const uint64_t base = out_offsets_[u];
  {
    spans.resize(outs.size());
    size_t n_spans = 0;
    dmin = util::simd::MinSumSpansU64(
        reinterpret_cast<const uint64_t*>(outs.data()), outs.size(),
        reinterpret_cast<const uint64_t*>(ins.data()), ins.size(), dmin,
        base, spans.data(), &n_spans);
    spans.resize(n_spans);
  }
  // Degenerate hub w = v as an entry of L_out(u). L_in(v) never lists v
  // itself, so this entry cannot also have matched the intersection
  // above — no duplicate span indices.
  {
    auto it = std::lower_bound(
        outs.begin(), outs.end(), v,
        [](const OutSpan& o, NodeId x) { return o.node < x; });
    if (it != outs.end() && it->node == v && it->dist <= dmin) {
      if (it->dist < dmin) {
        dmin = it->dist;
        spans.clear();
      }
      spans.push_back(base + static_cast<uint64_t>(it - outs.begin()));
    }
  }
  if (dmin == kInf || dmin > max_hops_) {
    spans.clear();
    return kInf;
  }
  return dmin;
}

uint32_t TwoHopIndex::QuerySpans(NodeId u, NodeId v,
                                 std::vector<uint64_t>& spans) const {
  if (metrics::Enabled()) {
    g_twohop_metrics.labels_scanned->Record(OutLabelsOf(u).size() +
                                            InLabelsOf(v).size());
  }
  return CollectMinDistanceSpans(u, v, spans);
}

const TwoHopIndex& TwoHopIndex::WaitForRebuild() const {
  pending_->ready.wait(false, std::memory_order_acquire);
  if (pending_->index == nullptr) std::rethrow_exception(pending_->error);
  return *pending_->index;
}

const WeightedReachability* TwoHopIndex::PendingRoute(NodeId u) const {
  const PendingRebuild& p = *pending_;
  if (p.ready.load(std::memory_order_acquire) && p.index != nullptr) {
    return p.index.get();
  }
  if (p.stale[u] == 0) return nullptr;
  g_twohop_metrics.fallback_queries->Increment();
  return &p.naive;
}

ReachQueryResult TwoHopIndex::Query(NodeId u, NodeId v) const {
  if (pending_ != nullptr) [[unlikely]] {
    if (const WeightedReachability* r = PendingRoute(u)) return r->Query(u, v);
  }
  const TwoHopMetrics& hm = g_twohop_metrics;
  hm.lookups->Increment();
  ReachQueryResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  QueryScratch& scratch = TlsQueryScratch();
  const uint32_t dmin = QuerySpans(u, v, scratch.spans);
  if (dmin == kInf) {
    hm.unreachable->Increment();
    return result;
  }
  result.distance = dmin;

  const auto& spans = scratch.spans;
  if (spans.empty()) return result;
  if (spans.size() == 1) {
    // Followees of one label are already sorted and duplicate-free.
    const auto f = FolloweesAt(spans[0]);
    result.followees.assign(f.begin(), f.end());
    return result;
  }
  // Single k-way merge over the sorted arena spans, skipping duplicates
  // as it goes — replaces the old concat + sort + std::unique pass.
  auto& cursors = scratch.cursors;
  cursors.assign(spans.size(), 0);
  for (;;) {
    NodeId next = 0;
    bool any = false;
    for (size_t k = 0; k < spans.size(); ++k) {
      const auto f = FolloweesAt(spans[k]);
      if (cursors[k] < f.size() && (!any || f[cursors[k]] < next)) {
        next = f[cursors[k]];
        any = true;
      }
    }
    if (!any) break;
    result.followees.push_back(next);
    for (size_t k = 0; k < spans.size(); ++k) {
      const auto f = FolloweesAt(spans[k]);
      if (cursors[k] < f.size() && f[cursors[k]] == next) ++cursors[k];
    }
  }
  return result;
}

/// |union| over the collected arena spans, never materializing it.
/// One span is its own union; two spans use |A| + |B| − |A ∩ B| with the
/// merge/gallop kernel shared with the WLM inlink intersection; more
/// spans mark an epoch-versioned seen array — O(1) per element instead
/// of a k-way comparison per emitted node.
uint32_t TwoHopIndex::CountSpanUnion(QueryScratch& scratch) const {
  const auto& spans = scratch.spans;
  if (spans.empty()) return 0;
  if (spans.size() == 1) {
    return static_cast<uint32_t>(FolloweesAt(spans[0]).size());
  }
  if (spans.size() == 2) {
    const auto a = FolloweesAt(spans[0]);
    const auto b = FolloweesAt(spans[1]);
    return static_cast<uint32_t>(a.size() + b.size()) -
           util::SortedIntersectCount(a, b);
  }
  const uint32_t num_nodes = g_->num_nodes();
  if (scratch.seen.size() < num_nodes) scratch.seen.resize(num_nodes, 0);
  if (++scratch.seen_epoch == 0) {
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0u);
    scratch.seen_epoch = 1;
  }
  const uint32_t epoch = scratch.seen_epoch;
  uint32_t count = 0;
  for (uint64_t s : spans) {
    for (NodeId t : FolloweesAt(s)) {
      if (scratch.seen[t] != epoch) {
        scratch.seen[t] = epoch;
        ++count;
      }
    }
  }
  return count;
}

ReachCountResult TwoHopIndex::CountQuery(NodeId u, NodeId v) const {
  if (pending_ != nullptr) [[unlikely]] {
    if (const WeightedReachability* r = PendingRoute(u)) {
      return r->CountQuery(u, v);
    }
  }
  const ScoreOnlyMetrics& sm = g_scoreonly_metrics;
  sm.lookups->Increment();
  ReachCountResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  QueryScratch& scratch = TlsQueryScratch();
  const uint32_t dmin = QuerySpans(u, v, scratch.spans);
  if (dmin == kInf) {
    sm.unreachable->Increment();
    return result;
  }
  result.distance = dmin;
  result.followee_count = CountSpanUnion(scratch);
  return result;
}

double TwoHopIndex::Score(NodeId u, NodeId v) const {
  return WeightedScore(Query(u, v), g_->OutDegree(u), u == v);
}

double TwoHopIndex::ScoreOnly(NodeId u, NodeId v) const {
  if (pending_ != nullptr) [[unlikely]] {
    if (const WeightedReachability* r = PendingRoute(u)) {
      return r->ScoreOnly(u, v);
    }
  }
  const ScoreOnlyMetrics& sm = g_scoreonly_metrics;
  sm.lookups->Increment();
  if (u == v) return 1.0;
  QueryScratch& scratch = TlsQueryScratch();
  const uint32_t dmin = QuerySpans(u, v, scratch.spans);
  if (dmin == kInf) {
    sm.unreachable->Increment();
    return 0.0;
  }
  // Eq. 4 ignores the followee count at distance 1 and for sink users,
  // so the union is only ever counted when it contributes to the score.
  if (dmin == 1) return 1.0;
  const uint32_t out_degree = g_->OutDegree(u);
  if (out_degree == 0) return 0.0;
  return WeightedScoreFromCount(dmin, CountSpanUnion(scratch), out_degree,
                                /*same_node=*/false);
}

uint64_t TwoHopIndex::TotalLabelEntries() const {
  if (pending_ != nullptr) return WaitForRebuild().TotalLabelEntries();
  return in_entries_.size() + out_entries_.size();
}

MutationResult TwoHopIndex::OnGraphMutation(const MutationContext& ctx) {
  InstallRebuild(ctx.graph);
  if (ctx.delta.op == graph::EdgeDelta::Op::kErase) {
    ScheduleRebuild(ctx);
    return MutationResult::kRebuilt;
  }
  PatchInsertedEdge(ctx);
  return MutationResult::kPatched;
}

void TwoHopIndex::InstallRebuild(const graph::DirectedGraph* live) {
  if (pending_ == nullptr) return;
  const TwoHopIndex& built = WaitForRebuild();
  // Move the labels out unless a copy of this index still shares them.
  TwoHopIndex rebuilt = pending_.use_count() == 1
                            ? std::move(*pending_->index)
                            : TwoHopIndex(built);
  rebuilt.g_ = live;
  *this = std::move(rebuilt);  // drops pending_ and the graph snapshot
}

void TwoHopIndex::ScheduleRebuild(const MutationContext& ctx) {
  MEL_CHECK(ctx.maintenance != nullptr);
  const NodeId v = ctx.delta.v;
  const std::vector<uint32_t>& to_u = *ctx.dist_to_u;  // d(x, u)
  const uint32_t n = g_->num_nodes();
  auto pending = std::make_shared<PendingRebuild>(*ctx.graph, max_hops_);

  // S holds the sources with a shortest path to v through (u, v)
  // (proof in the header): d(x, u) is unchanged by the erase, and
  // d_old(x, v) comes from the labels, which still describe the
  // pre-erase graph.
  std::vector<uint8_t>& stale = pending->stale;
  stale.assign(n, 0);
  HubTable to_v(*this);
  to_v.ScatterTo(v);
  for (NodeId x = 0; x < n; ++x) {
    if (x == v || to_u[x] >= max_hops_) continue;  // kInf included
    stale[x] = to_v.Distance(x) == to_u[x] + 1;
  }
  if (metrics::Enabled()) {
    g_twohop_metrics.stale_sources->Record(static_cast<uint64_t>(
        std::count(stale.begin(), stale.end(), uint8_t{1})));
  }

  pending_ = pending;
  auto job = [pending = std::move(pending), max_hops = max_hops_] {
    // A one-participant pool: the rebuild never takes the shared pool's
    // submit lock from serving batches, and Build's output does not
    // depend on the thread count.
    try {
      util::ThreadPool solo(1);
      pending->index = std::make_unique<TwoHopIndex>(
          Build(&pending->graph, max_hops, &solo));
    } catch (...) {
      pending->error = std::current_exception();
    }
    pending->ready.store(true, std::memory_order_release);
    pending->ready.notify_all();
  };
  ctx.maintenance->Post(std::move(job));
}

TwoHopIndex::HubTable::HubTable(const TwoHopIndex& index)
    : index_(index), dist_(index.g_->num_nodes(), kInf) {}

void TwoHopIndex::HubTable::ScatterFrom(NodeId s) { Scatter(s, true); }
void TwoHopIndex::HubTable::ScatterTo(NodeId t) { Scatter(t, false); }

void TwoHopIndex::HubTable::Scatter(NodeId center, bool from) {
  for (NodeId w : hubs_) dist_[w] = kInf;
  hubs_.clear();
  auto set = [&](NodeId w, uint32_t d) {
    dist_[w] = d;
    hubs_.push_back(w);
  };
  if (from) {
    for (const OutSpan& l : index_.OutLabelsOf(center)) set(l.node, l.dist);
  } else {
    for (const InLabel& l : index_.InLabelsOf(center)) set(l.node, l.dist);
  }
  // The center as a hub: met by an entry for it in x's list (the
  // degenerate w = s of a (s, x) pair, or w = t of (x, t)).
  set(center, 0);
  center_ = center;
  from_ = from;
}

uint32_t TwoHopIndex::HubTable::Distance(NodeId x) const {
  // x as a hub of the center's list is the other degenerate hub; the
  // center has no entry for itself, so for x == center there is none.
  uint64_t d = x == center_ ? kInf : dist_[x];
  auto scan = [&](auto labels) {
    for (const auto& l : labels) {
      d = std::min(d, uint64_t{l.dist} + dist_[l.node]);
    }
  };
  if (from_) {
    scan(index_.InLabelsOf(x));
  } else {
    scan(index_.OutLabelsOf(x));
  }
  return d > index_.max_hops_ ? kInf : static_cast<uint32_t>(d);
}

/// An out-label the insert patch writes instead of copying: on node
/// `owner`, it replaces old entry `entry` or, when `insert`, goes in
/// before it. Its followees are
/// edit_followees[followee_begin .. followee_end).
struct TwoHopIndex::OutEdit {
  NodeId owner;
  uint64_t entry;
  bool insert;
  OutSpan label;
  uint64_t followee_begin;
  uint64_t followee_end;
};

namespace {

// d(s, u) + 1 + d(v, t): the length of s ~> u -> v ~> t, kInf past H.
uint32_t ThroughEdge(uint32_t s_to_u, uint32_t v_to_t, uint32_t max_hops) {
  if (s_to_u == kInf || v_to_t == kInf) return kInf;
  const uint32_t c = s_to_u + 1 + v_to_t;
  return c > max_hops ? kInf : c;
}

}  // namespace

void TwoHopIndex::PatchInsertedEdge(const MutationContext& ctx) {
  const NodeId u = ctx.delta.u;
  const NodeId v = ctx.delta.v;
  // Exact post-insert BFS distances; d(a, u) and d(v, b) cannot route
  // through (u, v) — such a walk revisits an endpoint — so they equal
  // the PRE-insert values too.
  const std::vector<uint32_t>& to_u = *ctx.dist_to_u;      // d(a, u)
  const std::vector<uint32_t>& from_v = *ctx.dist_from_v;  // d(v, b)
  const uint32_t n = g_->num_nodes();
  auto through = [&](NodeId s, NodeId t) {
    return ThroughEdge(to_u[s], from_v[t], max_hops_);
  };

  // Every distance below reads the arenas, which still describe the
  // pre-insert graph: the Q_old oracle the closed form needs.
  HubTable table(*this);

  // In-label (u -> b) upsert distances, from one scatter of L_out(u).
  // Guarded by the hop bound: 1 + from_v[b] can reach H + 1.
  std::vector<uint32_t> in_hub_u(n, kInf);
  table.ScatterFrom(u);
  for (NodeId b = 0; b < n; ++b) {
    if (b == u || from_v[b] == kInf) continue;
    const uint32_t through_b =
        from_v[b] + 1 > max_hops_ ? kInf : from_v[b] + 1;
    in_hub_u[b] = std::min(table.Distance(b), through_b);
  }

  // Out-label edits in entry order. Every node s reaching u gets one
  // upsert: (s, u, d(s, u)) with the first hops toward u as followees
  // (all within the BFS bound, since to_u[t] = to_u[s] - 1 <= H - 1), or
  // for u itself the edge (u, v, 1, {v}). An upsert overrides the closed
  // form fix of the label it replaces. The other labels (s, h, d, F) of
  // s are fixed when the through-edge candidate is <= d: a candidate of
  // exactly d leaves the distance alone but can add tied shortest
  // paths, so F is recomputed for it as well; a candidate of d + 1 or
  // more cannot even touch F (every followee's through-edge distance is
  // >= candidate - 1 >= d). The fixed F is the Theorem-1 followee set:
  // followees at new distance d' - 1 from the hub.
  std::vector<OutEdit> edits;
  std::vector<NodeId> edit_followees;
  for (NodeId s = 0; s < n; ++s) {
    if (to_u[s] == kInf) continue;
    const OutSpan upsert = s == u ? OutSpan{v, 1} : OutSpan{u, to_u[s]};
    const auto outs = OutLabelsOf(s);
    const size_t pos = static_cast<size_t>(
        std::lower_bound(
            outs.begin(), outs.end(), upsert.node,
            [](const OutSpan& o, NodeId x) { return o.node < x; }) -
        outs.begin());
    const bool replaces = pos < outs.size() && outs[pos].node == upsert.node;
    const uint64_t base = out_offsets_[s];
    for (size_t i = 0; i <= outs.size(); ++i) {
      if (i == pos) {
        edits.push_back(OutEdit{s, base + i, !replaces, upsert,
                                edit_followees.size(), 0});
        if (s == u) {
          edit_followees.push_back(v);
        } else {
          for (NodeId t : g_->OutNeighbors(s)) {
            if (to_u[t] != kInf && to_u[t] + 1 == to_u[s]) {
              edit_followees.push_back(t);
            }
          }
        }
        edits.back().followee_end = edit_followees.size();
        if (replaces) continue;
      }
      if (i == outs.size()) break;
      const NodeId hub = outs[i].node;
      const uint32_t cand = through(s, hub);
      if (cand > outs[i].dist) continue;  // kInf compares greater too
      const uint32_t dnew = std::min(outs[i].dist, cand);
      edits.push_back(OutEdit{s, base + i, false, OutSpan{hub, dnew},
                              edit_followees.size(), 0});
      table.ScatterTo(hub);
      for (NodeId t : g_->OutNeighbors(s)) {  // sorted, so F is too
        const uint32_t dt =
            std::min(t == hub ? 0 : table.Distance(t), through(t, hub));
        if (dt != kInf && dt + 1 == dnew) edit_followees.push_back(t);
      }
      edits.back().followee_end = edit_followees.size();
    }
  }

  const uint64_t written = MergePatch(ctx, edits, edit_followees, in_hub_u);
  if (metrics::Enabled()) {
    g_twohop_metrics.insert_patch_edits->Record(written);
  }
}

uint64_t TwoHopIndex::MergePatch(const MutationContext& ctx,
                                 const std::vector<OutEdit>& edits,
                                 const std::vector<NodeId>& edit_followees,
                                 const std::vector<uint32_t>& in_hub_u) {
  const NodeId u = ctx.delta.u;
  const NodeId v = ctx.delta.v;
  const std::vector<uint32_t>& to_u = *ctx.dist_to_u;
  const std::vector<uint32_t>& from_v = *ctx.dist_from_v;
  const uint32_t n = g_->num_nodes();
  uint64_t written = 0;

  // In-labels, node by node. A node that v does not reach keeps its
  // labels verbatim. Every other node b has each (h, d) fixed to
  // min(d, d(h, u) + 1 + d(v, b)) and gains hub u (min with the fixed
  // distance when it already has one) and hub v (b != v; a (u, b) pair
  // meets it at the (u, v, 1, {v}) out-label), in hub order.
  std::vector<uint64_t> in_offsets(n + 1);
  std::vector<InLabel> in_entries;
  in_entries.reserve(in_entries_.size() + 2 * uint64_t{n});
  for (NodeId b = 0; b < n; ++b) {
    in_offsets[b] = in_entries.size();
    const auto ins = InLabelsOf(b);
    if (from_v[b] == kInf) {
      in_entries.insert(in_entries.end(), ins.begin(), ins.end());
      continue;
    }
    InLabel upserts[2];
    size_t num_upserts = 0;
    if (in_hub_u[b] <= max_hops_) upserts[num_upserts++] = {u, in_hub_u[b]};
    if (b != v) upserts[num_upserts++] = {v, from_v[b]};
    if (num_upserts == 2 && v < u) std::swap(upserts[0], upserts[1]);
    size_t k = 0;
    for (const InLabel& label : ins) {
      for (; k < num_upserts && upserts[k].node < label.node; ++k) {
        in_entries.push_back(upserts[k]);
        ++written;
      }
      uint32_t d = std::min(label.dist,
                            ThroughEdge(to_u[label.node], from_v[b],
                                        max_hops_));
      bool upserted = false;
      if (k < num_upserts && upserts[k].node == label.node) {
        d = std::min(d, upserts[k++].dist);
        upserted = true;
      }
      in_entries.push_back(InLabel{label.node, d});
      written += upserted || d != label.dist;
    }
    for (; k < num_upserts; ++k) {
      in_entries.push_back(upserts[k]);
      ++written;
    }
  }
  in_offsets[n] = in_entries.size();

  // Out-labels in global entry order: the runs between edits are copied
  // in bulk, their followee offsets rebased onto the new arena.
  const auto old_outs = out_entries_.view();
  const auto old_starts = followee_offsets_.view();
  const auto old_followees = followee_arena_.view();
  std::vector<uint64_t> out_offsets(n + 1);
  uint64_t inserted = 0;
  uint64_t followee_total = old_followees.size() + edit_followees.size();
  {
    size_t e = 0;
    for (NodeId s = 0; s <= n; ++s) {
      for (; e < edits.size() && edits[e].owner < s; ++e) {
        const OutEdit& edit = edits[e];
        inserted += edit.insert;
        if (!edit.insert) {
          followee_total -=
              old_starts[edit.entry + 1] - old_starts[edit.entry];
        }
      }
      out_offsets[s] = out_offsets_[s] + inserted;
    }
  }
  std::vector<OutSpan> out_entries;
  std::vector<uint64_t> followee_offsets;
  std::vector<NodeId> followee_arena;
  out_entries.reserve(old_outs.size() + inserted);
  followee_offsets.reserve(old_outs.size() + inserted + 1);
  followee_arena.reserve(followee_total);
  uint64_t next = 0;  // first old entry not yet written
  auto copy_run = [&](uint64_t end) {
    if (next == end) return;
    out_entries.insert(out_entries.end(), old_outs.begin() + next,
                       old_outs.begin() + end);
    const uint64_t first = old_starts[next];
    const uint64_t base = followee_arena.size();
    for (uint64_t i = next; i < end; ++i) {
      followee_offsets.push_back(old_starts[i] - first + base);
    }
    followee_arena.insert(followee_arena.end(), old_followees.begin() + first,
                          old_followees.begin() + old_starts[end]);
    next = end;
  };
  for (const OutEdit& edit : edits) {
    copy_run(edit.entry);
    out_entries.push_back(edit.label);
    followee_offsets.push_back(followee_arena.size());
    followee_arena.insert(
        followee_arena.end(),
        edit_followees.begin() + static_cast<ptrdiff_t>(edit.followee_begin),
        edit_followees.begin() + static_cast<ptrdiff_t>(edit.followee_end));
    if (!edit.insert) ++next;
  }
  copy_run(old_outs.size());
  followee_offsets.push_back(followee_arena.size());
  written += edits.size();

  in_offsets_.Own(std::move(in_offsets));
  in_entries_.Own(std::move(in_entries));
  out_offsets_.Own(std::move(out_offsets));
  out_entries_.Own(std::move(out_entries));
  followee_offsets_.Own(std::move(followee_offsets));
  followee_arena_.Own(std::move(followee_arena));
  mapping_.reset();
  PublishArenaMetrics();
  PublishMmapLoadMetrics(kLoadModeBuilt, 0, util::MmapFile::Advice::kNormal);
  return written;
}

namespace {
constexpr uint32_t kTwoHopMagic = 0x4d454c32;  // "MEL2"
constexpr uint32_t kTwoHopVersion = 2;  // v2: arena-flattened labels

// Offsets arrays must be monotone prefix sums covering their arena.
bool ValidOffsets(std::span<const uint64_t> offsets, uint64_t expect_size,
                  uint64_t arena_size) {
  if (offsets.size() != expect_size) return false;
  if (offsets.front() != 0 || offsets.back() != arena_size) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return true;
}

}  // namespace

Status TwoHopIndex::Save(const std::string& path) const {
  if (pending_ != nullptr) return WaitForRebuild().Save(path);
  const Mel3BlockDesc blocks[] = {
      Mel3BlockDesc::Of(Mel3BlockKind::kInOffsets, in_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kInEntries, in_entries_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kOutOffsets, out_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kOutEntries, out_entries_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kFolloweeOffsets,
                        followee_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kFolloweeArena,
                        followee_arena_.view()),
  };
  return WriteMel3File(path, kTwoHopMagic, kTwoHopVersion,
                       static_cast<uint32_t>(g_->num_nodes()), max_hops_,
                       blocks);
}

Status TwoHopIndex::ValidateOffsets() const {
  const uint64_t n = g_->num_nodes();
  if (!ValidOffsets(in_offsets_.view(), n + 1, in_entries_.size()) ||
      !ValidOffsets(out_offsets_.view(), n + 1, out_entries_.size()) ||
      !ValidOffsets(followee_offsets_.view(), out_entries_.size() + 1,
                    followee_arena_.size())) {
    return Status::InvalidArgument("corrupt arena offsets");
  }
  return Status::OK();
}

Status TwoHopIndex::ValidateNodeIds() const {
  const uint32_t n = g_->num_nodes();
  for (const InLabel& label : in_entries_) {
    if (label.node >= n) {
      return Status::InvalidArgument("corrupt label node id");
    }
  }
  for (const OutSpan& label : out_entries_) {
    if (label.node >= n) {
      return Status::InvalidArgument("corrupt label node id");
    }
  }
  for (NodeId id : followee_arena_) {
    if (id >= n) {
      return Status::InvalidArgument("corrupt followee node id");
    }
  }
  return Status::OK();
}

Result<TwoHopIndex> TwoHopIndex::Load(const std::string& path,
                                      const graph::DirectedGraph* g) {
  uint32_t magic = 0;
  {
    BinaryReader sniff(path);
    magic = sniff.ReadU32();
    if (!sniff.status().ok()) return sniff.status();
  }
  if (magic == kMel3Magic) {
    // MEL3 copying load: map + fully verify (checksums, node ids), then
    // materialize the arenas into owned heap storage and drop the
    // mapping.
    util::MmapLoadOptions opts;
    opts.map.advice = util::MmapFile::Advice::kSequential;
    opts.verify_checksums = true;
    auto mapped = LoadMapped(path, g, opts);
    if (!mapped.ok()) return mapped.status();
    TwoHopIndex index = std::move(mapped).value();
    index.MaterializeOwned();
    return index;
  }
  if (magic != kTwoHopMagic) {
    return Status::InvalidArgument("not a 2-hop index file");
  }
  // Legacy "MEL2" copying load: length-prefixed blocks behind a 16-byte
  // header, exactly the pre-MEL3 wire format. Kept so indexes saved by
  // earlier builds keep loading.
  BinaryReader reader(path);
  reader.ReadU32();  // magic, already sniffed
  uint32_t version = reader.ReadU32();
  uint32_t n = reader.ReadU32();
  uint32_t max_hops = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (version != kTwoHopVersion) {
    return Status::InvalidArgument("unsupported index version");
  }
  if (n != g->num_nodes()) {
    return Status::FailedPrecondition(
        "index was built for a graph with a different node count");
  }
  TwoHopIndex index(g, max_hops);
  std::vector<uint64_t> in_offsets, out_offsets, followee_offsets;
  std::vector<InLabel> in_entries;
  std::vector<OutSpan> out_entries;
  std::vector<NodeId> followee_arena;
  reader.ReadVectorInto(&in_offsets);
  reader.ReadVectorInto(&in_entries);
  reader.ReadVectorInto(&out_offsets);
  reader.ReadVectorInto(&out_entries);
  reader.ReadVectorInto(&followee_offsets);
  reader.ReadVectorInto(&followee_arena);
  if (!reader.status().ok()) return reader.status();
  index.in_offsets_.Own(std::move(in_offsets));
  index.in_entries_.Own(std::move(in_entries));
  index.out_offsets_.Own(std::move(out_offsets));
  index.out_entries_.Own(std::move(out_entries));
  index.followee_offsets_.Own(std::move(followee_offsets));
  index.followee_arena_.Own(std::move(followee_arena));
  Status valid = index.ValidateOffsets();
  if (!valid.ok()) return valid;
  valid = index.ValidateNodeIds();
  if (!valid.ok()) return valid;
  index.PublishArenaMetrics();
  PublishMmapLoadMetrics(kLoadModeCopied, 0,
                         util::MmapFile::Advice::kNormal);
  return index;
}

Result<TwoHopIndex> TwoHopIndex::LoadMapped(
    const std::string& path, const graph::DirectedGraph* g,
    const util::MmapLoadOptions& opts) {
  auto file = util::MmapFile::Open(path, opts.map);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<const util::MmapFile>(
      std::move(file).value());
  auto parsed = Mel3View::Parse(shared, kTwoHopMagic);
  if (!parsed.ok()) return parsed.status();
  const Mel3View& view = parsed.value();
  if (view.header().inner_version != kTwoHopVersion) {
    return Status::InvalidArgument("unsupported index version");
  }
  if (view.header().num_nodes != g->num_nodes()) {
    return Status::FailedPrecondition(
        "index was built for a graph with a different node count");
  }

  auto in_offsets = view.Block<uint64_t>(Mel3BlockKind::kInOffsets);
  auto in_entries = view.Block<InLabel>(Mel3BlockKind::kInEntries);
  auto out_offsets = view.Block<uint64_t>(Mel3BlockKind::kOutOffsets);
  auto out_entries = view.Block<OutSpan>(Mel3BlockKind::kOutEntries);
  auto followee_offsets =
      view.Block<uint64_t>(Mel3BlockKind::kFolloweeOffsets);
  auto followee_arena = view.Block<NodeId>(Mel3BlockKind::kFolloweeArena);
  for (const Status& s :
       {in_offsets.status(), in_entries.status(), out_offsets.status(),
        out_entries.status(), followee_offsets.status(),
        followee_arena.status()}) {
    if (!s.ok()) return s;
  }

  // Zero-copy bind: the spans point straight into the mapping. Only the
  // offset arrays are walked for validation — arena payload pages stay
  // untouched until queries fault them in.
  TwoHopIndex index(g, view.header().max_hops);
  index.in_offsets_.BindView(in_offsets.value());
  index.in_entries_.BindView(in_entries.value());
  index.out_offsets_.BindView(out_offsets.value());
  index.out_entries_.BindView(out_entries.value());
  index.followee_offsets_.BindView(followee_offsets.value());
  index.followee_arena_.BindView(followee_arena.value());
  index.mapping_ = shared;

  Status valid = index.ValidateOffsets();
  if (!valid.ok()) return valid;
  if (opts.verify_checksums) {
    valid = view.VerifyBlockChecksums();
    if (!valid.ok()) return valid;
    valid = index.ValidateNodeIds();
    if (!valid.ok()) return valid;
  }
  index.PublishArenaMetrics();
  PublishMmapLoadMetrics(kLoadModeMapped, shared->size(),
                         opts.map.advice);
  return index;
}

void TwoHopIndex::MaterializeOwned() {
  auto copy = [](auto& arena) {
    using T = std::remove_const_t<
        typename decltype(arena.view())::element_type>;
    if (!arena.owns_storage()) {
      arena.Own(std::vector<T>(arena.begin(), arena.end()));
    }
  };
  copy(in_offsets_);
  copy(in_entries_);
  copy(out_offsets_);
  copy(out_entries_);
  copy(followee_offsets_);
  copy(followee_arena_);
  mapping_.reset();
  PublishMmapLoadMetrics(kLoadModeCopied, 0,
                         util::MmapFile::Advice::kNormal);
}

uint64_t TwoHopIndex::IndexSizeBytes() const {
  if (pending_ != nullptr) return WaitForRebuild().IndexSizeBytes();
  return in_offsets_.size() * sizeof(uint64_t) +
         in_entries_.size() * sizeof(InLabel) +
         out_offsets_.size() * sizeof(uint64_t) +
         out_entries_.size() * sizeof(OutSpan) +
         followee_offsets_.size() * sizeof(uint64_t) +
         followee_arena_.size() * sizeof(NodeId);
}

uint64_t TwoHopIndex::LegacyIndexSizeBytes() const {
  if (pending_ != nullptr) return WaitForRebuild().LegacyIndexSizeBytes();
  // Pre-arena layout: vector-of-vectors on both sides (24-byte vector
  // header per node per side), 8-byte in-labels, out-labels carrying an
  // inline std::vector<NodeId> (8 B node+dist plus a 24-byte vector
  // header) with followee ids in per-label heap blocks.
  const uint64_t vector_header = 3 * sizeof(void*);
  const uint64_t n = g_->num_nodes();
  return 2 * n * vector_header + in_entries_.size() * sizeof(InLabel) +
         out_entries_.size() * (sizeof(OutSpan) + vector_header) +
         followee_arena_.size() * sizeof(NodeId);
}

}  // namespace mel::reach
