#include "reach/distance_label_index.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "graph/stats.h"
#include "reach/reach_metrics.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace mel::reach {

namespace {
constexpr uint32_t kInf = kUnreachableDistance;
}  // namespace

DistanceLabelIndex::DistanceLabelIndex(const graph::DirectedGraph* g,
                                       uint32_t max_hops)
    : g_(g), max_hops_(max_hops) {}

DistanceLabelIndex DistanceLabelIndex::Build(const graph::DirectedGraph* g,
                                             uint32_t max_hops) {
  DistanceLabelIndex index(g, max_hops);
  index.build_in_labels_.resize(g->num_nodes());
  index.build_out_labels_.resize(g->num_nodes());
  index.hub_dist_.assign(g->num_nodes(), kInf);
  index.visited_.assign(g->num_nodes(), 0);
  const auto degrees = graph::TotalDegrees(*g);
  for (NodeId landmark : graph::NodesByDegreeDescending(*g, degrees)) {
    index.ProcessLandmark(landmark, /*forward=*/false);
    index.ProcessLandmark(landmark, /*forward=*/true);
  }
  for (auto& labels : index.build_in_labels_) {
    std::sort(labels.begin(), labels.end(),
              [](const Label& a, const Label& b) { return a.node < b.node; });
  }
  for (auto& labels : index.build_out_labels_) {
    std::sort(labels.begin(), labels.end(),
              [](const Label& a, const Label& b) { return a.node < b.node; });
  }
  index.FinalizeArenas();
  return index;
}

void DistanceLabelIndex::FinalizeArenas() {
  const uint32_t n = g_->num_nodes();
  std::vector<uint64_t> in_offsets(n + 1, 0);
  std::vector<uint64_t> out_offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    in_offsets[v + 1] = in_offsets[v] + build_in_labels_[v].size();
    out_offsets[v + 1] = out_offsets[v] + build_out_labels_[v].size();
  }
  std::vector<Label> in_entries(in_offsets[n]);
  std::vector<Label> out_entries(out_offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    std::copy(build_in_labels_[v].begin(), build_in_labels_[v].end(),
              in_entries.begin() + static_cast<ptrdiff_t>(in_offsets[v]));
    std::copy(build_out_labels_[v].begin(), build_out_labels_[v].end(),
              out_entries.begin() + static_cast<ptrdiff_t>(out_offsets[v]));
  }
  in_offsets_.Own(std::move(in_offsets));
  in_entries_.Own(std::move(in_entries));
  out_offsets_.Own(std::move(out_offsets));
  out_entries_.Own(std::move(out_entries));
  build_in_labels_ = {};
  build_out_labels_ = {};
  hub_dist_ = {};
  visited_ = {};
}

void DistanceLabelIndex::ProcessLandmark(NodeId landmark, bool forward) {
  // Backward BFS extends L_out of nodes reaching the landmark; forward
  // BFS extends L_in of nodes the landmark reaches. Queries during
  // construction meet at hubs recorded for the opposite direction.
  auto& meet_labels =
      forward ? build_out_labels_[landmark] : build_in_labels_[landmark];
  auto& grow = forward ? build_in_labels_ : build_out_labels_;

  std::vector<NodeId> touched_hubs;
  for (const Label& label : meet_labels) {
    hub_dist_[label.node] = label.dist;
    touched_hubs.push_back(label.node);
  }
  hub_dist_[landmark] = 0;
  touched_hubs.push_back(landmark);

  // 64-bit sums make a kInf hub distance an ordinary large term, so the
  // scan needs no branch per entry.
  auto query = [&](NodeId x) -> uint32_t {
    uint64_t dmin = kInf;
    for (const Label& label : grow[x]) {
      dmin = std::min(dmin, uint64_t{label.dist} + hub_dist_[label.node]);
    }
    return static_cast<uint32_t>(dmin);
  };

  // x's labels change during this BFS only when x itself gains its
  // landmark entry, and BFS lengths never decrease: the first time x is
  // examined decides whether it gains one, so later edges into x are
  // skipped without a query.
  std::vector<NodeId> visited_nodes;
  std::vector<std::pair<NodeId, uint32_t>> queue;
  queue.emplace_back(landmark, 0);
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [u, len_u] = queue[head];
    if (len_u >= max_hops_) continue;
    const uint32_t len = len_u + 1;
    auto nbrs = forward ? g_->OutNeighbors(u) : g_->InNeighbors(u);
    for (NodeId x : nbrs) {
      if (x == landmark || visited_[x]) continue;
      visited_[x] = 1;
      visited_nodes.push_back(x);
      if (len < query(x)) {
        grow[x].push_back(Label{landmark, len});
        if (len < max_hops_) queue.emplace_back(x, len);
      }
    }
  }

  for (NodeId w : touched_hubs) hub_dist_[w] = kInf;
  for (NodeId x : visited_nodes) visited_[x] = 0;
}

uint32_t DistanceLabelIndex::Distance(NodeId u, NodeId v) const {
  if (u == v) return 0;
  const auto outs = out_labels(u);
  const auto ins = in_labels(v);
  uint32_t dmin = kInf;
  size_t i = 0, j = 0;
  while (i < outs.size() && j < ins.size()) {
    if (outs[i].node < ins[j].node) {
      ++i;
    } else if (outs[i].node > ins[j].node) {
      ++j;
    } else {
      dmin = std::min(dmin, outs[i].dist + ins[j].dist);
      ++i;
      ++j;
    }
  }
  for (const Label& label : outs) {
    if (label.node == v) dmin = std::min(dmin, label.dist);
  }
  for (const Label& label : ins) {
    if (label.node == u) dmin = std::min(dmin, label.dist);
  }
  return dmin > max_hops_ ? kInf : dmin;
}

ReachQueryResult DistanceLabelIndex::Query(NodeId u, NodeId v) const {
  ReachQueryResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  uint32_t duv = Distance(u, v);
  if (duv == kInf) return result;
  result.distance = duv;
  // Theorem 1: reconstruct F_uv with one distance query per followee.
  for (NodeId t : g_->OutNeighbors(u)) {
    if (t == v || Distance(t, v) == duv - 1) result.followees.push_back(t);
  }
  return result;
}

ReachCountResult DistanceLabelIndex::CountQuery(NodeId u, NodeId v) const {
  const ScoreOnlyMetrics& sm = GetScoreOnlyMetrics();
  sm.lookups->Increment();
  ReachCountResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  uint32_t duv = Distance(u, v);
  if (duv == kInf) {
    sm.unreachable->Increment();
    return result;
  }
  result.distance = duv;
  for (NodeId t : g_->OutNeighbors(u)) {
    if (t == v || Distance(t, v) == duv - 1) ++result.followee_count;
  }
  return result;
}

double DistanceLabelIndex::Score(NodeId u, NodeId v) const {
  return WeightedScore(Query(u, v), g_->OutDegree(u), u == v);
}

double DistanceLabelIndex::ScoreOnly(NodeId u, NodeId v) const {
  const ReachCountResult r = CountQuery(u, v);
  return WeightedScoreFromCount(r.distance, r.followee_count,
                                g_->OutDegree(u), u == v);
}

uint64_t DistanceLabelIndex::TotalLabelEntries() const {
  return in_entries_.size() + out_entries_.size();
}

MutationResult DistanceLabelIndex::OnGraphMutation(
    const MutationContext& ctx) {
  if (ctx.delta.op == graph::EdgeDelta::Op::kErase) {
    *this = Build(g_, max_hops_);
    return MutationResult::kRebuilt;
  }
  PatchInsertedEdge(ctx);
  return MutationResult::kPatched;
}

void DistanceLabelIndex::PatchInsertedEdge(const MutationContext& ctx) {
  const NodeId u = ctx.delta.u;
  const std::vector<uint32_t>& to_u = *ctx.dist_to_u;      // d(a, u)
  const std::vector<uint32_t>& from_v = *ctx.dist_from_v;  // d(v, b)
  const uint32_t n = g_->num_nodes();

  // Unpack the arenas into the build vectors; the arenas stay intact
  // until FinalizeArenas so Distance() keeps answering pre-insert.
  build_in_labels_.assign(n, {});
  build_out_labels_.assign(n, {});
  for (NodeId x = 0; x < n; ++x) {
    const auto ins = in_labels(x);
    build_in_labels_[x].assign(ins.begin(), ins.end());
    const auto outs = out_labels(x);
    build_out_labels_[x].assign(outs.begin(), outs.end());
  }

  auto through = [&](NodeId s, NodeId t) -> uint32_t {
    if (to_u[s] == kInf || from_v[t] == kInf) return kInf;
    const uint32_t c = to_u[s] + 1 + from_v[t];
    return c > max_hops_ ? kInf : c;
  };

  // Closed-form fix of existing labels: d' = min(d, d(s,u)+1+d(v,h)).
  for (NodeId s = 0; s < n; ++s) {
    if (to_u[s] == kInf) continue;
    for (Label& label : build_out_labels_[s]) {
      const uint32_t cand = through(s, label.node);
      if (cand < label.dist) label.dist = cand;
    }
  }
  for (NodeId t = 0; t < n; ++t) {
    if (from_v[t] == kInf) continue;
    for (Label& label : build_in_labels_[t]) {
      const uint32_t cand = through(label.node, t);
      if (cand < label.dist) label.dist = cand;
    }
  }

  // Cover restoration: hub u on both sides of the new edge. Pairs (u, b)
  // are answered by the degenerate source-hub scan of Distance(), so no
  // hub-v labels are needed in the distance-only index.
  auto upsert = [](std::vector<Label>& labels, NodeId hub, uint32_t dist) {
    auto it = std::lower_bound(
        labels.begin(), labels.end(), hub,
        [](const Label& l, NodeId x) { return l.node < x; });
    if (it != labels.end() && it->node == hub) {
      it->dist = std::min(it->dist, dist);
    } else {
      labels.insert(it, Label{hub, dist});
    }
  };
  for (NodeId a = 0; a < n; ++a) {
    if (a != u && to_u[a] != kInf) upsert(build_out_labels_[a], u, to_u[a]);
  }
  for (NodeId b = 0; b < n; ++b) {
    if (b == u || from_v[b] == kInf) continue;
    const uint32_t through_b =
        from_v[b] + 1 > max_hops_ ? kInf : from_v[b] + 1;
    const uint32_t dub = std::min(Distance(u, b), through_b);
    if (dub <= max_hops_) upsert(build_in_labels_[b], u, dub);
  }

  FinalizeArenas();
  mapping_.reset();
}

uint64_t DistanceLabelIndex::IndexSizeBytes() const {
  return TotalLabelEntries() * sizeof(Label) +
         (in_offsets_.size() + out_offsets_.size()) * sizeof(uint64_t);
}

namespace {

constexpr uint32_t kDliMagic = 0x4d454c44;  // "MELD"
constexpr uint32_t kDliVersion = 1;

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

Status DistanceLabelIndex::Save(const std::string& path) const {
  const Mel3BlockDesc blocks[] = {
      Mel3BlockDesc::Of(Mel3BlockKind::kInOffsets, in_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kInEntries, in_entries_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kOutOffsets, out_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kOutEntries, out_entries_.view()),
  };
  return WriteMel3File(path, kDliMagic, kDliVersion,
                       static_cast<uint32_t>(g_->num_nodes()), max_hops_,
                       blocks);
}

Status DistanceLabelIndex::ValidateOffsets() const {
  const uint64_t n = g_->num_nodes();
  if (!ValidOffsets(in_offsets_.view(), n + 1, in_entries_.size()) ||
      !ValidOffsets(out_offsets_.view(), n + 1, out_entries_.size())) {
    return Status::InvalidArgument("corrupt arena offsets");
  }
  return Status::OK();
}

Status DistanceLabelIndex::ValidateNodeIds() const {
  const uint32_t n = g_->num_nodes();
  for (const Label& label : in_entries_) {
    if (label.node >= n) {
      return Status::InvalidArgument("corrupt label node id");
    }
  }
  for (const Label& label : out_entries_) {
    if (label.node >= n) {
      return Status::InvalidArgument("corrupt label node id");
    }
  }
  return Status::OK();
}

Result<DistanceLabelIndex> DistanceLabelIndex::Load(
    const std::string& path, const graph::DirectedGraph* g) {
  uint32_t magic = 0;
  {
    BinaryReader sniff(path);
    magic = sniff.ReadU32();
    if (!sniff.status().ok()) return sniff.status();
  }
  if (magic == kMel3Magic) {
    util::MmapLoadOptions opts;
    opts.map.advice = util::MmapFile::Advice::kSequential;
    opts.verify_checksums = true;
    auto mapped = LoadMapped(path, g, opts);
    if (!mapped.ok()) return mapped.status();
    DistanceLabelIndex index = std::move(mapped).value();
    index.MaterializeOwned();
    return index;
  }
  if (magic != kDliMagic) {
    return Status::InvalidArgument("not a distance-label index file");
  }
  // Legacy "MELD" copying load (pre-MEL3 wire format).
  BinaryReader reader(path);
  reader.ReadU32();  // magic, already sniffed
  uint32_t version = reader.ReadU32();
  uint32_t n = reader.ReadU32();
  uint32_t max_hops = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (version != kDliVersion) {
    return Status::InvalidArgument("unsupported index version");
  }
  if (n != g->num_nodes()) {
    return Status::FailedPrecondition(
        "index was built for a graph with a different node count");
  }
  DistanceLabelIndex index(g, max_hops);
  std::vector<uint64_t> in_offsets, out_offsets;
  std::vector<Label> in_entries, out_entries;
  reader.ReadVectorInto(&in_offsets);
  reader.ReadVectorInto(&in_entries);
  reader.ReadVectorInto(&out_offsets);
  reader.ReadVectorInto(&out_entries);
  if (!reader.status().ok()) return reader.status();
  index.in_offsets_.Own(std::move(in_offsets));
  index.in_entries_.Own(std::move(in_entries));
  index.out_offsets_.Own(std::move(out_offsets));
  index.out_entries_.Own(std::move(out_entries));
  Status valid = index.ValidateOffsets();
  if (!valid.ok()) return valid;
  valid = index.ValidateNodeIds();
  if (!valid.ok()) return valid;
  PublishMmapLoadMetrics(kLoadModeCopied, 0,
                         util::MmapFile::Advice::kNormal);
  return index;
}

Result<DistanceLabelIndex> DistanceLabelIndex::LoadMapped(
    const std::string& path, const graph::DirectedGraph* g,
    const util::MmapLoadOptions& opts) {
  auto file = util::MmapFile::Open(path, opts.map);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<const util::MmapFile>(
      std::move(file).value());
  auto parsed = Mel3View::Parse(shared, kDliMagic);
  if (!parsed.ok()) return parsed.status();
  const Mel3View& view = parsed.value();
  if (view.header().inner_version != kDliVersion) {
    return Status::InvalidArgument("unsupported index version");
  }
  if (view.header().num_nodes != g->num_nodes()) {
    return Status::FailedPrecondition(
        "index was built for a graph with a different node count");
  }

  auto in_offsets = view.Block<uint64_t>(Mel3BlockKind::kInOffsets);
  auto in_entries = view.Block<Label>(Mel3BlockKind::kInEntries);
  auto out_offsets = view.Block<uint64_t>(Mel3BlockKind::kOutOffsets);
  auto out_entries = view.Block<Label>(Mel3BlockKind::kOutEntries);
  for (const Status& s :
       {in_offsets.status(), in_entries.status(), out_offsets.status(),
        out_entries.status()}) {
    if (!s.ok()) return s;
  }

  DistanceLabelIndex index(g, view.header().max_hops);
  index.in_offsets_.BindView(in_offsets.value());
  index.in_entries_.BindView(in_entries.value());
  index.out_offsets_.BindView(out_offsets.value());
  index.out_entries_.BindView(out_entries.value());
  index.mapping_ = shared;

  Status valid = index.ValidateOffsets();
  if (!valid.ok()) return valid;
  if (opts.verify_checksums) {
    valid = view.VerifyBlockChecksums();
    if (!valid.ok()) return valid;
    valid = index.ValidateNodeIds();
    if (!valid.ok()) return valid;
  }
  PublishMmapLoadMetrics(kLoadModeMapped, shared->size(),
                         opts.map.advice);
  return index;
}

void DistanceLabelIndex::MaterializeOwned() {
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
  mapping_.reset();
  PublishMmapLoadMetrics(kLoadModeCopied, 0,
                         util::MmapFile::Advice::kNormal);
}

}  // namespace mel::reach
