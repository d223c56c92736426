#include "recency/propagation_network.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"

namespace mel::recency {

namespace {

uint64_t PairKey(kb::EntityId a, kb::EntityId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

struct NetworkMetrics {
  metrics::Counter* candidate_pairs;
  metrics::Counter* edges;
  metrics::Histogram* build_ns;
};

const NetworkMetrics& GetNetworkMetrics() {
  static const NetworkMetrics m = [] {
    auto& reg = metrics::Registry();
    NetworkMetrics nm;
    nm.candidate_pairs = reg.GetCounter("recency.network.pairs_total");
    nm.edges = reg.GetCounter("recency.network.edges_total");
    nm.build_ns = reg.GetHistogram("recency.network.build_ns");
    return nm;
  }();
  return m;
}

// Simple union-find for cluster detection.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n) {
    for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[a] = b;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

PropagationNetwork PropagationNetwork::Build(const kb::Knowledgebase& kb,
                                             double theta2,
                                             util::ThreadPool* pool) {
  MEL_CHECK(kb.finalized());
  if (pool == nullptr) pool = &util::ThreadPool::Shared();
  const NetworkMetrics& nm = GetNetworkMetrics();
  metrics::ScopedStageTimer build_timer(nm.build_ns);
  const uint32_t n = kb.num_entities();
  kb::WlmRelatedness wlm(&kb);

  // Heuristic 1: no recency flow between candidates of the same mention.
  // Kept as a sorted key list — the filter below probes it by binary
  // search instead of hashing a pair per probe.
  std::vector<uint64_t> excluded;
  for (const std::string& surface : kb.surfaces()) {
    auto cands = kb.Candidates(surface);
    for (size_t i = 0; i < cands.size(); ++i) {
      for (size_t j = i + 1; j < cands.size(); ++j) {
        excluded.push_back(PairKey(cands[i].entity, cands[j].entity));
      }
    }
  }
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());

  // Candidate pairs by hyperlink co-citation: WLM is positive only for
  // entities sharing an inlinking article. Row a collects every b > a
  // that some article citing a also cites, sorted and deduplicated; rows
  // are filled in parallel and concatenated in entity order, so `pairs`
  // is sorted by (a, b) whatever the thread count.
  std::vector<std::vector<kb::EntityId>> rows(n);
  pool->ParallelFor(0, n, 32, [&](size_t a) {
    std::vector<kb::EntityId>& row = rows[a];
    for (kb::EntityId article : kb.Inlinks(static_cast<kb::EntityId>(a))) {
      auto outs = kb.Outlinks(article);
      row.insert(row.end(), std::upper_bound(outs.begin(), outs.end(), a),
                 outs.end());
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  });
  std::vector<uint64_t> row_offsets(n + 1, 0);
  for (kb::EntityId a = 0; a < n; ++a) {
    row_offsets[a + 1] = row_offsets[a] + rows[a].size();
  }
  std::vector<uint64_t> pairs(row_offsets[n]);
  pool->ParallelFor(0, n, 32, [&](size_t a) {
    uint64_t w = row_offsets[a];
    for (kb::EntityId b : rows[a]) {
      pairs[w++] = PairKey(static_cast<kb::EntityId>(a), b);
    }
    rows[a] = {};
  });
  nm.candidate_pairs->Increment(pairs.size());

  // Heuristic 1 filter + theta2 relatedness filter. The WLM weight is
  // computed once per surviving pair and reused for the CSR below (the
  // dominant build cost, fanned out across the pool).
  std::vector<double> weights(pairs.size());
  pool->ParallelFor(0, pairs.size(), 128, [&](size_t i) {
    const uint64_t key = pairs[i];
    if (std::binary_search(excluded.begin(), excluded.end(), key)) {
      weights[i] = -1.0;
      return;
    }
    const auto a = static_cast<kb::EntityId>(key >> 32);
    const auto b = static_cast<kb::EntityId>(key & 0xffffffffu);
    const double w = wlm.Relatedness(a, b);
    weights[i] = w >= theta2 ? w : -1.0;
  });
  struct WeightedEdge {
    kb::EntityId a, b;
    double weight;
  };
  std::vector<WeightedEdge> edges;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (weights[i] < 0) continue;
    edges.push_back(WeightedEdge{static_cast<kb::EntityId>(pairs[i] >> 32),
                                 static_cast<kb::EntityId>(pairs[i]),
                                 weights[i]});
  }
  pairs.clear();
  pairs.shrink_to_fit();
  weights.clear();
  weights.shrink_to_fit();

  PropagationNetwork net;
  net.num_edges_ = edges.size();
  nm.edges->Increment(edges.size());

  // Undirected adjacency in CSR form, with WLM weights.
  net.adj_offsets_.assign(n + 1, 0);
  for (const auto& e : edges) {
    ++net.adj_offsets_[e.a + 1];
    ++net.adj_offsets_[e.b + 1];
  }
  for (uint32_t i = 0; i < n; ++i) {
    net.adj_offsets_[i + 1] += net.adj_offsets_[i];
  }
  net.adj_.resize(edges.size() * 2);
  {
    std::vector<uint32_t> cursor(net.adj_offsets_.begin(),
                                 net.adj_offsets_.end() - 1);
    for (const auto& e : edges) {
      net.adj_[cursor[e.a]++] = Edge{e.b, e.weight, 0};
      net.adj_[cursor[e.b]++] = Edge{e.a, e.weight, 0};
    }
  }
  // Row-normalize edge weights into propagation probabilities.
  for (uint32_t e = 0; e < n; ++e) {
    double total = 0;
    for (uint32_t i = net.adj_offsets_[e]; i < net.adj_offsets_[e + 1]; ++i) {
      total += net.adj_[i].weight;
    }
    if (total <= 0) continue;
    for (uint32_t i = net.adj_offsets_[e]; i < net.adj_offsets_[e + 1]; ++i) {
      net.adj_[i].probability = net.adj_[i].weight / total;
    }
  }

  // Clusters = connected components of the thresholded graph.
  UnionFind uf(n);
  for (const auto& e : edges) uf.Union(e.a, e.b);
  net.cluster_of_.assign(n, 0);
  std::vector<uint32_t> root_to_cluster(n, static_cast<uint32_t>(-1));
  for (uint32_t e = 0; e < n; ++e) {
    uint32_t root = uf.Find(e);
    if (root_to_cluster[root] == static_cast<uint32_t>(-1)) {
      root_to_cluster[root] = net.num_clusters_++;
    }
    net.cluster_of_[e] = root_to_cluster[root];
  }
  net.cluster_offsets_.assign(net.num_clusters_ + 1, 0);
  for (uint32_t e = 0; e < n; ++e) ++net.cluster_offsets_[net.cluster_of_[e] + 1];
  for (uint32_t c = 0; c < net.num_clusters_; ++c) {
    net.cluster_offsets_[c + 1] += net.cluster_offsets_[c];
  }
  net.cluster_members_.resize(n);
  net.member_index_.assign(n, 0);
  {
    std::vector<uint32_t> cursor(net.cluster_offsets_.begin(),
                                 net.cluster_offsets_.end() - 1);
    for (uint32_t e = 0; e < n; ++e) {
      const uint32_t pos = cursor[net.cluster_of_[e]]++;
      net.cluster_members_[pos] = e;
      net.member_index_[e] = pos - net.cluster_offsets_[net.cluster_of_[e]];
    }
  }
  return net;
}

std::span<const kb::EntityId> PropagationNetwork::ClusterMembers(
    uint32_t cluster) const {
  MEL_CHECK(cluster < num_clusters_);
  return {cluster_members_.data() + cluster_offsets_[cluster],
          cluster_members_.data() + cluster_offsets_[cluster + 1]};
}

std::span<const PropagationNetwork::Edge> PropagationNetwork::Neighbors(
    kb::EntityId e) const {
  return {adj_.data() + adj_offsets_[e], adj_.data() + adj_offsets_[e + 1]};
}

uint32_t PropagationNetwork::MaxClusterSize() const {
  uint32_t best = 0;
  for (uint32_t c = 0; c < num_clusters_; ++c) {
    best = std::max(best, cluster_offsets_[c + 1] - cluster_offsets_[c]);
  }
  return best;
}

bool PropagationNetwork::IdenticalTo(const PropagationNetwork& other) const {
  return num_edges_ == other.num_edges_ &&
         num_clusters_ == other.num_clusters_ &&
         adj_offsets_ == other.adj_offsets_ &&
         cluster_of_ == other.cluster_of_ &&
         member_index_ == other.member_index_ &&
         cluster_offsets_ == other.cluster_offsets_ &&
         cluster_members_ == other.cluster_members_ &&
         std::equal(adj_.begin(), adj_.end(), other.adj_.begin(),
                    other.adj_.end(), [](const Edge& a, const Edge& b) {
                      return a.target == b.target && a.weight == b.weight &&
                             a.probability == b.probability;
                    });
}

}  // namespace mel::recency
