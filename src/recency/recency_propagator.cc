#include "recency/recency_propagator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"
#include "util/metrics.h"

namespace mel::recency {

namespace {

struct PropagatorMetrics {
  metrics::Counter* runs;
  metrics::Counter* cache_hits;
  metrics::Counter* cache_misses;
  metrics::Counter* cache_invalidations;
  metrics::Histogram* iterations;
  metrics::Histogram* cluster_size;
};

const PropagatorMetrics& GetPropagatorMetrics() {
  static const PropagatorMetrics m = [] {
    auto& reg = metrics::Registry();
    PropagatorMetrics pm;
    pm.runs = reg.GetCounter("recency.propagation.runs_total");
    pm.cache_hits = reg.GetCounter("recency.cache.hits_total");
    pm.cache_misses = reg.GetCounter("recency.cache.misses_total");
    pm.cache_invalidations =
        reg.GetCounter("recency.cache.invalidations_total");
    pm.iterations = reg.GetHistogram("recency.propagation.iterations");
    pm.cluster_size = reg.GetHistogram("recency.propagation.cluster_size");
    return pm;
  }();
  return m;
}

}  // namespace

RecencyPropagator::RecencyPropagator(const PropagationNetwork* network,
                                     const RecencySource* source,
                                     const PropagatorOptions& options)
    : network_(network), source_(source), options_(options) {
  MEL_CHECK(network != nullptr && source != nullptr);
  MEL_CHECK(options.lambda >= 0 && options.lambda <= 1);
  if (options_.enable_cache) {
    cache_ = std::vector<CacheSlot>(network_->num_clusters());
  }
}

std::vector<double> RecencyPropagator::PropagateCluster(
    uint32_t cluster, kb::Timestamp now) const {
  const uint64_t epoch = source_->Epoch();
  if (!options_.enable_cache || epoch == RecencySource::kNoEpoch) {
    return Iterate(cluster, InitialVector(cluster, now));
  }
  const PropagatorMetrics& pm = GetPropagatorMetrics();
  const uint64_t token = source_->WindowToken(now);
  CacheSlot& slot = cache_[cluster];
  // The slot lock covers the recompute: concurrent queries against the
  // same cluster wait for (and then reuse) one power iteration instead of
  // racing through duplicates. Different clusters never contend.
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.valid && slot.epoch == epoch && slot.token == token) {
    pm.cache_hits->Increment();
    return slot.values;
  }
  std::vector<double> initial = InitialVector(cluster, now);
  // The iteration is a pure function of S_r^0, so an S_r^0 with the same
  // bits yields the same result bits. Compare bits, not values: == takes
  // -0.0 for 0.0, which the iteration need not map to the same bits.
  if (slot.valid && std::memcmp(initial.data(), slot.initial.data(),
                                initial.size() * sizeof(double)) == 0) {
    pm.cache_hits->Increment();
  } else {
    if (slot.valid) pm.cache_invalidations->Increment();
    pm.cache_misses->Increment();
    slot.values = Iterate(cluster, initial);
    slot.initial = std::move(initial);
  }
  slot.epoch = epoch;
  slot.token = token;
  slot.valid = true;
  return slot.values;
}

std::vector<double> RecencyPropagator::InitialVector(
    uint32_t cluster, kb::Timestamp now) const {
  // The vector is NOT normalized here — the iteration of Eq. 11 is
  // linear, and keeping raw masses preserves relative burst magnitude
  // across clusters so the final candidate-set normalization (Eq. 9)
  // stays meaningful.
  auto members = network_->ClusterMembers(cluster);
  std::vector<double> initial(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    initial[i] = source_->BurstMass(members[i], now);
  }
  return initial;
}

std::vector<double> RecencyPropagator::Iterate(
    uint32_t cluster, const std::vector<double>& initial) const {
  auto members = network_->ClusterMembers(cluster);
  const size_t m = members.size();
  const PropagatorMetrics& pm = GetPropagatorMetrics();
  pm.runs->Increment();
  if (metrics::Enabled()) pm.cluster_size->Record(m);

  double total = 0;
  for (double v : initial) total += v;
  if (total == 0 || m == 1) return initial;  // nothing to diffuse

  std::vector<double> current = initial;
  std::vector<double> next(m);
  const double lambda = options_.lambda;
  uint32_t iterations_used = 0;
  for (uint32_t iter = 0; iter < options_.max_iterations; ++iter) {
    double delta = 0;
    for (size_t i = 0; i < m; ++i) {
      double pulled = 0;
      for (const auto& edge : network_->Neighbors(members[i])) {
        // Neighbours are always in the same cluster by construction, so
        // their position in `current` is the precomputed member index.
        pulled += edge.probability *
                  current[network_->MemberIndex(edge.target)];
      }
      next[i] = lambda * initial[i] + (1 - lambda) * pulled;
      delta += std::abs(next[i] - current[i]);
    }
    current.swap(next);
    ++iterations_used;
    if (delta < options_.convergence_epsilon) break;
  }
  if (metrics::Enabled()) pm.iterations->Record(iterations_used);
  return current;
}

std::vector<double> RecencyPropagator::CandidateScores(
    std::span<const kb::EntityId> candidates, kb::Timestamp now,
    bool enable_propagation) const {
  std::vector<double> raw(candidates.size(), 0.0);
  if (!enable_propagation) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      raw[i] = source_->BurstMass(candidates[i], now);
    }
  } else {
    // Propagate once per distinct cluster among the candidates.
    std::vector<std::pair<uint32_t, std::vector<double>>> cluster_results;
    for (size_t i = 0; i < candidates.size(); ++i) {
      uint32_t cluster = network_->Cluster(candidates[i]);
      const std::vector<double>* result = nullptr;
      for (const auto& [cid, values] : cluster_results) {
        if (cid == cluster) {
          result = &values;
          break;
        }
      }
      if (result == nullptr) {
        cluster_results.emplace_back(cluster,
                                     PropagateCluster(cluster, now));
        result = &cluster_results.back().second;
      }
      raw[i] = (*result)[network_->MemberIndex(candidates[i])];
    }
  }
  // Normalize over the candidate set (Eq. 9's denominator role).
  double total = 0;
  for (double v : raw) total += v;
  if (total > 0) {
    for (double& v : raw) v /= total;
  }
  return raw;
}

}  // namespace mel::recency
