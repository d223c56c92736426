#ifndef MEL_E2EBENCH_TRACING_H_
#define MEL_E2EBENCH_TRACING_H_

// Per-layer measurement from outside the program: decorators around the
// public reach / recency interfaces the linker calls through, plus small
// shared helpers (clock, digests, percentiles). Nothing under src/ is
// instrumented for the benchmark.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/entity_linker.h"
#include "reach/weighted_reachability.h"
#include "recency/recency_source.h"

namespace mel::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over raw bytes.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
};

/// Digest of the exact bits of a link result: every ranked entity with
/// its Eq.-1 score and S_in / S_r / S_p, plus the Appendix-D flag. Two
/// results have equal digests iff they are bit-identical (up to 64-bit
/// hash collisions).
inline uint64_t ResultDigest(const core::MentionLinkResult& r) {
  Fnv f;
  f.Value(r.ranked.size());
  f.Value(r.probable_new_entity);
  for (const core::ScoredEntity& s : r.ranked) {
    f.Value(s.entity);
    f.Value(s.score);
    f.Value(s.interest);
    f.Value(s.recency);
    f.Value(s.popularity);
  }
  return f.h;
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when
/// empty.
template <typename T>
double Percentile(std::vector<T> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return static_cast<double>(samples[k]);
}

template <typename T>
double Mean(const std::vector<T>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const T& v : samples) sum += static_cast<double>(v);
  return sum / static_cast<double>(samples.size());
}

/// Call count plus accumulated nanoseconds; safe from the pool workers.
struct CallTimer {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};

  void Add(int64_t elapsed) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<uint64_t>(elapsed), std::memory_order_relaxed);
  }
};

/// \brief Times S_in's reachability lookups: the linker reaches the
/// backend only through ScoreOnly. The other queries forward untimed,
/// and mutations are not forwarded: the ReachMaintainer registers the
/// wrapped index itself.
class TimedReachability final : public reach::WeightedReachability {
 public:
  explicit TimedReachability(const reach::WeightedReachability* base)
      : base_(base) {}

  double ScoreOnly(reach::NodeId u, reach::NodeId v) const override {
    const int64_t t0 = NowNs();
    const double s = base_->ScoreOnly(u, v);
    score_only_.Add(NowNs() - t0);
    return s;
  }
  double Score(reach::NodeId u, reach::NodeId v) const override {
    return base_->Score(u, v);
  }
  reach::ReachQueryResult Query(reach::NodeId u,
                                reach::NodeId v) const override {
    return base_->Query(u, v);
  }
  uint64_t IndexSizeBytes() const override {
    return base_->IndexSizeBytes();
  }
  const char* Name() const override { return base_->Name(); }

  const CallTimer& score_only() const { return score_only_; }

 private:
  const reach::WeightedReachability* base_;
  mutable CallTimer score_only_;
};

/// \brief Times the burst-mass reads of S_r's propagation (the only
/// RecencySource call the propagator makes). Epoch and WindowToken
/// forward untimed so the propagator's memoization behaves exactly as
/// without the decorator.
class TimedRecencySource final : public recency::RecencySource {
 public:
  explicit TimedRecencySource(const recency::RecencySource* base)
      : base_(base) {}

  double BurstMass(kb::EntityId e, kb::Timestamp now) const override {
    const int64_t t0 = NowNs();
    const double m = base_->BurstMass(e, now);
    burst_mass_.Add(NowNs() - t0);
    return m;
  }
  uint32_t RecentCount(kb::EntityId e, kb::Timestamp now) const override {
    return base_->RecentCount(e, now);
  }
  uint64_t Epoch() const override { return base_->Epoch(); }
  uint64_t WindowToken(kb::Timestamp now) const override {
    return base_->WindowToken(now);
  }

  const CallTimer& burst_mass() const { return burst_mass_; }

 private:
  const recency::RecencySource* base_;
  mutable CallTimer burst_mass_;
};

}  // namespace mel::e2e

#endif  // MEL_E2EBENCH_TRACING_H_
