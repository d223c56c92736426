#include "social/influential_index.h"

#include "util/logging.h"
#include "util/metrics.h"

namespace mel::social {

namespace {

struct IndexMetrics {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Counter* invalidations;
  metrics::Counter* disc_evals;
};

const IndexMetrics& GetIndexMetrics() {
  static const IndexMetrics m = [] {
    auto& reg = metrics::Registry();
    IndexMetrics im;
    im.hits = reg.GetCounter("social.influential_index.hits_total");
    im.misses = reg.GetCounter("social.influential_index.misses_total");
    im.invalidations =
        reg.GetCounter("social.influential_index.invalidations_total");
    im.disc_evals =
        reg.GetCounter("social.influential_index.disc_evals_total");
    return im;
  }();
  return m;
}

// Surfaces one PrecomputeAll participant claims at a time. Most feedback
// barriers leave a few stale surfaces (median 2, p95 70-90, p99 about
// 210 on e2ebench stream_feedback), and a refill that fits in one grain
// runs inline on the caller. A fill costs about 7 us, so a 4-surface
// claim keeps the cursor cheap while larger refills spread over the
// pool: the barrier p99 measured 0.25-0.26 ms at grain 4 against
// 0.32-0.33 ms at 16 and 0.38 ms at 64, at equal cold-start time.
constexpr size_t kFillGrain = 4;

// Discriminativeness is never negative (Eq. 6 idf >= 0, Eq. 7 inverse
// entropy > 0), so a negative entry marks one OnLinkAdded reset.
constexpr double kUnsetDisc = -1;

}  // namespace

InfluentialUserIndex::InfluentialUserIndex(
    const kb::ComplementedKnowledgebase* ckb, InfluenceMethod method,
    uint32_t top_k)
    : ckb_(ckb), estimator_(ckb, method), top_k_(top_k) {
  MEL_CHECK(ckb != nullptr);
  const kb::Knowledgebase& kbase = ckb->base();
  cache_.resize(kbase.surfaces().size());
  queued_.reserve(kbase.surfaces().size());
  for (uint32_t sid = 0; sid < kbase.surfaces().size(); ++sid) {
    for (const kb::Candidate& c : kbase.CandidatesBySurfaceId(sid)) {
      entity_surfaces_[c.entity].push_back(sid);
    }
    cache_[sid].queued = true;
    queued_.push_back(sid);
  }
}

void InfluentialUserIndex::FillSurface(uint32_t surface_id) {
  SurfaceCache& entry = cache_[surface_id];
  auto candidates = ckb_->base().CandidatesBySurfaceId(surface_id);
  std::vector<kb::EntityId> entities;
  entities.reserve(candidates.size());
  for (const kb::Candidate& c : candidates) entities.push_back(c.entity);
  if (entry.lists.empty()) entry.lists.resize(candidates.size());
  uint64_t evals = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    CandidateList& list = entry.lists[i];
    if (!list.stale) continue;
    auto community = ckb_->Community(entities[i]);
    // Members appended since the last fill start unset.
    list.disc.resize(community.size(), kUnsetDisc);
    for (size_t j = 0; j < community.size(); ++j) {
      if (list.disc[j] != kUnsetDisc) continue;
      list.disc[j] = estimator_.Discriminativeness(community[j].first,
                                                   entities);
      ++evals;
    }
    list.top = RankInfluential(community,
                               ckb_->LinkedTweetCount(entities[i]),
                               list.disc, top_k_);
    // The ranking leaves room for the whole community; keep only top_k.
    list.top.shrink_to_fit();
    list.stale = false;
  }
  entry.stale = false;
  GetIndexMetrics().disc_evals->Increment(evals);
}

void InfluentialUserIndex::PrecomputeAll(util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::Shared();
  // Each index is a distinct surface, and FillSurface writes only that
  // surface's cache entry.
  pool->ParallelFor(0, queued_.size(), kFillGrain, [&](size_t i) {
    SurfaceCache& entry = cache_[queued_[i]];
    entry.queued = false;
    if (entry.stale) FillSurface(queued_[i]);
  });
  queued_.clear();
}

const std::vector<InfluentialUser>& InfluentialUserIndex::Get(
    uint32_t surface_id, kb::EntityId entity) {
  MEL_CHECK(surface_id < cache_.size());
  const IndexMetrics& im = GetIndexMetrics();
  if (cache_[surface_id].stale) {
    im.misses->Increment();
    FillSurface(surface_id);
  } else {
    im.hits->Increment();
  }
  auto candidates = ckb_->base().CandidatesBySurfaceId(surface_id);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].entity == entity) {
      return cache_[surface_id].lists[i].top;
    }
  }
  MEL_CHECK_MSG(false, "entity is not a candidate of the surface");
  static const std::vector<InfluentialUser> kEmpty;
  return kEmpty;
}

void InfluentialUserIndex::OnLinkAdded(kb::EntityId entity,
                                       kb::UserId user) {
  auto it = entity_surfaces_.find(entity);
  if (it == entity_surfaces_.end()) return;
  uint64_t marked = 0;
  for (uint32_t sid : it->second) {
    SurfaceCache& entry = cache_[sid];
    if (entry.lists.empty()) continue;  // never filled: nothing cached
    auto candidates = ckb_->base().CandidatesBySurfaceId(sid);
    for (size_t i = 0; i < candidates.size(); ++i) {
      CandidateList& list = entry.lists[i];
      // The user's tweet distribution over this surface changed, and so
      // did the user's discriminativeness here; entity's total changed,
      // which rescales its whole list. No other input of any list moved.
      const uint32_t slot = ckb_->CommunityIndex(candidates[i].entity, user);
      const bool reset = slot < list.disc.size();
      if (reset) list.disc[slot] = kUnsetDisc;
      if ((reset || candidates[i].entity == entity) && !list.stale) {
        list.stale = true;
        entry.stale = true;
        ++marked;
      }
    }
    if (entry.stale && !entry.queued) {
      entry.queued = true;
      queued_.push_back(sid);
    }
  }
  GetIndexMetrics().invalidations->Increment(marked);
}

size_t InfluentialUserIndex::CachedEntries() const {
  size_t count = 0;
  for (const auto& entry : cache_) {
    for (const CandidateList& list : entry.lists) count += !list.stale;
  }
  return count;
}

}  // namespace mel::social
