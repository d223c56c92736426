#ifndef MEL_SOCIAL_INFLUENTIAL_INDEX_H_
#define MEL_SOCIAL_INFLUENTIAL_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kb/complemented_kb.h"
#include "kb/types.h"
#include "social/influence.h"
#include "util/thread_pool.h"

namespace mel::social {

/// \brief Offline store of the most influential users per
/// (surface form, candidate entity) pair — the "collections of most
/// influential users broadcasting about each entity" that the paper's
/// knowledge-acquisition step (Sec. 3.2.1) materializes so online
/// inference does not rank whole communities per query.
///
/// Influence depends on the mention's candidate set E_m (the idf /
/// entropy terms range over the co-candidates), so entries are keyed by
/// surface id, not by entity alone.
///
/// Each (surface, candidate) list also keeps the discriminativeness of
/// every community member, aligned with ckb->Community(candidate). That
/// order is append-only, so the cache survives feedback: a refill
/// evaluates discriminativeness only for members appended since the last
/// fill and for entries reset by OnLinkAdded, and otherwise pays one
/// multiply per member. Ranking goes through RankInfluential, the body
/// of InfluenceEstimator::TopInfluential, so every list is bitwise equal
/// to a fresh TopInfluential.
///
/// OnLinkAdded(entity, user) marks stale exactly the lists whose inputs a
/// confirmed link changed: entity's own list in every surface (its
/// community total moved) and, for each co-candidate the user has
/// tweeted about, that list with the user's cached entry reset (the
/// user's tweet distribution over the surface moved), and queues the
/// surface. PrecomputeAll or the next lookup re-ranks only stale lists.
///
/// Thread safety: PrecomputeAll fills the queued surfaces on a thread
/// pool. A fill writes only its own surface's entry and reads only the
/// complemented knowledgebase's Community, LinkedTweetCount and
/// UserTweetCount (none of which sorts lazily), so the result is
/// bitwise the same for any thread count. Get on a filled, fresh surface
/// only reads; every other call must be externally serialized against
/// all calls on the index and against writes to the knowledgebase.
class InfluentialUserIndex {
 public:
  /// \param ckb complemented knowledgebase (must outlive the index)
  /// \param method influence estimator (tf-idf or entropy)
  /// \param top_k users kept per (surface, candidate); 0 = whole
  ///        community
  InfluentialUserIndex(const kb::ComplementedKnowledgebase* ckb,
                       InfluenceMethod method, uint32_t top_k);

  /// Fills every surface form of the knowledgebase that has a stale list
  /// (the offline pass, and the refill after feedback), in parallel on
  /// `pool` (nullptr = the shared pool). It visits only surfaces queued
  /// since the last call, not every surface. Optional: lookups fill the
  /// cache lazily. Must not run concurrently with Get.
  void PrecomputeAll(util::ThreadPool* pool = nullptr);

  /// The top influential users of `entity` in the context of the
  /// candidate set of `surface_id`. Computed and cached on first use, and
  /// re-ranked on the first use after OnLinkAdded made it stale.
  const std::vector<InfluentialUser>& Get(uint32_t surface_id,
                                          kb::EntityId entity);

  /// Call after ckb->AddLink(entity, posting by `user`): marks stale the
  /// lists that link changed (see the class comment).
  void OnLinkAdded(kb::EntityId entity, kb::UserId user);

  /// Number of (surface, candidate) lists that are filled and fresh.
  size_t CachedEntries() const;

 private:
  struct CandidateList {
    // Discriminativeness per member, aligned with ckb->Community(entity);
    // shorter than the community until appended members are evaluated,
    // kUnsetDisc where OnLinkAdded reset an entry.
    std::vector<double> disc;
    std::vector<InfluentialUser> top;
    bool stale = true;
  };
  struct SurfaceCache {
    bool stale = true;  // some list needs (re-)ranking
    bool queued = false;  // listed in queued_
    // Aligned with the surface's candidate list; empty until first fill.
    std::vector<CandidateList> lists;
  };

  void FillSurface(uint32_t surface_id);

  const kb::ComplementedKnowledgebase* ckb_;
  InfluenceEstimator estimator_;
  uint32_t top_k_;
  std::vector<SurfaceCache> cache_;
  // Surfaces marked stale since the last PrecomputeAll, each once (a
  // lazy Get may have refilled some of them since).
  std::vector<uint32_t> queued_;
  // entity -> surfaces it participates in (built once at construction).
  std::unordered_map<kb::EntityId, std::vector<uint32_t>> entity_surfaces_;
};

}  // namespace mel::social

#endif  // MEL_SOCIAL_INFLUENTIAL_INDEX_H_
