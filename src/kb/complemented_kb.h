#ifndef MEL_KB_COMPLEMENTED_KB_H_
#define MEL_KB_COMPLEMENTED_KB_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "kb/knowledgebase.h"
#include "kb/types.h"

namespace mel::kb {

/// \brief The complemented knowledgebase (Definition 5): each entity is
/// associated with the list of tweets mentioning it, along with their
/// timestamps and authors. Derived data — the community U_e (Definition 6)
/// and per-user tweet counts |D_e^u| — is maintained incrementally so the
/// online-inference features (popularity Eq. 2, influence Eq. 6/7, recency
/// Eq. 9) read it in O(1)/O(log n).
///
/// Links may arrive out of timestamp order (offline complementation batches
/// are unordered); posting lists re-sort lazily on the first time-range
/// query after an out-of-order insert.
class ComplementedKnowledgebase {
 public:
  /// The base knowledgebase must be finalized and outlive this object.
  explicit ComplementedKnowledgebase(const Knowledgebase* kb);

  /// Records that the tweet mentions the entity (the result of offline
  /// collective linking, or an online user-confirmed link).
  void AddLink(EntityId entity, const Posting& posting);

  const Knowledgebase& base() const { return *kb_; }

  /// |D_e|: number of tweets linked to e.
  uint32_t LinkedTweetCount(EntityId e) const;

  /// |D_e^tau|: tweets linked to e with time in [now - tau, now].
  uint32_t RecentTweetCount(EntityId e, Timestamp now, Timestamp tau) const;

  /// |D_e^u|: tweets linked to e authored by u.
  uint32_t UserTweetCount(EntityId e, UserId u) const;

  /// The community U_e: distinct users tweeting about e, each with their
  /// tweet count |D_e^u|, in order of each user's first link to e. The
  /// order is append-only: AddLink adds a new user at the tail and never
  /// moves an existing one, so positions are stable across links.
  std::span<const std::pair<UserId, uint32_t>> Community(EntityId e) const;

  /// Position of u in Community(e), or kNotInCommunity when u has no
  /// tweet linked to e.
  static constexpr uint32_t kNotInCommunity = UINT32_MAX;
  uint32_t CommunityIndex(EntityId e, UserId u) const;

  /// Full posting list of e, sorted by time ascending.
  std::span<const Posting> Postings(EntityId e) const;

  /// Total number of links across all entities.
  uint64_t TotalLinks() const { return total_links_; }

  /// Monotonic mutation counter: bumped by every AddLink. Consumers that
  /// memoize derived quantities (e.g. the recency propagation cache) key
  /// their entries on this version so they invalidate exactly when the
  /// complemented knowledgebase changes.
  uint64_t version() const { return version_; }

  /// Sorts every dirty posting list now. Time-range queries normally
  /// re-sort lazily, which mutates shared state; calling this once makes
  /// all subsequent read accessors safe for concurrent use (as long as no
  /// AddLink runs in parallel).
  void EnsureAllSorted() const;

  /// Persists all posting lists to disk.
  Status Save(const std::string& path) const;

  /// Loads postings written by Save on top of the given base
  /// knowledgebase (entity count is validated).
  static Result<ComplementedKnowledgebase> Load(const std::string& path,
                                                const Knowledgebase* kb);

 private:
  struct EntityPostings {
    std::vector<Posting> postings;  // sorted by time when !dirty
    std::vector<std::pair<UserId, uint32_t>> community;
    std::unordered_map<UserId, uint32_t> user_index;  // user -> community idx
    bool dirty = false;
  };

  void EnsureSorted(EntityId e) const;

  const Knowledgebase* kb_;
  mutable std::vector<EntityPostings> per_entity_;
  uint64_t total_links_ = 0;
  uint64_t version_ = 0;
};

}  // namespace mel::kb

#endif  // MEL_KB_COMPLEMENTED_KB_H_
