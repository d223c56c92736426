#include "kb/complemented_kb.h"

#include <algorithm>

#include "util/logging.h"
#include "util/serialize.h"

namespace mel::kb {

ComplementedKnowledgebase::ComplementedKnowledgebase(const Knowledgebase* kb)
    : kb_(kb) {
  MEL_CHECK(kb != nullptr && kb->finalized());
  per_entity_.resize(kb->num_entities());
}

void ComplementedKnowledgebase::AddLink(EntityId entity,
                                        const Posting& posting) {
  MEL_CHECK(entity < per_entity_.size());
  EntityPostings& ep = per_entity_[entity];
  if (!ep.postings.empty() && posting.time < ep.postings.back().time) {
    ep.dirty = true;
  }
  ep.postings.push_back(posting);
  auto [it, inserted] = ep.user_index.try_emplace(
      posting.user, static_cast<uint32_t>(ep.community.size()));
  if (inserted) {
    ep.community.emplace_back(posting.user, 1u);
  } else {
    ++ep.community[it->second].second;
  }
  ++total_links_;
  ++version_;
}

void ComplementedKnowledgebase::EnsureSorted(EntityId e) const {
  EntityPostings& ep = per_entity_[e];
  if (ep.dirty) {
    std::stable_sort(ep.postings.begin(), ep.postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.time < b.time;
                     });
    ep.dirty = false;
  }
}

void ComplementedKnowledgebase::EnsureAllSorted() const {
  for (EntityId e = 0; e < per_entity_.size(); ++e) EnsureSorted(e);
}

uint32_t ComplementedKnowledgebase::LinkedTweetCount(EntityId e) const {
  MEL_CHECK(e < per_entity_.size());
  return static_cast<uint32_t>(per_entity_[e].postings.size());
}

uint32_t ComplementedKnowledgebase::RecentTweetCount(EntityId e,
                                                     Timestamp now,
                                                     Timestamp tau) const {
  MEL_CHECK(e < per_entity_.size());
  EnsureSorted(e);
  const auto& postings = per_entity_[e].postings;
  const Timestamp cutoff = now - tau;
  // First posting with time >= cutoff.
  auto lo = std::lower_bound(postings.begin(), postings.end(), cutoff,
                             [](const Posting& p, Timestamp t) {
                               return p.time < t;
                             });
  // Last posting with time <= now.
  auto hi = std::upper_bound(lo, postings.end(), now,
                             [](Timestamp t, const Posting& p) {
                               return t < p.time;
                             });
  return static_cast<uint32_t>(hi - lo);
}

uint32_t ComplementedKnowledgebase::UserTweetCount(EntityId e,
                                                   UserId u) const {
  const uint32_t i = CommunityIndex(e, u);
  return i == kNotInCommunity ? 0 : per_entity_[e].community[i].second;
}

uint32_t ComplementedKnowledgebase::CommunityIndex(EntityId e,
                                                   UserId u) const {
  MEL_CHECK(e < per_entity_.size());
  const EntityPostings& ep = per_entity_[e];
  auto it = ep.user_index.find(u);
  return it == ep.user_index.end() ? kNotInCommunity : it->second;
}

std::span<const std::pair<UserId, uint32_t>>
ComplementedKnowledgebase::Community(EntityId e) const {
  MEL_CHECK(e < per_entity_.size());
  return per_entity_[e].community;
}

namespace {
constexpr uint32_t kCkbMagic = 0x4d454c43;  // "MELC"
constexpr uint32_t kCkbVersion = 1;
}  // namespace

Status ComplementedKnowledgebase::Save(const std::string& path) const {
  EnsureAllSorted();
  BinaryWriter writer(path);
  writer.WriteU32(kCkbMagic);
  writer.WriteU32(kCkbVersion);
  writer.WriteU32(static_cast<uint32_t>(per_entity_.size()));
  for (const EntityPostings& ep : per_entity_) {
    writer.WriteU64(ep.postings.size());
    for (const Posting& p : ep.postings) {
      writer.WriteU32(p.tweet);
      writer.WriteU32(p.user);
      writer.WriteU64(static_cast<uint64_t>(p.time));
    }
  }
  return writer.Finish();
}

Result<ComplementedKnowledgebase> ComplementedKnowledgebase::Load(
    const std::string& path, const Knowledgebase* kb) {
  BinaryReader reader(path);
  uint32_t magic = reader.ReadU32();
  uint32_t version = reader.ReadU32();
  uint32_t num_entities = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (magic != kCkbMagic) {
    return Status::InvalidArgument("not a complemented-KB file");
  }
  if (version != kCkbVersion) {
    return Status::InvalidArgument("unsupported complemented-KB version");
  }
  if (num_entities != kb->num_entities()) {
    return Status::FailedPrecondition(
        "complemented KB was built for a different knowledgebase");
  }
  ComplementedKnowledgebase ckb(kb);
  for (EntityId e = 0; e < num_entities; ++e) {
    uint64_t count = reader.ReadU64();
    if (!reader.status().ok() || count > BinaryReader::kMaxElements) {
      return Status::InvalidArgument("corrupt posting count");
    }
    for (uint64_t i = 0; i < count; ++i) {
      Posting p;
      p.tweet = reader.ReadU32();
      p.user = reader.ReadU32();
      p.time = static_cast<Timestamp>(reader.ReadU64());
      if (!reader.status().ok()) return reader.status();
      ckb.AddLink(e, p);
    }
  }
  return ckb;
}

std::span<const Posting> ComplementedKnowledgebase::Postings(
    EntityId e) const {
  MEL_CHECK(e < per_entity_.size());
  EnsureSorted(e);
  return per_entity_[e].postings;
}

}  // namespace mel::kb
