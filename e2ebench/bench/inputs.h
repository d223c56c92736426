#ifndef MEL_E2EBENCH_INPUTS_H_
#define MEL_E2EBENCH_INPUTS_H_

// Input generation of the end-to-end serving benchmark: the three
// traffic mixes, the deployment they run against (world, complemented
// knowledgebase, MEL3 2-hop index file), and the seeded request streams.
// Nothing here is timed except the offline 2-hop build (reach.build_s).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/entity_linker.h"
#include "gen/workload.h"
#include "graph/mutation.h"
#include "kb/complemented_kb.h"
#include "serve/types.h"

namespace mel::e2e {

/// One traffic mix. Every field is a constant of the workload: no rate
/// or size is ever derived from a measurement taken inside a run.
struct MixSpec {
  std::string_view name;
  /// eval-harness world scale (1 = 800 users, 4 = 3200 users).
  double scale = 1;
  /// Closed loop: keep `outstanding` requests in flight. Open loop: send
  /// at `rate` links per second regardless of completions.
  bool closed_loop = false;
  uint32_t outstanding = 0;
  double rate = 0;
  /// Share of mentions that get one seeded character substitution.
  double typo_prob = 0;
  /// Share of links followed by the author's confirming SubmitFeedback.
  double feedback_prob = 0;
  /// One follow-edge delta after every `links_per_delta` links (0 =
  /// none); every `erase_every`-th delta is an erase, the rest inserts.
  uint32_t links_per_delta = 0;
  uint32_t erase_every = 0;
};

/// The mix named `name`, or nullptr.
const MixSpec* FindMix(std::string_view name);

/// World seed shared by every run: the deployment is a constant of the
/// benchmark, the traffic is what --seed varies.
inline constexpr uint64_t kWorldSeed = 1;
/// Hop bound H of the 2-hop index and WLM threshold of the propagation
/// network, as in eval::Harness.
inline constexpr uint32_t kMaxHops = 5;
inline constexpr double kTheta2 = 0.75;

/// Linker configuration served by every mix (eval::Harness defaults).
core::LinkerOptions BenchLinkerOptions();

/// \brief The deployment a mix runs against: generated world, offline-
/// complemented knowledgebase, and the 2-hop index written as a MEL3
/// file for the timed cold start to map. Not movable: the complemented
/// knowledgebase points into the world.
class Deployment {
 public:
  Deployment(double scale, const std::string& index_path);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const gen::World& world() const { return world_; }
  const kb::Knowledgebase& kb() const { return world_.kb(); }
  const graph::DirectedGraph& graph() const { return world_.social.graph; }
  /// Offline complementation result; every linker gets its own copy.
  const kb::ComplementedKnowledgebase& ckb() const { return ckb_; }
  const std::string& index_path() const { return index_path_; }
  /// Wall time of TwoHopIndex::Build (the offline cost an erase re-pays).
  double index_build_s() const { return index_build_s_; }

 private:
  gen::World world_;
  kb::ComplementedKnowledgebase ckb_;
  std::string index_path_;
  double index_build_s_ = 0;
};

struct StreamLink {
  serve::LinkRequest request;
  kb::EntityId truth = kb::kInvalidEntity;
};

/// A write submitted right after link `after_link`: the author's
/// confirmation (feedback) or a follow-edge delta (mutation).
struct StreamWrite {
  uint32_t after_link = 0;
  bool is_mutation = false;
  kb::EntityId entity = kb::kInvalidEntity;
  kb::Tweet tweet;
  graph::EdgeDelta delta;
};

/// \brief A seeded request stream. Closed-loop mixes cycle over `links`;
/// open-loop mixes send link i at i / rate seconds.
struct Stream {
  std::vector<StreamLink> links;
  std::vector<StreamWrite> writes;  // ascending after_link

  /// Hash of every request and write: equal seeds give equal digests.
  uint64_t Digest() const;
};

Stream MakeStream(const MixSpec& mix, const Deployment& deployment,
                  uint64_t seed, double seconds);

}  // namespace mel::e2e

#endif  // MEL_E2EBENCH_INPUTS_H_
