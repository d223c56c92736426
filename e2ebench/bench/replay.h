#ifndef MEL_E2EBENCH_REPLAY_H_
#define MEL_E2EBENCH_REPLAY_H_

// The correctness gate and the traced sequential replay (one pass does
// both). A fresh EntityLinker over its own copy of every mutable piece of
// state (complemented knowledgebase, follow graph, 2-hop index) replays
// the served epoch schedule: the links of epoch e, then the writes the
// service acked with epoch e + 1 (feedback before mutations, each in
// submission order), then WarmUp. Every kOk response must be
// bit-identical to the replay's answer.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "recency/propagation_network.h"
#include "serving.h"

namespace mel::e2e {

struct ReplayResult {
  // ---- gate -----------------------------------------------------------
  bool passed = false;
  std::vector<std::string> errors;  // first few failures, for the log
  uint64_t checked = 0;             // kOk responses compared

  // ---- quality: P@1 over the replayed stream requests ------------------
  uint64_t replayed_links = 0;
  uint64_t top1_correct = 0;

  // ---- per replayed link (replay order) --------------------------------
  std::vector<int64_t> candgen_ns;  // explicit CandidateGenerator::Generate
  std::vector<int64_t> link_ns;     // EntityLinker::LinkMention
  std::vector<int64_t> other_ns;    // LinkMention - reach - recency - candgen
  uint64_t candidates = 0;
  uint64_t fuzzy_links = 0;
  /// LinkMention time by stream index (-1: not replayed), for batch
  /// parallelism.
  std::vector<int64_t> link_ns_by_stream;

  // ---- decorators, summed over the replay -------------------------------
  uint64_t score_only_calls = 0;
  uint64_t score_only_ns = 0;
  uint64_t burst_mass_calls = 0;
  uint64_t burst_mass_ns = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;

  // ---- write path -------------------------------------------------------
  std::vector<int64_t> confirm_ns;
  std::vector<int64_t> mutation_ns;
  std::vector<int64_t> warmup_ns;  // one per barrier

  /// Wall time of the replay loop (state construction and the initial
  /// WarmUp excluded).
  int64_t wall_ns = 0;
};

ReplayResult ReplayAndCheck(const Deployment& deployment,
                            const recency::PropagationNetwork& network,
                            const Stream& stream, const ServedRun& run);

}  // namespace mel::e2e

#endif  // MEL_E2EBENCH_REPLAY_H_
