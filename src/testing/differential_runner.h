#ifndef MEL_TESTING_DIFFERENTIAL_RUNNER_H_
#define MEL_TESTING_DIFFERENTIAL_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/random_workload.h"

namespace mel::testing {

struct DiffOptions {
  /// Sampled (u, v) reachability pairs per case.
  uint32_t reach_pair_samples = 200;
  /// Sampled entity pairs for the WLM check.
  uint32_t wlm_pair_samples = 120;
  /// Entities whose influential-user ranking is verified.
  uint32_t influence_entity_samples = 12;
  /// Extra fuzzy-lookup probes beyond the workload's own queries.
  uint32_t fuzzy_probe_samples = 40;
  /// Sampled (u, v) pairs per incremental-maintenance checkpoint.
  uint32_t mutation_pair_samples = 120;
  /// Approximate number of from-scratch-rebuild checkpoints inside the
  /// mutation replay (positions are randomized per seed; the final event
  /// is always a checkpoint).
  uint32_t mutation_checkpoints = 4;
  /// Stop collecting divergences after this many (the case has failed
  /// either way; the first few messages carry the repro).
  uint32_t max_divergences = 8;
};

/// \brief Outcome of one differential case. ok() means every production
/// configuration agreed with every other and with the oracles.
struct DiffReport {
  uint64_t seed = 0;
  uint64_t checks = 0;
  std::vector<std::string> divergences;

  bool ok() const { return divergences.empty(); }

  /// Human-readable failure report: every divergence plus the replay
  /// line ("replay: MakeRandomWorkload(0x<seed>)"). Empty-ish on pass.
  std::string Summary() const;
};

/// \brief Replays one randomized workload through every production
/// configuration pair and the mel::testing oracles:
///
///  * reachability — naive BFS, TC-incremental, TC-naive, TC built on a
///    1-thread pool, 2-hop cover, distance-label ablation,
///    pruned-online-search, and the sharded read-through cache, all
///    against the forward-BFS oracle (full V^2 for the TC variants,
///    sampled pairs elsewhere); every backend additionally proves
///    CountQuery == |oracle F_uv| and ScoreOnly bitwise-equal to Score;
///  * fuzzy candidate generation — SegmentFuzzyIndex::Lookup against the
///    brute-force edit-distance scan;
///  * WLM — CSR merge/gallop intersection against std::set_intersection;
///  * propagation network — pooled vs 1-thread Build via IdenticalTo;
///  * recency — sliding-window counts against the linear-scan oracle
///    while the workload's feedback lands, through a window notified of
///    each link and one that never is, and the propagator with cache on
///    vs off vs the dense-matrix power iteration;
///  * influence — TopInfluential against the posting-list oracle;
///  * the full Eq.-1 pipeline — one EntityLinker per backend
///    configuration (each with its own identically-complemented CKB and
///    the same interleaved ConfirmLink feedback) against
///    OracleLinkMention;
///  * incremental maintenance (only when the workload carries mutation
///    events) — the mutation stream is replayed through a live graph
///    copy and reach::ReachMaintainer, after every erase the 2-hop
///    index is probed against the live-graph BFS before the next delta
///    (its rebuild may still be pending), and at randomized checkpoints
///    every patched index is exact-checked against a from-scratch
///    rebuild on the mutated graph (full V^2 for the transitive
///    closure, sampled pairs with the live-graph BFS backend as ground
///    truth elsewhere), the invalidated cache against its base, and the
///    incrementally-fed BurstTracker against a dense replay oracle of
///    the stamped-ring semantics.
///
/// Exact equality is demanded wherever implementations share the same
/// arithmetic (cache on/off, serial/pooled, naive vs 2-hop vs pruned);
/// a tiny tolerance absorbs float storage (transitive closure) and
/// summation-order differences (oracle vs production).
///
/// Counts are exported as testing.diff.{cases_total,checks_total,
/// divergences_total}.
DiffReport RunDifferentialCase(const RandomWorkload& workload,
                               const DiffOptions& options = {});

/// Convenience: generate the workload from `seed`, then run it.
DiffReport RunDifferentialCase(uint64_t seed,
                               const RandomWorkloadOptions& wopts = {},
                               const DiffOptions& options = {});

}  // namespace mel::testing

#endif  // MEL_TESTING_DIFFERENTIAL_RUNNER_H_
