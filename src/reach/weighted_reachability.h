#ifndef MEL_REACH_WEIGHTED_REACHABILITY_H_
#define MEL_REACH_WEIGHTED_REACHABILITY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/mutation.h"

namespace mel::util {
class SerialExecutor;
class ThreadPool;
}  // namespace mel::util

namespace mel::reach {

using graph::NodeId;

/// Distance reported when the target is not reachable within H hops.
inline constexpr uint32_t kUnreachableDistance =
    std::numeric_limits<uint32_t>::max();

/// \brief Raw answer of a weighted reachability query (Eq. 5):
/// shortest-path distance plus the source's followees participating in at
/// least one shortest path.
struct ReachQueryResult {
  uint32_t distance = kUnreachableDistance;
  std::vector<NodeId> followees;  // F_uv, sorted ascending

  bool reachable() const { return distance != kUnreachableDistance; }
};

/// \brief Count-only answer of a weighted reachability query: shortest
/// distance plus |F_uv| with the followee set never materialized. Enough
/// for the Eq.-4 score, which only divides the set's cardinality.
struct ReachCountResult {
  uint32_t distance = kUnreachableDistance;
  uint32_t followee_count = 0;

  bool reachable() const { return distance != kUnreachableDistance; }
};

/// \brief Eq.-4 score from (distance, |F_uv|) alone. Shares the exact
/// branch structure and arithmetic of WeightedScore below so Score and
/// ScoreOnly are bitwise equal on every backend.
inline double WeightedScoreFromCount(uint32_t distance,
                                     uint32_t followee_count,
                                     uint32_t out_degree, bool same_node) {
  if (same_node) return 1.0;
  if (distance == kUnreachableDistance) return 0.0;
  if (distance == 1) return 1.0;
  if (out_degree == 0) return 0.0;
  return (1.0 / distance) *
         (static_cast<double>(followee_count) / out_degree);
}

/// \brief Converts a query result to the weighted reachability score of
/// Eq. 4, with the conventions fixed by Algorithm 1 of the paper:
///   R(u, u)               = 1            (trivially reachable)
///   R(u, v), v in F_u     = 1            (Algorithm 1 line 3)
///   R(u, v), d_uv >= 2    = (1 / d_uv) * |F_uv| / |F_u|
///   unreachable within H  = 0
inline double WeightedScore(const ReachQueryResult& r, uint32_t out_degree,
                            bool same_node) {
  return WeightedScoreFromCount(r.distance,
                                static_cast<uint32_t>(r.followees.size()),
                                out_degree, same_node);
}

/// How a backend serviced a graph mutation (the mutate-or-invalidate
/// contract, see docs/ARCHITECTURE.md).
enum class MutationResult : uint8_t {
  kPatched,     ///< index updated in place (no full rebuild)
  /// index rebuilt from the mutated graph, possibly on the maintenance
  /// thread after the hook returned; queries are exact in the meantime
  /// (see TwoHopIndex::OnGraphMutation)
  kRebuilt,
  kUnaffected,  ///< backend reads the live graph; nothing to do
};

/// \brief Context handed to OnGraphMutation after the graph has already
/// been mutated.
///
/// The maintainer computes two bounded BFS frontiers once and shares
/// them with every registered index:
///   dist_to_u[a]   = d(a, u) on the POST-mutation graph (backward BFS)
///   dist_from_v[b] = d(v, b) on the POST-mutation graph (forward BFS)
/// Both use kUnreachableDistance for "beyond the hop bound". For the
/// edge (u, v) these are valid for insert AND erase: no shortest path TO
/// u can use (u, v) (it would leave u and have to return), and none FROM
/// v can either (it would have to re-enter v).
struct MutationContext {
  graph::EdgeDelta delta;
  /// The already-mutated graph. For EdgeDelta::Op::kInsert the edge is
  /// present; for kErase it is gone.
  const graph::DirectedGraph* graph = nullptr;
  const std::vector<uint32_t>* dist_to_u = nullptr;
  const std::vector<uint32_t>* dist_from_v = nullptr;
  /// Optional pool for backends whose rebuild path is parallel.
  util::ThreadPool* pool = nullptr;
  /// The thread the hook runs on (ReachMaintainer's maintenance thread).
  /// A backend may Post work here that must finish before its next hook
  /// but not before queries resume. Required by backends that defer
  /// work (the 2-hop cover's erase).
  util::SerialExecutor* maintenance = nullptr;
};

/// \brief Common interface of the three weighted-reachability backends
/// (naive BFS, extended transitive closure, extended 2-hop cover).
///
/// All backends answer with identical semantics; they differ in
/// pre-computation time, index size, and query latency — the trade-off
/// studied in Table 5 of the paper.
class WeightedReachability {
 public:
  virtual ~WeightedReachability() = default;

  /// Weighted reachability score R(u, v) in [0, 1].
  virtual double Score(NodeId u, NodeId v) const = 0;

  /// Raw distance + followee-set query (Eq. 5). Backends that only store
  /// scores (the transitive closure) do not implement this.
  virtual ReachQueryResult Query(NodeId u, NodeId v) const = 0;

  /// Count-only query: (d_uv, |F_uv|) without materializing F_uv. The
  /// default derives the pair from Query(); backends override it with an
  /// allocation-free counting path.
  virtual ReachCountResult CountQuery(NodeId u, NodeId v) const {
    const ReachQueryResult r = Query(u, v);
    return ReachCountResult{r.distance,
                            static_cast<uint32_t>(r.followees.size())};
  }

  /// Eq.-4 score via the count-only path. Bitwise equal to Score() on
  /// every backend (both funnel through WeightedScoreFromCount); the
  /// default simply forwards so existing subclasses stay correct.
  virtual double ScoreOnly(NodeId u, NodeId v) const { return Score(u, v); }

  /// Reacts to a graph mutation that has ALREADY been applied to the
  /// underlying graph. Implementations either patch their index in
  /// place, rebuild it, or return kUnaffected when they read the live
  /// graph on every query (the naive backend). Never called
  /// concurrently with queries — the caller (ReachMaintainer, or the
  /// serving epoch barrier) provides that exclusion. Work a backend
  /// defers to ctx.maintenance does run concurrently with queries, and
  /// the backend must keep every answer exact while it is pending.
  virtual MutationResult OnGraphMutation(const MutationContext&) {
    return MutationResult::kUnaffected;
  }

  /// Approximate index footprint in bytes (0 for index-free backends).
  virtual uint64_t IndexSizeBytes() const = 0;

  /// Human-readable backend name for benchmark tables.
  virtual const char* Name() const = 0;
};

}  // namespace mel::reach

#endif  // MEL_REACH_WEIGHTED_REACHABILITY_H_
