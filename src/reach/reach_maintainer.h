#ifndef MEL_REACH_REACH_MAINTAINER_H_
#define MEL_REACH_REACH_MAINTAINER_H_

#include <cstdint>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/mutation.h"
#include "reach/weighted_reachability.h"
#include "util/serial_executor.h"
#include "util/thread_pool.h"

namespace mel::reach {

/// \brief Orchestrates incremental maintenance of reachability indexes
/// over a mutable follow graph.
///
/// One maintainer owns the mutation order for a graph: ApplyDelta
/// mutates the graph FIRST, computes the two bounded BFS frontiers every
/// patch needs (d(*, u) backward, d(v, *) forward — valid for insert and
/// erase alike, since neither family of paths can route through the
/// mutated edge), then offers the delta to every registered index
/// through WeightedReachability::OnGraphMutation in registration order.
/// Register a CachedReachability AFTER the backend it wraps, so the
/// backend is patched before the cache invalidates against it.
///
/// Threading: the maintainer owns one maintenance thread (started by the
/// first applied delta) and runs every hook on it, so all label
/// construction happens on one thread. ApplyDelta splices the graph and
/// runs the two BFS on the caller, then blocks until the hooks returned:
/// its contract stays synchronous. A hook may leave work queued on that
/// thread (ctx.maintenance) — the 2-hop cover's erase rebuild does; the
/// next delta's hooks queue behind it and so find it finished. ApplyDelta
/// records in reach.maintainer.wait_ns how long its hooks waited.
///
/// Thread safety: ApplyDelta must be externally serialized against both
/// other ApplyDelta calls and all index/graph readers (the serving layer
/// provides this with its epoch barrier; tests use a writer lock). Work
/// left queued by a hook runs concurrently with readers. Do not call
/// ApplyDelta from inside a ThreadPool::ParallelFor body: the hooks run
/// on another thread and may need the pool the caller is holding.
/// Publishes graph.mutation.* and reach.patch.* metrics.
class ReachMaintainer {
 public:
  /// What one ApplyDelta did. `applied` is false when the delta was a
  /// no-op (self-loop, duplicate insert, missing erase, out-of-range);
  /// in that case no index was touched and `results` is empty.
  struct ApplyResult {
    bool applied = false;
    std::vector<MutationResult> results;  // one per registered index
  };

  /// The graph is mutated in place and must outlive the maintainer;
  /// max_hops is the hop bound H shared by every registered index.
  /// `pool` (nullptr = the shared pool) is forwarded to index rebuilds.
  ReachMaintainer(graph::DirectedGraph* g, uint32_t max_hops,
                  util::ThreadPool* pool = nullptr);

  /// Registers an index (not owned; must outlive the maintainer). Hooks
  /// fire in registration order.
  void Register(WeightedReachability* index);

  /// Applies one edge delta: graph splice, shared BFS, index hooks.
  ApplyResult ApplyDelta(const graph::EdgeDelta& delta);

  /// Blocks until the work the hooks left queued has run (benchmarks
  /// use it to time a delta to completion).
  void Drain() { maintenance_.Drain(); }

  const graph::DirectedGraph& graph() const { return *g_; }
  uint32_t max_hops() const { return max_hops_; }
  size_t num_registered() const { return indexes_.size(); }

 private:
  graph::DirectedGraph* g_;
  uint32_t max_hops_;
  util::ThreadPool* pool_;
  std::vector<WeightedReachability*> indexes_;
  // Reused BFS frontier buffers (d(a, u) / d(v, b), kUnreachableDistance
  // sentinel), rebuilt by each ApplyDelta.
  std::vector<uint32_t> dist_to_u_;
  std::vector<uint32_t> dist_from_v_;
  // Declared last: destroyed first, running any queued work while the
  // members above still exist.
  util::SerialExecutor maintenance_;
};

}  // namespace mel::reach

#endif  // MEL_REACH_REACH_MAINTAINER_H_
