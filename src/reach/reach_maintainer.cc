#include "reach/reach_maintainer.h"

#include <algorithm>
#include <chrono>

#include "graph/bfs.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace mel::reach {

namespace {

struct MaintainerMetrics {
  metrics::Counter* applied;
  metrics::Counter* noops;
  metrics::Counter* inserts;
  metrics::Counter* erases;
  metrics::Counter* patched;
  metrics::Counter* rebuilt;
  metrics::Counter* unaffected;
  metrics::Histogram* apply_ns;
  metrics::Histogram* affected_nodes;
  metrics::Histogram* wait_ns;
};

const MaintainerMetrics& GetMaintainerMetrics() {
  static const MaintainerMetrics m = [] {
    auto& reg = metrics::Registry();
    MaintainerMetrics mm;
    mm.applied = reg.GetCounter("graph.mutation.applied_total");
    mm.noops = reg.GetCounter("graph.mutation.noop_total");
    mm.inserts = reg.GetCounter("graph.mutation.inserts_total");
    mm.erases = reg.GetCounter("graph.mutation.erases_total");
    mm.patched = reg.GetCounter("reach.patch.patched_total");
    mm.rebuilt = reg.GetCounter("reach.patch.rebuilt_total");
    mm.unaffected = reg.GetCounter("reach.patch.unaffected_total");
    mm.apply_ns = reg.GetHistogram("reach.patch.apply_ns");
    mm.affected_nodes = reg.GetHistogram("reach.patch.affected_nodes");
    mm.wait_ns = reg.GetHistogram("reach.maintainer.wait_ns");
    return mm;
  }();
  return m;
}

}  // namespace

ReachMaintainer::ReachMaintainer(graph::DirectedGraph* g, uint32_t max_hops,
                                 util::ThreadPool* pool)
    : g_(g), max_hops_(max_hops), pool_(pool) {
  MEL_CHECK(g != nullptr);
}

void ReachMaintainer::Register(WeightedReachability* index) {
  MEL_CHECK(index != nullptr);
  indexes_.push_back(index);
}

ReachMaintainer::ApplyResult ReachMaintainer::ApplyDelta(
    const graph::EdgeDelta& delta) {
  const MaintainerMetrics& mm = GetMaintainerMetrics();
  ApplyResult result;
  const bool mutated = delta.op == graph::EdgeDelta::Op::kInsert
                           ? g_->InsertEdge(delta.u, delta.v)
                           : g_->EraseEdge(delta.u, delta.v);
  if (!mutated) {
    mm.noops->Increment();
    return result;
  }
  metrics::ScopedStageTimer apply_timer(mm.apply_ns);
  result.applied = true;
  mm.applied->Increment();
  (delta.op == graph::EdgeDelta::Op::kInsert ? mm.inserts : mm.erases)
      ->Increment();

  // One backward and one forward bounded BFS, shared by every hook. For
  // the mutated edge (u, v) neither d(*, u) nor d(v, *) can route
  // through the edge itself, so these post-mutation frontiers equal the
  // pre-mutation ones — exactly what both patch directions need.
  const uint32_t n = g_->num_nodes();
  dist_to_u_.assign(n, kUnreachableDistance);
  dist_from_v_.assign(n, kUnreachableDistance);
  auto& scratch = graph::BfsScratch::ThreadLocal(n);
  scratch.RunBackward(*g_, delta.u, max_hops_);
  for (graph::NodeId x : scratch.Touched()) {
    dist_to_u_[x] = scratch.Distance(x);
  }
  const size_t reaching_u = scratch.Touched().size();
  scratch.RunForward(*g_, delta.v, max_hops_);
  for (graph::NodeId x : scratch.Touched()) {
    dist_from_v_[x] = scratch.Distance(x);
  }
  if (metrics::Enabled()) {
    mm.affected_nodes->Record(reaching_u + scratch.Touched().size());
  }

  MutationContext ctx;
  ctx.delta = delta;
  ctx.graph = g_;
  ctx.dist_to_u = &dist_to_u_;
  ctx.dist_from_v = &dist_from_v_;
  ctx.pool = pool_;
  ctx.maintenance = &maintenance_;
  result.results.reserve(indexes_.size());
  const auto posted = std::chrono::steady_clock::now();
  maintenance_.Run([&] {
    if (metrics::Enabled()) {
      mm.wait_ns->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - posted)
              .count()));
    }
    for (WeightedReachability* index : indexes_) {
      const MutationResult r = index->OnGraphMutation(ctx);
      switch (r) {
        case MutationResult::kPatched:
          mm.patched->Increment();
          break;
        case MutationResult::kRebuilt:
          mm.rebuilt->Increment();
          break;
        case MutationResult::kUnaffected:
          mm.unaffected->Increment();
          break;
      }
      result.results.push_back(r);
    }
  });
  return result;
}

}  // namespace mel::reach
