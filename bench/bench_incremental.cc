// Incremental-maintenance A/B: what does a single follow-edge delta cost
// with ReachMaintainer patching the reachability indexes in place, versus
// rebuilding every index from scratch (the only option before the
// mutation API existed)?
//
//   patch   : ReachMaintainer::ApplyDelta — graph splice + two bounded
//             BFS frontiers + per-index OnGraphMutation hooks.
//   rebuild : graph splice + TransitiveClosureIndex::Build +
//             TwoHopIndex::Build + DistanceLabelIndex::Build.
//
// Inserts and erases are measured separately because they sit on
// different maintenance paths: an insert patches every index through the
// closed form d'(a,b) = min(d(a,b), d(a,u) + 1 + d(v,b)); an erase has
// no closed form for the pruned label covers, so the 2-hop and
// distance-label indexes rebuild (kRebuilt) while the transitive closure
// still patches. The 2-hop rebuild runs on the maintenance thread after
// ApplyDelta returns; the arm drains it, so both arms time completed
// maintenance. Full mode asserts the insert path is >= 5x faster than
// per-delta rebuilds — the contract claimed in docs/PERFORMANCE.md.
// Results go to bench.incremental.* gauges and the
// BENCH_incremental.json trajectory sidecar checked by scripts/verify.sh.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/social_graph_generator.h"
#include "graph/directed_graph.h"
#include "graph/mutation.h"
#include "reach/distance_label_index.h"
#include "reach/reach_maintainer.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using mel::graph::NodeId;

constexpr uint32_t kMaxHops = 5;

struct AbResult {
  uint32_t users = 0;
  uint32_t num_deltas = 0;        // per direction (insert / erase)
  double patch_insert_ns = 0;     // mean per delta
  double rebuild_insert_ns = 0;   // mean per delta
  double patch_erase_ns = 0;      // mean per delta
  double rebuild_erase_ns = 0;    // mean per delta
  double insert_speedup = 0;
  double erase_speedup = 0;
};

// Fresh builds of the three indexed backends; the unit of the rebuild arm.
double TimeFullRebuild(const mel::graph::DirectedGraph& g) {
  mel::WallTimer timer;
  auto tc = mel::reach::TransitiveClosureIndex::Build(
      &g, kMaxHops,
      mel::reach::TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = mel::reach::TwoHopIndex::Build(&g, kMaxHops);
  auto dli = mel::reach::DistanceLabelIndex::Build(&g, kMaxHops);
  const double ns = static_cast<double>(timer.ElapsedNanos());
  // Keep the builds observable so the compiler cannot drop them.
  if (tc.IndexSizeBytes() + two_hop.IndexSizeBytes() + dli.IndexSizeBytes() ==
      0) {
    std::fprintf(stderr, "impossible: empty indexes\n");
    std::abort();
  }
  return ns;
}

AbResult RunIncrementalAb(uint32_t users, uint32_t num_deltas) {
  using namespace mel;
  gen::SocialGenOptions sopts;
  sopts.num_users = users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);

  // Pick num_deltas edges that do not exist yet: inserted left to right,
  // then erased right to left, so both arms replay identical deltas.
  std::vector<std::pair<NodeId, NodeId>> fresh_edges;
  {
    Rng rng(99);
    while (fresh_edges.size() < num_deltas) {
      const auto u = static_cast<NodeId>(rng.Uniform(users));
      const auto v = static_cast<NodeId>(rng.Uniform(users));
      if (u == v || social.graph.HasEdge(u, v)) continue;
      bool dup = false;
      for (const auto& e : fresh_edges) {
        if (e.first == u && e.second == v) dup = true;
      }
      if (!dup) fresh_edges.emplace_back(u, v);
    }
  }

  AbResult result;
  result.users = users;
  result.num_deltas = num_deltas;

  // --- patch arm: one maintainer carries its indexes through all deltas.
  {
    graph::DirectedGraph g = social.graph;
    auto tc = reach::TransitiveClosureIndex::Build(
        &g, kMaxHops,
        reach::TransitiveClosureIndex::Construction::kIncremental);
    auto two_hop = reach::TwoHopIndex::Build(&g, kMaxHops);
    auto dli = reach::DistanceLabelIndex::Build(&g, kMaxHops);
    reach::ReachMaintainer maintainer(&g, kMaxHops);
    maintainer.Register(&tc);
    maintainer.Register(&two_hop);
    maintainer.Register(&dli);

    auto apply_all = [&](graph::EdgeDelta::Op op, bool reversed) {
      WallTimer timer;
      for (uint32_t i = 0; i < num_deltas; ++i) {
        const auto& e = fresh_edges[reversed ? num_deltas - 1 - i : i];
        graph::EdgeDelta delta;
        delta.op = op;
        delta.u = e.first;
        delta.v = e.second;
        if (!maintainer.ApplyDelta(delta).applied) {
          std::fprintf(stderr, "patch arm: delta unexpectedly a no-op\n");
          std::abort();
        }
      }
      // An erase leaves its 2-hop rebuild queued on the maintenance
      // thread (the next delta waits for it); count the last one too.
      maintainer.Drain();
      return static_cast<double>(timer.ElapsedNanos()) / num_deltas;
    };
    result.patch_insert_ns =
        apply_all(graph::EdgeDelta::Op::kInsert, /*reversed=*/false);
    result.patch_erase_ns =
        apply_all(graph::EdgeDelta::Op::kErase, /*reversed=*/true);
  }

  // --- rebuild arm: same deltas, full index builds after each.
  {
    graph::DirectedGraph g = social.graph;
    double total = 0;
    for (const auto& e : fresh_edges) {
      if (!g.InsertEdge(e.first, e.second)) std::abort();
      total += TimeFullRebuild(g);
    }
    result.rebuild_insert_ns = total / num_deltas;
    total = 0;
    for (uint32_t i = num_deltas; i-- > 0;) {
      const auto& e = fresh_edges[i];
      if (!g.EraseEdge(e.first, e.second)) std::abort();
      total += TimeFullRebuild(g);
    }
    result.rebuild_erase_ns = total / num_deltas;
  }

  result.insert_speedup = result.rebuild_insert_ns / result.patch_insert_ns;
  result.erase_speedup = result.rebuild_erase_ns / result.patch_erase_ns;

  std::printf("\n=== Incremental maintenance (%u users, %u deltas/dir) ===\n",
              users, num_deltas);
  std::printf("insert : patch %s vs rebuild %s  -> %.1fx\n",
              HumanNanos(result.patch_insert_ns).c_str(),
              HumanNanos(result.rebuild_insert_ns).c_str(),
              result.insert_speedup);
  std::printf("erase  : patch %s vs rebuild %s  -> %.1fx\n",
              HumanNanos(result.patch_erase_ns).c_str(),
              HumanNanos(result.rebuild_erase_ns).c_str(),
              result.erase_speedup);

  auto& reg = metrics::Registry();
  reg.GetGauge("bench.incremental.patch_insert_ns")
      ->Set(static_cast<int64_t>(result.patch_insert_ns));
  reg.GetGauge("bench.incremental.rebuild_insert_ns")
      ->Set(static_cast<int64_t>(result.rebuild_insert_ns));
  reg.GetGauge("bench.incremental.patch_erase_ns")
      ->Set(static_cast<int64_t>(result.patch_erase_ns));
  reg.GetGauge("bench.incremental.rebuild_erase_ns")
      ->Set(static_cast<int64_t>(result.rebuild_erase_ns));
  return result;
}

// Patched indexes must equal fresh builds after a full insert+erase
// round trip (the graph is back to its start state) — a cheap sanity
// gate before trusting the timing comparison.
void VerifyRoundTrip(uint32_t users) {
  using namespace mel;
  gen::SocialGenOptions sopts;
  sopts.num_users = users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);
  graph::DirectedGraph g = social.graph;
  auto tc = reach::TransitiveClosureIndex::Build(
      &g, kMaxHops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  reach::ReachMaintainer maintainer(&g, kMaxHops);
  maintainer.Register(&tc);

  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const auto u = static_cast<NodeId>(rng.Uniform(users));
    const auto v = static_cast<NodeId>(rng.Uniform(users));
    if (u == v || g.HasEdge(u, v)) continue;
    graph::EdgeDelta ins{graph::EdgeDelta::Op::kInsert, u, v};
    graph::EdgeDelta era{graph::EdgeDelta::Op::kErase, u, v};
    if (!maintainer.ApplyDelta(ins).applied) std::abort();
    if (!maintainer.ApplyDelta(era).applied) std::abort();
  }
  auto fresh = reach::TransitiveClosureIndex::Build(
      &g, kMaxHops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  Rng check_rng(11);
  for (int i = 0; i < 5000; ++i) {
    const auto u = static_cast<NodeId>(check_rng.Uniform(users));
    const auto v = static_cast<NodeId>(check_rng.Uniform(users));
    if (tc.Distance(u, v) != fresh.Distance(u, v) ||
        tc.Score(u, v) != fresh.Score(u, v)) {
      std::fprintf(stderr, "round-trip mismatch at pair (%u, %u)\n", u, v);
      std::abort();
    }
  }
}

// Per-PR trajectory sidecar (schema v1; keys checked by verify.sh).
void WriteIncrementalSidecar(const AbResult& r, bool smoke) {
  std::ofstream sidecar("BENCH_incremental.json");
  mel::JsonWriter w(&sidecar);
  w.BeginObject();
  w.KeyValue("bench", std::string_view("incremental"));
  w.KeyValue("schema_version", uint64_t{1});
  w.KeyValue("mode", std::string_view(smoke ? "smoke" : "full"));
  w.KeyValue("users", uint64_t{r.users});
  w.KeyValue("num_deltas", uint64_t{r.num_deltas});
  w.KeyValue("patch_insert_ns", r.patch_insert_ns);
  w.KeyValue("rebuild_insert_ns", r.rebuild_insert_ns);
  w.KeyValue("patch_erase_ns", r.patch_erase_ns);
  w.KeyValue("rebuild_erase_ns", r.rebuild_erase_ns);
  w.KeyValue("insert_speedup", r.insert_speedup);
  w.KeyValue("erase_speedup", r.erase_speedup);
  w.EndObject();
  sidecar << "\n";
  std::printf("trajectory written to BENCH_incremental.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 1;
    }
  }

  // Full mode = the standard harness at scale 1.0 (800 users).
  const uint32_t users = smoke ? 300 : 800;
  const uint32_t num_deltas = smoke ? 6 : 40;
  VerifyRoundTrip(users);
  const auto result = RunIncrementalAb(users, num_deltas);
  WriteIncrementalSidecar(result, smoke);

  if (!smoke && result.insert_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: insert patch only %.1fx faster than per-delta "
                 "rebuilds (contract: >= 5x)\n",
                 result.insert_speedup);
    return 1;
  }

  const char* metrics_path = "bench_incremental.metrics.json";
  if (mel::metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("metrics JSON written to %s\n", metrics_path);
  }
  return 0;
}
