// Scheduler A/B: the legacy shared-cursor chunk-pull ParallelFor vs the
// work-stealing executor (per-thread Chase-Lev deques, contiguous initial
// slices, half-range steals, socket-aware victims — see
// docs/PERFORMANCE.md), on three workloads:
//
//   1. skewed synthetic — per-item cost follows a shuffled power law
//      (a few hub-sized items, a long light tail), executed at grain 1.
//      This is the regime the paper's index builds live in: power-law
//      degree distributions force fine grains, and the chunk-pull
//      scheduler then serializes every chunk on one hot cursor line
//      while the tail leaves cores idle. The speedup floor (>= 1.25x at
//      >= 4 hardware threads, full mode only) is asserted here.
//   2. uniform synthetic — equal-cost items at a comfortable grain, as a
//      regression guard: work-stealing must not lose what chunk-pull
//      already handled well (floor 0.90x, same gating).
//   3. the real 2-hop label build on a generated social graph
//      (power-law follower distribution), reported for trajectory
//      tracking (no assert: build times on small graphs are noisy).
//      The build's landmark loop is serial, so the two schedulers
//      differ only on its per-node label sort pass.
//
// Writes two sidecars:
//   bench_scheduler.metrics.json — full registry export (as every bench)
//   BENCH_scheduler.json         — trajectory summary (schema v1; keys
//                                  checked by scripts/verify.sh)
//
// Run:   ./bench/bench_scheduler [--smoke] [--threads N]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/social_graph_generator.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace mel;

// Cheap deterministic per-item busy work; the result is stored so the
// compiler cannot elide the loop.
inline uint64_t SpinWork(uint64_t seed, uint32_t units) {
  uint64_t x = seed | 1;
  for (uint32_t u = 0; u < units; ++u) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

struct Workload {
  std::vector<uint32_t> units;  // per-item cost
  size_t grain = 1;
  const char* name = "";
};

// Power-law item costs, deterministically shuffled so heavy items are
// scattered through the range (as hub vertices are in a degree-ordered
// pass): item with rank r costs ~ count / (r + 1) units on top of a
// floor of 48 units (~100ns), so the tail items model real light
// vertices rather than free iterations whose cost is pure dispatch.
Workload MakeSkewedWorkload(size_t count) {
  Workload w;
  w.name = "skewed";
  w.grain = 1;
  w.units.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t rank = (i * 2654435761ull) % count;
    w.units[i] = static_cast<uint32_t>(48 + count / (rank + 1));
  }
  return w;
}

Workload MakeUniformWorkload(size_t count) {
  Workload w;
  w.name = "uniform";
  w.grain = 64;
  w.units.assign(count, 12);
  return w;
}

// Best-of-reps wall time for one (pool, workload) pair.
double MeasureMillis(util::ThreadPool& pool, const Workload& w,
                     std::vector<uint64_t>& out, int reps) {
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    pool.ParallelFor(0, w.units.size(), w.grain, [&](size_t i) {
      out[i] = SpinWork(i, w.units[i]);
    });
    best_ms = std::min(best_ms, timer.ElapsedMillis());
  }
  // Fold the outputs into a checksum so the work is observable.
  uint64_t checksum = 0;
  for (uint64_t v : out) checksum ^= v;
  if (checksum == 42) std::printf("(unlikely checksum)\n");
  return best_ms;
}

double MeasureTwoHopBuildMillis(const graph::DirectedGraph* g,
                                util::ThreadPool& pool, int reps) {
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    auto index = reach::TwoHopIndex::Build(g, 5, &pool);
    best_ms = std::min(best_ms, timer.ElapsedMillis());
    if (index.IndexSizeBytes() == 0) std::printf("(empty index)\n");
  }
  return best_ms;
}

uint64_t CounterValue(const char* name) {
  return metrics::Registry().GetCounter(name)->Value();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  uint32_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--threads N]\n", argv[0]);
      return 1;
    }
  }
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (threads == 0) threads = std::max(4u, hw);
  const int reps = smoke ? 2 : 3;
  const size_t skew_items = smoke ? (1u << 15) : (1u << 17);
  const size_t uniform_items = smoke ? (1u << 16) : (1u << 18);
  const uint32_t graph_users = smoke ? 600 : 1500;

  util::ThreadPool::Options chunk_opts;
  chunk_opts.num_threads = threads;
  chunk_opts.scheduler = util::SchedulerKind::kChunkPull;
  util::ThreadPool::Options steal_opts;
  steal_opts.num_threads = threads;
  steal_opts.scheduler = util::SchedulerKind::kWorkStealing;
  util::ThreadPool chunk_pool(chunk_opts);
  util::ThreadPool steal_pool(steal_opts);

  std::printf("=== scheduler A/B: chunk-pull vs work-stealing ===\n");
  std::printf("threads=%u (hardware %u), sockets=%u%s, mode=%s\n", threads,
              hw, steal_pool.num_sockets(),
              steal_pool.pinned() ? " pinned" : "", smoke ? "smoke" : "full");

  // ---- Phase 1+2: synthetic workloads -----------------------------
  const Workload skewed = MakeSkewedWorkload(skew_items);
  const Workload uniform = MakeUniformWorkload(uniform_items);
  std::vector<uint64_t> out(std::max(skew_items, uniform_items));

  // Warm both pools (first regions pay thread wakeup + page faults).
  MeasureMillis(chunk_pool, uniform, out, 1);
  MeasureMillis(steal_pool, uniform, out, 1);

  metrics::Registry().Reset();
  const double skew_chunk_ms = MeasureMillis(chunk_pool, skewed, out, reps);
  const uint64_t steals_before = CounterValue("util.pool.steals_total");
  const uint64_t pops_before = CounterValue("util.pool.local_pops_total");
  const double skew_steal_ms = MeasureMillis(steal_pool, skewed, out, reps);
  const uint64_t skew_steals =
      CounterValue("util.pool.steals_total") - steals_before;
  const uint64_t skew_pops =
      CounterValue("util.pool.local_pops_total") - pops_before;

  const double uniform_chunk_ms =
      MeasureMillis(chunk_pool, uniform, out, reps);
  const double uniform_steal_ms =
      MeasureMillis(steal_pool, uniform, out, reps);

  const double skew_speedup = skew_chunk_ms / skew_steal_ms;
  const double uniform_ratio = uniform_chunk_ms / uniform_steal_ms;

  std::printf("\n%-22s %12s %12s %9s\n", "workload", "chunk-pull",
              "work-steal", "speedup");
  std::printf("%-22s %10.2fms %10.2fms %8.2fx\n", "skewed (grain 1)",
              skew_chunk_ms, skew_steal_ms, skew_speedup);
  std::printf("%-22s %10.2fms %10.2fms %8.2fx\n", "uniform (grain 64)",
              uniform_chunk_ms, uniform_steal_ms, uniform_ratio);
  std::printf("skewed steal path: %llu local pops, %llu steals\n",
              static_cast<unsigned long long>(skew_pops),
              static_cast<unsigned long long>(skew_steals));

  // ---- Phase 3: the real 2-hop label build ------------------------
  gen::SocialGenOptions sopts;
  sopts.num_users = graph_users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);
  MeasureTwoHopBuildMillis(&social.graph, steal_pool, 1);  // warm
  const double twohop_chunk_ms =
      MeasureTwoHopBuildMillis(&social.graph, chunk_pool, reps);
  const double twohop_steal_ms =
      MeasureTwoHopBuildMillis(&social.graph, steal_pool, reps);
  const double twohop_speedup = twohop_chunk_ms / twohop_steal_ms;
  std::printf("%-22s %10.2fms %10.2fms %8.2fx   (%u users, report-only)\n",
              "2-hop build", twohop_chunk_ms, twohop_steal_ms,
              twohop_speedup, graph_users);

  // ---- Sidecars ---------------------------------------------------
  auto& reg = metrics::Registry();
  reg.GetGauge("bench.scheduler.skew_speedup_x100")
      ->Set(static_cast<int64_t>(skew_speedup * 100));
  reg.GetGauge("bench.scheduler.uniform_ratio_x100")
      ->Set(static_cast<int64_t>(uniform_ratio * 100));
  reg.GetGauge("bench.scheduler.twohop_speedup_x100")
      ->Set(static_cast<int64_t>(twohop_speedup * 100));
  const char* metrics_path = "bench_scheduler.metrics.json";
  if (metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("\nmetrics JSON written to %s\n", metrics_path);
  }

  // The speedup floor only means something on real parallel hardware,
  // in full mode (smoke keeps CI fast and deterministic).
  const bool asserted = !smoke && hw >= 4 && threads >= 4;
  {
    std::ofstream sidecar("BENCH_scheduler.json");
    JsonWriter w(&sidecar);
    w.BeginObject();
    w.KeyValue("bench", std::string_view("scheduler"));
    w.KeyValue("schema_version", uint64_t{1});
    w.KeyValue("mode", std::string_view(smoke ? "smoke" : "full"));
    w.KeyValue("threads", uint64_t{threads});
    w.KeyValue("hw_threads", uint64_t{hw});
    w.KeyValue("sockets", uint64_t{steal_pool.num_sockets()});
    w.KeyValue("pinned", steal_pool.pinned());
    w.KeyValue("skew_items", uint64_t{skew_items});
    w.KeyValue("skew_chunk_ms", skew_chunk_ms);
    w.KeyValue("skew_steal_ms", skew_steal_ms);
    w.KeyValue("skew_speedup", skew_speedup);
    w.KeyValue("skew_steals", skew_steals);
    w.KeyValue("skew_local_pops", skew_pops);
    w.KeyValue("uniform_items", uint64_t{uniform_items});
    w.KeyValue("uniform_chunk_ms", uniform_chunk_ms);
    w.KeyValue("uniform_steal_ms", uniform_steal_ms);
    w.KeyValue("uniform_ratio", uniform_ratio);
    w.KeyValue("twohop_users", uint64_t{graph_users});
    w.KeyValue("twohop_chunk_ms", twohop_chunk_ms);
    w.KeyValue("twohop_steal_ms", twohop_steal_ms);
    w.KeyValue("twohop_speedup", twohop_speedup);
    w.KeyValue("asserted", asserted);
    w.EndObject();
    sidecar << "\n";
    std::printf("trajectory written to BENCH_scheduler.json\n");
  }

  // ---- Acceptance gates -------------------------------------------
  bool ok = true;
  if (asserted) {
    if (skew_speedup < 1.25) {
      std::printf("FAIL: skewed speedup %.2fx below the 1.25x floor\n",
                  skew_speedup);
      ok = false;
    }
    if (uniform_ratio < 0.90) {
      std::printf("FAIL: uniform ratio %.2fx regressed below 0.90x\n",
                  uniform_ratio);
      ok = false;
    }
  } else {
    std::printf(
        "floors not asserted (%s, %u hardware threads); they apply in "
        "full mode at >= 4 hardware threads\n",
        smoke ? "smoke mode" : "full mode", hw);
  }
  return ok ? 0 : 1;
}
