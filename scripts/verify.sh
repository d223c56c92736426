#!/usr/bin/env sh
# Tier-1 verification: the exact command from ROADMAP.md.
# Configures, builds, and runs the full test suite; fails on the first error.
#
# A second stage runs a Release-mode bench smoke: the hot-path A/B bench,
# the reachability arena/count-only A/B, the serving micro-batch A/B
# (which also asserts batched == sequential bit-identity), the MEL3
# startup A/B (mmap vs deserializing load; the >= 10x floor asserts only
# in full mode), the incremental-maintenance A/B (patch vs per-delta
# index rebuilds; the >= 5x insert floor asserts only in full mode), the
# SIMD kernel A/B (scalar vs dispatched kernel tables; the >= 1.5x
# merge-intersection floor asserts only in full mode on AVX2 hosts), and
# a short bench_micro filter, then checks that all metrics sidecars are
# valid JSON and that the BENCH_serving.json / BENCH_hotpath.json /
# BENCH_reach.json / BENCH_startup.json / BENCH_incremental.json /
# BENCH_kernels.json trajectories carry their required keys
# (docs/PERFORMANCE.md). Skip it (e.g. on very slow machines) with
# MEL_SKIP_BENCH=1.
#
# A forced-scalar stage reruns the suites that sit on the SIMD kernel
# layer (util, simd, graph, text, kb, reach, differential) with
# MEL_SIMD=scalar, proving the scalar kernel tier gives bit-identical
# behavior to whatever tier the host dispatched in stage one — the same
# contract the binary relies on when it lands on a host without AVX2.
# Skip it with MEL_SKIP_SCALAR=1.
#
# A third stage rebuilds the threaded code under ThreadSanitizer and
# runs the suites that exercise the thread pool (including the
# many-submitters stress test), the parallel index and network
# constructions, the recency-cache fill, the reach-score cache, the
# batch linker, the serving loop (producers + feedback racing the
# dispatcher, epoch-schedule replay, drain-on-shutdown), the
# metrics-export concurrency test, the concurrent mapped-index query
# test, and the differential concurrency tests (ConfirmLink epoch bumps
# racing the recency cache). Skip it (e.g. on machines without TSan
# runtime support) with MEL_SKIP_TSAN=1.
#
# A fourth stage, `differential`, rebuilds under AddressSanitizer and
# replays a scaled-up randomized differential sweep (see docs/TESTING.md)
# through every production fast path against the mel::testing oracles;
# the same binary also runs under TSan in stage three with a reduced
# case count. Override the ASan case count with MEL_DIFF_CASES (default
# 400 here; 200 in plain ctest) or skip the stage with MEL_SKIP_DIFF=1.
#
# A fifth stage, `e2e`, runs the follow_churn serving workload for 3 s
# with tracing (python3 e2ebench/run.py, Release build under
# .bench_build/): it fails unless the result object reports
# "correct": true and the counts line shows at least one label-index
# rebuild, so every verify replays an erase rebuild on the serving
# barrier under the end-to-end correctness gate. Skip it with
# MEL_SKIP_E2E=1.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S . && cmake --build build -j && (cd build && ctest --output-on-failure -j)

if [ "${MEL_SKIP_BENCH:-0}" != "1" ]; then
  echo "=== Bench smoke: query hot path A/B + reach arena A/B + serving + micro (Release) ==="
  cmake --build build -j --target bench_query_hotpath bench_micro \
    bench_reachability_index bench_serving \
    bench_index_startup bench_incremental bench_kernels
  (cd build/bench && ./bench_query_hotpath --smoke)
  (cd build/bench && ./bench_kernels --smoke)
  (cd build/bench && ./bench_reachability_index --smoke)
  (cd build/bench && ./bench_serving --smoke)
  (cd build/bench && ./bench_index_startup --smoke)
  (cd build/bench && ./bench_incremental --smoke)
  (cd build/bench && ./bench_micro \
    --benchmark_filter='BM_LinkMention$|BM_LinkMentionRecencyCacheOff|BM_RecencyCandidateScores' \
    --benchmark_min_time=0.05)
  python3 -c '
import json, sys
for path in ("build/bench/bench_query_hotpath.metrics.json",
             "build/bench/bench_reachability_index.metrics.json",
             "build/bench/bench_serving.metrics.json",
             "build/bench/bench_index_startup.metrics.json",
             "build/bench/bench_incremental.metrics.json",
             "build/bench/bench_kernels.metrics.json",
             "build/bench/bench_micro.metrics.json"):
    with open(path) as f:
        json.load(f)
    print(path, "parses")
# The trajectory sidecars (docs/PERFORMANCE.md) must carry their
# required keys so the committed BENCH_*.json files stay comparable
# across PRs.
required = {
    "BENCH_serving.json": ("bench", "schema_version", "qps_batched",
                           "speedup", "identity_ok", "link_latency_ns"),
    "BENCH_hotpath.json": ("bench", "schema_version", "mode",
                           "baseline_mentions_per_sec",
                           "optimized_mentions_per_sec", "speedup",
                           "parallel_build_identical"),
    "BENCH_reach.json": ("bench", "schema_version", "mode",
                         "legacy_score_ns", "arena_score_ns",
                         "score_only_ns", "arena_index_bytes",
                         "legacy_index_bytes"),
    "BENCH_startup.json": ("bench", "schema_version", "mode", "users",
                           "file_bytes", "deserialize_warm_ns",
                           "deserialize_cold_ns", "mmap_warm_ns",
                           "mmap_cold_ns", "mmap_first_query_ns",
                           "warm_speedup"),
    "BENCH_incremental.json": ("bench", "schema_version", "mode", "users",
                               "num_deltas", "patch_insert_ns",
                               "rebuild_insert_ns", "patch_erase_ns",
                               "rebuild_erase_ns", "insert_speedup",
                               "erase_speedup"),
    "BENCH_kernels.json": ("bench", "schema_version", "mode", "level",
                           "merge_scalar_ns", "merge_dispatched_ns",
                           "merge_speedup", "gallop_speedup",
                           "minsum_speedup", "probe_speedup",
                           "frontier_speedup"),
}
for name, keys in required.items():
    with open("build/bench/" + name) as f:
        t = json.load(f)
    for key in keys:
        assert key in t, name + " missing key: " + key
    print("build/bench/" + name, "carries the required keys")
    if name == "BENCH_serving.json":
        assert t["bench"] == "serving" and t["identity_ok"] is True
    if name == "BENCH_hotpath.json":
        assert t["parallel_build_identical"] is True
'
fi

if [ "${MEL_SKIP_SCALAR:-0}" != "1" ]; then
  echo "=== Forced-scalar stage: SIMD-layer suites with MEL_SIMD=scalar ==="
  (cd build && MEL_SIMD=scalar ctest --output-on-failure \
    -L '^(util_test|simd_test|graph_test|text_test|kb_test|reach_test|differential_test)$' -j)
fi

if [ "${MEL_SKIP_TSAN:-0}" != "1" ]; then
  echo "=== TSan stage: thread pool + parallel builds + caches + batch linker + serving ==="
  cmake -B build-tsan -S . -DMEL_SANITIZE=thread
  cmake --build build-tsan -j --target util_test reach_test core_test \
    extensions_test recency_test text_test differential_test \
    metrics_test serve_test mmap_test incremental_test
  (cd build-tsan && ctest --output-on-failure \
    -R 'ThreadPool|Parallel|CachedReachability|DifferentialConcurrency|ServeFixture|ConcurrencyTest|MmapConcurrency|Incremental' -j)
  echo "=== TSan stage: reduced differential sweep (mutation shards included) ==="
  (cd build-tsan/tests && MEL_DIFF_CASES="${MEL_DIFF_CASES_TSAN:-40}" \
    ./differential_test --gtest_filter='DifferentialShards.Shard*:MutationSweep.Shard*')
fi

if [ "${MEL_SKIP_DIFF:-0}" != "1" ]; then
  echo "=== Differential stage: oracle sweep + mmap tier under ASan ==="
  cmake -B build-asan -S . -DMEL_SANITIZE=address
  cmake --build build-asan -j --target differential_test mmap_test
  (cd build-asan/tests && ./mmap_test)
  (cd build-asan/tests && MEL_DIFF_CASES="${MEL_DIFF_CASES:-400}" \
    ./differential_test)
fi

if [ "${MEL_SKIP_E2E:-0}" != "1" ]; then
  echo "=== E2E stage: follow_churn erase barrier under the correctness gate ==="
  python3 e2ebench/run.py --workload follow_churn --seconds 3 --trace 1 |
    python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
counts = next((json.loads(l[len("counts: "):]) for l in lines
               if l.startswith("counts: ")), None)
assert counts is not None, "no counts line in the e2e output"
result = json.loads(lines[-1])
print("follow_churn: correct", result["correct"], "rebuilds", counts["rebuilds"])
assert result["correct"] is True, "e2e correctness gate failed"
assert counts["rebuilds"] >= 1, "no erase rebuild ran on the barrier"
'
fi
