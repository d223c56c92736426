#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cpu_topology.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mel {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(15);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ----------------------------------------------------------------- Zipf

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0;
  for (size_t r = 0; r < 100; ++r) total += zipf.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroIsMostLikely) {
  ZipfSampler zipf(50, 1.2);
  for (size_t r = 1; r < 50; ++r) {
    EXPECT_GT(zipf.Probability(0), zipf.Probability(r));
  }
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.Probability(r), 0.1, 1e-9);
  }
}

TEST(ZipfTest, EmpiricalFrequencyTracksProbability) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(19);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(counts[r] / static_cast<double>(n), zipf.Probability(r),
                0.01);
  }
}

TEST(WeightedSampleTest, RespectsWeights) {
  Rng rng(21);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    size_t pick = WeightedSample(weights, &rng);
    ASSERT_LT(pick, 3u);
    ++counts[pick];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[1]), 3.0, 0.2);
}

TEST(WeightedSampleTest, AllZeroReturnsSize) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(WeightedSample(weights, &rng), 2u);
  std::vector<double> empty;
  EXPECT_EQ(WeightedSample(empty, &rng), 0u);
}

// --------------------------------------------------------------- string

TEST(StringUtilTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("MiXeD Case 42!"), "mixed case 42!");
  EXPECT_EQ(AsciiLower(""), "");
}

TEST(StringUtilTest, SplitNonEmptyDropsEmptyFields) {
  auto parts = SplitNonEmpty("a,,b,c,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(2048), "2.0KB");
  EXPECT_EQ(HumanBytes(1536 * 1024 * 1024ULL), "1.5GB");
}

TEST(StringUtilTest, HumanNanos) {
  EXPECT_EQ(HumanNanos(500), "500ns");
  EXPECT_EQ(HumanNanos(1500), "1.5us");
  EXPECT_EQ(HumanNanos(2.5e6), "2.5ms");
  EXPECT_EQ(HumanNanos(3e9), "3.0s");
}

// ---------------------------------------------------------------- timer

TEST(TimerTest, ElapsedIsMonotonic) {
  WallTimer timer;
  int64_t a = timer.ElapsedNanos();
  int64_t b = timer.ElapsedNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

TEST(TimerTest, RestartResets) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  int64_t before = timer.ElapsedNanos();
  timer.Restart();
  EXPECT_LE(timer.ElapsedNanos(), before);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  util::ThreadPool pool(0);
  uint32_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(pool.num_threads(), hw == 0 ? 4u : hw);
}

TEST(ThreadPoolTest, SharedIsASingleton) {
  EXPECT_EQ(&util::ThreadPool::Shared(), &util::ThreadPool::Shared());
  EXPECT_GE(util::ThreadPool::Shared().num_threads(), 1u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  for (size_t count : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(0, count, /*grain=*/3,
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPoolTest, RespectsBeginOffsetAndGrainZero) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(4, 10, /*grain=*/0,
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(hits[i].load(), i >= 4 ? 1 : 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.ParallelFor(0, 16, 1,
                   [&](size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, MaxThreadsOneRunsInline) {
  util::ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.ParallelFor(
      0, 16, 1, [&](size_t i) { seen[i] = std::this_thread::get_id(); },
      /*max_threads=*/1);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, NestedParallelForRunsSerially) {
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t) {
    // The nested region must run inline on this thread — deadlock-free
    // even though all pool threads may already be inside the outer one.
    std::thread::id me = std::this_thread::get_id();
    pool.ParallelFor(0, 4, 1, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), me);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 8 * 4);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive a throwing region and keep working.
  std::atomic<int> total{0};
  pool.ParallelFor(0, 50, 1, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPoolTest, SerialInlineExceptionPropagates) {
  util::ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 3, 1,
                                [&](size_t) {
                                  throw std::runtime_error("inline boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, BackToBackRegions) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.ParallelFor(0, 20, 2, [&](size_t) { total.fetch_add(1); });
    ASSERT_EQ(total.load(), 20);
  }
}

// ----------------------------------------- ThreadPool region contract

uint64_t CounterValue(const char* name) {
  return metrics::Registry().GetCounter(name)->Value();
}

// Forced skew: index 0 blocks its participant long enough that the
// others must pull every remaining chunk from the shared cursor. Every
// index still runs exactly once.
TEST(ThreadPoolTest, SkewedWorkloadCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kCount = 512;
  std::vector<std::atomic<uint32_t>> visits(kCount);
  pool.ParallelFor(0, kCount, 1, [&](size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
  }
}

// An exception thrown late in the range (while the participant holding
// index 0 is still blocked) cancels the region, rethrows on the caller,
// and never runs an index twice. The pool stays usable afterwards.
TEST(ThreadPoolTest, ExceptionMidRegionCancelsAndRethrows) {
  util::ThreadPool pool(4);
  constexpr size_t kCount = 512;
  std::vector<std::atomic<uint32_t>> visits(kCount);
  EXPECT_THROW(
      pool.ParallelFor(0, kCount, 1,
                       [&](size_t i) {
                         visits[i].fetch_add(1, std::memory_order_relaxed);
                         if (i == 0) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                         }
                         if (i == kCount - 5) {
                           throw std::runtime_error("boom late in range");
                         }
                       }),
      std::runtime_error);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_LE(visits[i].load(), 1u) << "index " << i;
  }
  // A cancelled region leaves no residue: the next region covers its
  // range exactly.
  std::atomic<int> total{0};
  pool.ParallelFor(0, 100, 1, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t) {
    std::thread::id outer = std::this_thread::get_id();
    pool.ParallelFor(0, 4, 1, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

// Degenerate regions (count <= grain, or capped to one participant) run
// inline on the calling thread: no job is opened, no worker woken.
TEST(ThreadPoolTest, DegenerateRegionRunsInlineOnCaller) {
  util::ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  const uint64_t regions_before =
      CounterValue("util.pool.parallel_for_total");
  const uint64_t inline_before = CounterValue("util.pool.inline_for_total");

  // count <= grain: one chunk, nothing to parallelize.
  pool.ParallelFor(0, 8, 8, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  pool.ParallelFor(0, 5, 100, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  // max_threads == 1: explicit single-participant cap.
  pool.ParallelFor(
      0, 64, 1, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*max_threads=*/1);

  EXPECT_EQ(CounterValue("util.pool.parallel_for_total"), regions_before);
  EXPECT_EQ(CounterValue("util.pool.inline_for_total"), inline_before + 3);
}

// Many tiny regions submitted from racing threads: concurrent callers
// serialize on the pool, every region covers its range exactly once.
// Exercises region open/close and worker hand-off under TSan from
// multiple submitter threads.
TEST(ThreadPoolStressTest, ManySmallRegionsFromManySubmitters) {
  util::ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kRegionsEach = 60;
  constexpr size_t kItems = 64;
  std::atomic<uint64_t> grand_total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int r = 0; r < kRegionsEach; ++r) {
        std::atomic<uint64_t> region_total{0};
        pool.ParallelFor(0, kItems, 1, [&](size_t i) {
          region_total.fetch_add(i + 1, std::memory_order_relaxed);
        });
        ASSERT_EQ(region_total.load(), kItems * (kItems + 1) / 2)
            << "submitter " << s << " region " << r;
        grand_total.fetch_add(region_total.load());
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(grand_total.load(),
            uint64_t{kSubmitters} * kRegionsEach * kItems * (kItems + 1) / 2);
}

// ----------------------------------------------------- CpuTopology

TEST(CpuTopologyTest, ParseCpuList) {
  using util::internal::ParseCpuList;
  EXPECT_EQ(ParseCpuList("0"), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ParseCpuList("0-3"), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(ParseCpuList("0-1,4,6-7"),
            (std::vector<uint32_t>{0, 1, 4, 6, 7}));
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("garbage").empty());
}

TEST(CpuTopologyTest, HostTopologyIsSane) {
  const util::CpuTopology& topo = util::HostTopology();
  ASSERT_GE(topo.cpus.size(), 1u);
  ASSERT_GE(topo.num_sockets, 1u);
  for (const auto& cpu : topo.cpus) {
    EXPECT_LT(cpu.socket, topo.num_sockets);
  }
  // Sorted socket-major so neighbouring workers share a socket.
  for (size_t i = 1; i < topo.cpus.size(); ++i) {
    EXPECT_LE(topo.cpus[i - 1].socket, topo.cpus[i].socket);
  }
}

}  // namespace
}  // namespace mel
