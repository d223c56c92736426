#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/cpu_topology.h"
#include "util/metrics.h"

namespace mel::util {

namespace {

// True while the current thread executes inside a ParallelFor region —
// as a pool worker or as the submitting caller. Nested ParallelFor calls
// observe it and degrade to the serial inline path.
thread_local bool t_in_parallel_region = false;

struct PoolMetrics {
  metrics::Counter* regions;
  metrics::Counter* inline_regions;
  metrics::Histogram* region_ns;
  metrics::Histogram* worker_items;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics m = [] {
    auto& reg = metrics::Registry();
    PoolMetrics pm;
    pm.regions = reg.GetCounter("util.pool.parallel_for_total");
    pm.inline_regions = reg.GetCounter("util.pool.inline_for_total");
    pm.region_ns = reg.GetHistogram("util.pool.parallel_for_ns");
    pm.worker_items = reg.GetHistogram("util.pool.worker_items");
    return pm;
  }();
  return m;
}

}  // namespace

struct ThreadPool::Job {
  size_t end = 0;
  size_t grain = 1;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<bool> cancelled{false};
  std::atomic<size_t> next{0};  // the shared cursor
};

ThreadPool::ThreadPool(uint32_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  const CpuTopology& topo = HostTopology();
  const bool pinned = topo.detected && !topo.cpus.empty();
  workers_.reserve(num_threads - 1);
  for (uint32_t t = 0; t + 1 < num_threads; ++t) {
    // Workers fill topology order (socket-major); cpu slot 0 is left to
    // the submitting thread, which commonly runs there.
    std::optional<uint32_t> cpu;
    if (pinned) cpu = topo.cpus[(t + 1) % topo.cpus.size()].cpu_id;
    workers_.emplace_back([this, t, cpu] { WorkerLoop(t, cpu); });
  }
  if (!workers_.empty()) {
    std::fprintf(stderr, "[mel] ThreadPool: threads=%u%s\n", num_threads,
                 pinned ? " (workers pinned)" : "");
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: destruction order against other static state at
  // exit is not worth the risk, and the workers park on a condvar.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::CaptureException(Job* job) {
  job->cancelled.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_exception_) first_exception_ = std::current_exception();
}

void ThreadPool::RunChunks(Job* job) {
  uint64_t processed = 0;
  while (!job->cancelled.load(std::memory_order_relaxed)) {
    size_t start = job->next.fetch_add(job->grain, std::memory_order_relaxed);
    if (start >= job->end) break;
    size_t stop = std::min(start + job->grain, job->end);
    try {
      for (size_t i = start; i < stop; ++i) (*job->fn)(i);
    } catch (...) {
      CaptureException(job);
      break;
    }
    processed += stop - start;
  }
  if (metrics::Enabled()) GetPoolMetrics().worker_items->Record(processed);
}

void ThreadPool::WorkerLoop(uint32_t worker_index,
                            std::optional<uint32_t> cpu) {
  if (cpu.has_value()) PinCurrentThreadToCpu(*cpu);
  t_in_parallel_region = true;  // workers never open nested regions
  uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ ||
               (job_ != nullptr && job_generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      // Only the first `job_worker_limit_` workers join the region, which
      // is how ParallelFor honours its participant cap.
      if (worker_index >= job_worker_limit_) continue;
      ++workers_in_job_;
      job = job_;
    }
    RunChunks(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_in_job_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& fn,
                             uint32_t max_threads) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t count = end - begin;
  if (max_threads == 0) max_threads = num_threads();

  // Degenerate and nested regions run inline on the caller with zero
  // synchronization: no job, no locks, no worker wakeups (contract in
  // the header). The metrics increment is one relaxed atomic and only
  // happens while metrics are enabled.
  if (t_in_parallel_region || workers_.empty() || max_threads <= 1 ||
      count <= grain) {
    if (metrics::Enabled()) GetPoolMetrics().inline_regions->Increment();
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const PoolMetrics& pm = GetPoolMetrics();
  if (metrics::Enabled()) pm.regions->Increment();
  metrics::ScopedStageTimer region_timer(pm.region_ns);

  const size_t chunks = (count + grain - 1) / grain;
  // The caller is one participant; workers fill the rest, never more
  // than one per chunk.
  const uint32_t helpers = static_cast<uint32_t>(std::min<size_t>(
      {workers_.size(), max_threads - 1, chunks - 1}));

  Job job;
  job.end = end;
  job.grain = grain;
  job.fn = &fn;
  job.next.store(begin, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_generation_;
    first_exception_ = nullptr;
    job_worker_limit_ = helpers;
  }
  work_cv_.notify_all();

  t_in_parallel_region = true;
  RunChunks(&job);
  t_in_parallel_region = false;

  std::exception_ptr exception;
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // late wakeups must not join a finished region
    done_cv_.wait(lock, [&] { return workers_in_job_ == 0; });
    exception = first_exception_;
    first_exception_ = nullptr;
  }
  if (exception) std::rethrow_exception(exception);
}

}  // namespace mel::util
