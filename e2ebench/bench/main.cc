// End-to-end serving benchmark: one seeded traffic mix through
// serve::LinkService, checked response by response against a sequential
// replay, reported as one JSON line.
//
//   mel_e2e --workload <read_fixed|stream_feedback|follow_churn>
//           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//           [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 prints the end-to-end metrics (no decorators, metrics off).
// --trace 1 serves the same stream with the tracing decorators installed
// and prints the per-layer metrics, timed in the sequential replay. See
// README.md for every metric's definition.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "reach/reach_maintainer.h"
#include "reach/two_hop_index.h"
#include "recency/propagation_network.h"
#include "recency/sliding_window.h"
#include "replay.h"
#include "serve/link_service.h"
#include "serving.h"
#include "tracing.h"
#include "util/metrics.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"

namespace mel::e2e {
namespace {

// Cold starts per run; setup_s is their median.
constexpr int kSetupReps = 9;
// Closed loop: traffic before the measured window (fills the recency
// memo and the allocator's free lists).
constexpr double kClosedLoopWarmupS = 1.0;
// Open loop: a run whose generator fell further behind schedule than
// this at p99 measured the generator, not the service, and is invalid.
constexpr double kLatenessBoundMs = 50;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "mel_e2e: %s\nusage: mel_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> "
               "[--git-sha <sha>] [--source-digest <hex>]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindMix(args.workload) == nullptr) Usage("unknown --workload");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (args.scratch.empty()) Usage("--scratch is required");
  return args;
}

// ---------------------------------------------------------------------
// The served stack and its timed cold start.

struct SetupTimes {
  double index_load_ns = 0;
  double network_build_ns = 0;
  double service_ns = 0;  // LinkService construction, i.e. WarmUp
  double total_ns = 0;
};

struct MutationSample {
  graph::EdgeDelta::Op op;
  int64_t ns;
  uint32_t rebuilt;
};

/// Everything one served linker needs. Members are destroyed in reverse
/// order, so the service stops before anything it reads goes away.
struct Stack {
  graph::DirectedGraph graph;
  kb::ComplementedKnowledgebase ckb;
  std::unique_ptr<reach::TwoHopIndex> index;
  std::unique_ptr<reach::ReachMaintainer> maintainer;
  std::unique_ptr<recency::PropagationNetwork> network;
  std::unique_ptr<recency::SlidingWindowRecency> window;
  std::unique_ptr<TimedReachability> timed_reach;
  std::unique_ptr<TimedRecencySource> timed_recency;
  std::unique_ptr<core::EntityLinker> linker;
  // Written by the mutation handler on the dispatcher thread; read only
  // after the service stopped.
  std::vector<MutationSample> mutations;
  std::unique_ptr<serve::LinkService> service;

  explicit Stack(const Deployment& d) : graph(d.graph()), ckb(d.ckb()) {}
};

/// Service cold start: map the MEL3 index, build the propagation
/// network, construct the linker and the service (which warms up). The
/// mutable state copies are made before the clock starts.
std::unique_ptr<Stack> ColdStart(const Deployment& d, const MixSpec& mix,
                                 bool traced, SetupTimes* times) {
  auto stack = std::make_unique<Stack>(d);
  const int64_t t0 = NowNs();
  Result<reach::TwoHopIndex> loaded =
      reach::TwoHopIndex::LoadMapped(d.index_path(), &stack->graph);
  if (!loaded.ok()) {
    std::fprintf(stderr, "mel_e2e: index load failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(2);
  }
  stack->index =
      std::make_unique<reach::TwoHopIndex>(std::move(loaded).value());
  const int64_t t1 = NowNs();
  stack->network = std::make_unique<recency::PropagationNetwork>(
      recency::PropagationNetwork::Build(d.kb(), kTheta2));
  const int64_t t2 = NowNs();

  const core::LinkerOptions options = BenchLinkerOptions();
  const reach::WeightedReachability* reachability = stack->index.get();
  const recency::RecencySource* recency_override = nullptr;
  if (traced) {
    stack->window = std::make_unique<recency::SlidingWindowRecency>(
        &stack->ckb, options.tau, options.theta1);
    stack->timed_reach = std::make_unique<TimedReachability>(reachability);
    stack->timed_recency =
        std::make_unique<TimedRecencySource>(stack->window.get());
    reachability = stack->timed_reach.get();
    recency_override = stack->timed_recency.get();
  }
  stack->linker = std::make_unique<core::EntityLinker>(
      &d.kb(), &stack->ckb, reachability, stack->network.get(), options,
      recency_override);

  serve::ServeOptions sopts;
  sopts.policy = serve::AdmissionPolicy::kBlock;
  // Room for two seconds of open-loop traffic: admission never blocks
  // the generator, even behind an erase barrier.
  sopts.queue_capacity = mix.closed_loop
                             ? mix.outstanding
                             : static_cast<size_t>(2 * mix.rate);
  if (mix.links_per_delta != 0) {
    stack->maintainer =
        std::make_unique<reach::ReachMaintainer>(&stack->graph, kMaxHops);
    stack->maintainer->Register(stack->index.get());
    Stack* s = stack.get();
    sopts.mutation_handler = [s](const graph::EdgeDelta& delta) {
      const int64_t start = NowNs();
      const reach::ReachMaintainer::ApplyResult r =
          s->maintainer->ApplyDelta(delta);
      uint32_t rebuilt = 0;
      for (reach::MutationResult m : r.results) {
        rebuilt += m == reach::MutationResult::kRebuilt;
      }
      s->mutations.push_back({delta.op, NowNs() - start, rebuilt});
    };
  }
  const int64_t t3 = NowNs();
  stack->service =
      std::make_unique<serve::LinkService>(stack->linker.get(), sopts);
  const int64_t t4 = NowNs();
  *times = {static_cast<double>(t1 - t0), static_cast<double>(t2 - t1),
            static_cast<double>(t4 - t3), static_cast<double>(t4 - t0)};
  return stack;
}

// ---------------------------------------------------------------------
// Reporting.

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Append(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(),
                    other.metrics_.end());
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(metrics_[i].name) + ": {\"value\": " +
             Number(metrics_[i].value) +
             ", \"unit\": " + Quoted(metrics_[i].unit) + "}";
    }
    return out + "}";
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> metrics_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintProvenance(const Args& args, const MixSpec& mix) {
  const util::ThreadPool& pool = util::ThreadPool::Shared();
  std::printf(
      "provenance: {\"git_sha\": %s, \"source_digest\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"cpu_model\": %s, "
      "\"nproc\": %u, \"pool_threads\": %u, \"simd_level\": %s, "
      "\"scheduler\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"world_seed\": %llu, \"scale\": %s, \"seconds\": %s, "
      "\"trace\": %d}\n",
      Quoted(args.git_sha).c_str(), Quoted(args.source_digest).c_str(),
      Quoted(MEL_E2E_BUILD_TYPE).c_str(), Quoted(Compiler()).c_str(),
      Quoted(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      pool.num_threads(),
      Quoted(util::simd::LevelName(util::simd::ActiveLevel())).c_str(),
      Quoted(pool.scheduler() == util::SchedulerKind::kWorkStealing
                 ? "work-stealing"
                 : "chunk-pull")
          .c_str(),
      Quoted(std::string(mix.name)).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kWorldSeed), Number(mix.scale).c_str(),
      Number(args.seconds).c_str(), args.trace);
}

// Returns the memory the discarded cold starts freed to the system and
// restarts the peak-RSS count (Linux), so that peak_rss_mb is the served
// stack's resident set plus what serving adds to it, not the input
// generation or allocator leftovers before it.
void ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ms(double ns) { return ns / 1e6; }
double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

template <typename T>
double Sum(const std::vector<T>& v) {
  double s = 0;
  for (const T& x : v) s += static_cast<double>(x);
  return s;
}

// Served-side figures shared by both modes.
struct ServedStats {
  size_t samples = 0;  // measured kOk links
  double links_per_s = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  uint64_t failed = 0;
  uint64_t attempted = 0;
};

// Closed loop: medians over the measured phase's one-second windows of
// each window's count and percentiles, so a second in which another
// tenant of the host takes the CPU moves them less (every submission
// follows a completion, so a window's count is its throughput). Open
// loop: goodput and percentiles over the whole run, whose tail is set by
// the mix's own barrier stalls.
ServedStats SummarizeServed(const ServedRun& run, bool closed_loop,
                            double seconds) {
  const size_t num_windows = closed_loop ? static_cast<size_t>(seconds) : 0;
  ServedStats s;
  std::vector<int64_t> latency;
  std::vector<std::vector<int64_t>> windows(num_windows);
  int64_t first = 0, last = 0;
  for (size_t i = 0; i < run.links.size(); ++i) {
    const LinkRecord& r = run.links[i];
    const bool ok = r.resolved && r.status == serve::ServeStatus::kOk;
    if (!ok) ++s.failed;
    if (!ok || i < run.warmup_links) continue;
    if (latency.empty()) first = r.due_ns;
    last = std::max(last, r.ready_ns);
    latency.push_back(r.ready_ns - r.due_ns);
    const auto w = static_cast<size_t>((r.due_ns - first) / 1'000'000'000);
    if (w < num_windows) windows[w].push_back(latency.back());
  }
  for (const WriteRecord& w : run.writes) {
    if (!w.resolved || w.ack_epoch == serve::kFeedbackRejected) ++s.failed;
  }
  s.attempted = run.links.size() + run.writes.size();
  s.samples = latency.size();
  s.links_per_s = Ratio(static_cast<double>(latency.size()) * 1e9,
                        static_cast<double>(last - first));
  if (num_windows == 0) {
    s.p50_ns = Percentile(latency, 50);
    s.p99_ns = Percentile(latency, 99);
    return s;
  }
  std::vector<double> count, p50, p99;
  std::printf("windows (links, p99 ms):");
  for (const std::vector<int64_t>& w : windows) {
    count.push_back(static_cast<double>(w.size()));
    p50.push_back(Percentile(w, 50));
    p99.push_back(Percentile(w, 99));
    std::printf(" %zu/%.2f", w.size(), Ms(p99.back()));
  }
  std::printf("\n");
  s.links_per_s = Percentile(count, 50);
  s.p50_ns = Percentile(p50, 50);
  s.p99_ns = Percentile(p99, 50);
  return s;
}

void AddTracedMetrics(const Deployment& d, const ServedRun& run,
                      const ServedStats& served, const ReplayResult& replay,
                      const Stack& stack, const SetupTimes& setup,
                      Report* report) {
  // serve.*: queue wait, service time, batching, barriers.
  std::vector<int64_t> queue_wait, service;
  uint64_t ok = 0, batches = 0;
  double batch_link_ns = 0, batch_wall_ns = 0;
  for (size_t i = 0; i < run.links.size();) {
    const LinkRecord& head = run.links[i];
    if (!head.resolved || head.status != serve::ServeStatus::kOk) {
      ++i;
      continue;
    }
    // Micro-batches are contiguous in submission order (checked by the
    // gate); dispatch time is submit + queue wait of any member.
    const size_t end = std::min(run.links.size(), i + head.batch_size);
    int64_t dispatch = INT64_MAX, ready = 0;
    for (size_t k = i; k < end; ++k) {
      const LinkRecord& r = run.links[k];
      const int64_t start = r.submit_ns + r.queue_wait_ns;
      dispatch = std::min(dispatch, start);
      ready = std::max(ready, r.ready_ns);
      queue_wait.push_back(r.queue_wait_ns);
      service.push_back(r.ready_ns - start);
      batch_link_ns += static_cast<double>(
          std::max<int64_t>(0, replay.link_ns_by_stream[r.stream_index]));
      ++ok;
    }
    batch_wall_ns += static_cast<double>(ready - dispatch);
    ++batches;
    i = end;
  }
  report->Add("serve.queue_wait_ms.p50", Ms(Percentile(queue_wait, 50)),
              "ms");
  report->Add("serve.queue_wait_ms.p99", Ms(Percentile(queue_wait, 99)),
              "ms");
  report->Add("serve.service_ms.p99", Ms(Percentile(service, 99)), "ms");
  report->Add("serve.batch_size.mean", Ratio(ok, batches), "count");
  report->Add("serve.epochs_per_klink",
              Ratio(1000.0 * run.final_epoch, ok), "count");
  report->Add("serve.link_samples", served.samples, "count");
  report->Add("util.pool.batch_parallelism",
              Ratio(batch_link_ns, batch_wall_ns), "ratio");

  // core.*: the sequential replay's direct timings.
  const double links = static_cast<double>(replay.replayed_links);
  report->Add("core.link_us.mean", Mean(replay.link_ns) / 1e3, "us");
  report->Add("core.link_us.p99", Percentile(replay.link_ns, 99) / 1e3,
              "us");
  report->Add("core.candgen_us.mean", Mean(replay.candgen_ns) / 1e3, "us");
  report->Add("core.fuzzy_share", Ratio(replay.fuzzy_links, links), "ratio");
  report->Add("core.candidates_per_link", Ratio(replay.candidates, links),
              "count");
  report->Add("core.link_other_us.mean", Mean(replay.other_ns) / 1e3, "us");

  // reach.*: decorator in the replay, timed mutation handler when served.
  report->Add("reach.score_only_ns.mean",
              Ratio(replay.score_only_ns, replay.score_only_calls), "ns");
  report->Add("reach.score_only_per_link",
              Ratio(replay.score_only_calls, links), "count");
  std::vector<int64_t> insert_ns, erase_ns;
  uint64_t rebuilds = 0;
  for (const MutationSample& m : stack.mutations) {
    (m.op == graph::EdgeDelta::Op::kErase ? erase_ns : insert_ns)
        .push_back(m.ns);
    rebuilds += m.rebuilt;
  }
  report->Add("reach.insert_ms.p99", Ms(Percentile(insert_ns, 99)), "ms");
  report->Add("reach.erase_ms.p99", Ms(Percentile(erase_ns, 99)), "ms");
  report->Add("reach.rebuilds", rebuilds, "count");
  report->Add("reach.build_s", d.index_build_s(), "s");

  // recency.*: decorator plus the propagator's memo counters.
  report->Add("recency.source_us_per_link",
              Ratio(replay.burst_mass_ns / 1e3, links), "us");
  report->Add("recency.burst_mass_calls_per_link",
              Ratio(replay.burst_mass_calls, links), "count");
  report->Add("recency.memo_hit_ratio",
              Ratio(replay.memo_hits, replay.memo_hits + replay.memo_misses),
              "ratio");

  // Write path in the replay.
  report->Add("kb.confirm_us.mean", Mean(replay.confirm_ns) / 1e3, "us");
  report->Add("social.warmup_ms.mean", Ms(Mean(replay.warmup_ns)), "ms");
  report->Add("social.warmup_ms.p99", Ms(Percentile(replay.warmup_ns, 99)),
              "ms");

  report->Add("setup.index_load_ms", Ms(setup.index_load_ns), "ms");
  report->Add("setup.network_build_ms", Ms(setup.network_build_ns), "ms");
  report->Add("setup.warmup_ms", Ms(setup.service_ns), "ms");

  // Shares of the replay's wall time. The explicit Generate call is
  // repeated inside LinkMention, so candidate generation counts twice
  // and core.other is LinkMention minus reach, recency and one Generate.
  const double wall = static_cast<double>(replay.wall_ns);
  const double candgen = 2 * Sum(replay.candgen_ns);
  const double other = Sum(replay.other_ns);
  const double reach = static_cast<double>(replay.score_only_ns);
  const double recency = static_cast<double>(replay.burst_mass_ns);
  const double confirm = Sum(replay.confirm_ns);
  const double maintain = Sum(replay.mutation_ns);
  const double warmup = Sum(replay.warmup_ns);
  report->Add("replay.wall_s", wall / 1e9, "s");
  report->Add("replay.share.core.candgen", Ratio(candgen, wall), "ratio");
  report->Add("replay.share.core.other", Ratio(other, wall), "ratio");
  report->Add("replay.share.reach.query", Ratio(reach, wall), "ratio");
  report->Add("replay.share.recency.source", Ratio(recency, wall), "ratio");
  report->Add("replay.share.kb.confirm", Ratio(confirm, wall), "ratio");
  report->Add("replay.share.reach.maintain", Ratio(maintain, wall), "ratio");
  report->Add("replay.share.social.warmup", Ratio(warmup, wall), "ratio");
  report->Add("replay.share.unattributed",
              Ratio(wall - (candgen + other + reach + recency + confirm +
                            maintain + warmup),
                    wall),
              "ratio");
  report->Add("traced.links_per_s", served.links_per_s, "1/s");
}

int Run(const Args& args) {
  const MixSpec& mix = *FindMix(args.workload);
  metrics::SetEnabled(false);
  PrintProvenance(args, mix);

  const std::string index_path =
      args.scratch + "/" + std::string(mix.name) + ".mel3";
  const Deployment deployment(mix.scale, index_path);
  const Stream stream =
      MakeStream(mix, deployment, args.seed, args.seconds);
  std::printf("inputs: %zu stream links, %zu writes, 2-hop build %.3f s\n",
              stream.links.size(), stream.writes.size(),
              deployment.index_build_s());

  // Cold starts: the median one sets setup_s; the last one serves.
  const bool traced = args.trace == 1;
  std::vector<SetupTimes> setups(kSetupReps);
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    stack = ColdStart(deployment, mix, traced, &setups[rep]);
  }
  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total_ns < b.total_ns;
            });
  const SetupTimes& setup = setups[kSetupReps / 2];
  ResetPeakRss();

  ServedRun run =
      mix.closed_loop
          ? ServeClosedLoop(stack->service.get(), stream, mix.outstanding,
                            kClosedLoopWarmupS, args.seconds)
          : ServeOpenLoop(stack->service.get(), stream, mix.rate);
  stack->service->Stop();
  const double peak_rss_mb = PeakRssMb();
  const ServedStats served =
      SummarizeServed(run, mix.closed_loop, args.seconds);

  const ReplayResult replay =
      ReplayAndCheck(deployment, *stack->network, stream, run);
  std::remove(index_path.c_str());

  const double lateness_p99_ms = Ms(Percentile(run.lateness_ns, 99));
  const bool on_schedule = lateness_p99_ms <= kLatenessBoundMs;
  const bool correct = replay.passed && on_schedule;
  for (const std::string& e : replay.errors) {
    std::printf("GATE FAIL: %s\n", e.c_str());
  }
  if (!on_schedule) {
    std::printf("INVALID: generator p99 lateness %.3f ms > %.0f ms bound\n",
                lateness_p99_ms, kLatenessBoundMs);
  }
  const double accuracy =
      Ratio(replay.top1_correct, static_cast<double>(replay.replayed_links));

  std::vector<int64_t> ack_ns;
  for (const WriteRecord& w : run.writes) {
    if (w.resolved) ack_ns.push_back(w.ready_ns - w.submit_ns);
  }
  const double links = static_cast<double>(replay.replayed_links);
  uint64_t rebuilds = 0;
  for (const MutationSample& m : stack->mutations) rebuilds += m.rebuilt;
  std::printf(
      "counts: {\"stream_digest\": \"%016llx\", \"replayed_links\": %llu, "
      "\"candidates_per_link\": %s, \"fuzzy_share\": %s, "
      "\"score_only_per_link\": %s, \"burst_mass_calls_per_link\": %s, "
      "\"rebuilds\": %llu, \"accuracy\": %s}\n",
      static_cast<unsigned long long>(stream.Digest()),
      static_cast<unsigned long long>(replay.replayed_links),
      Number(Ratio(replay.candidates, links)).c_str(),
      Number(Ratio(replay.fuzzy_links, links)).c_str(),
      Number(Ratio(replay.score_only_calls, links)).c_str(),
      Number(Ratio(replay.burst_mass_calls, links)).c_str(),
      static_cast<unsigned long long>(rebuilds), Number(accuracy).c_str());

  // Metrics that can read 0 (no writes, no failures) have no end-to-end
  // bound; they are part of the traced result and logged in both modes.
  Report extra;
  extra.Add("write_ack_p99_ms", Ms(Percentile(ack_ns, 99)), "ms");
  extra.Add("write_ack_samples", ack_ns.size(), "count");
  extra.Add("failed_frac", Ratio(served.failed, served.attempted), "ratio");
  extra.Add("gen.lateness_p99_ms", lateness_p99_ms, "ms");

  Report report;
  if (!traced) {
    report.Add("setup_s", setup.total_ns / 1e9, "s");
    report.Add("links_per_s", served.links_per_s, "1/s");
    report.Add("link_p50_ms", Ms(served.p50_ns), "ms");
    report.Add("link_p99_ms", Ms(served.p99_ns), "ms");
    report.Add("accuracy", accuracy, "ratio");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    AddTracedMetrics(deployment, run, served, replay, *stack, setup,
                     &report);
    report.Append(extra);
  }

  std::printf("%s (%s, seed %llu): %zu links served, %llu checked, gate %s\n",
              std::string(mix.name).c_str(), traced ? "traced" : "end-to-end",
              static_cast<unsigned long long>(args.seed), run.links.size(),
              static_cast<unsigned long long>(replay.checked),
              replay.passed ? "passed" : "FAILED");
  report.Print();
  if (!traced) extra.Print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(served.attempted),
              static_cast<unsigned long long>(served.failed),
              report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mel::e2e

int main(int argc, char** argv) {
  return mel::e2e::Run(mel::e2e::ParseArgs(argc, argv));
}
