#include "replay.h"

#include <cstdio>
#include <string>
#include <utility>

#include "core/entity_linker.h"
#include "reach/reach_maintainer.h"
#include "reach/two_hop_index.h"
#include "recency/sliding_window.h"
#include "tracing.h"
#include "util/metrics.h"

namespace mel::e2e {

namespace {

constexpr size_t kMaxErrors = 8;

class Gate {
 public:
  explicit Gate(ReplayResult* out) : out_(out) {}
  template <typename... Args>
  void Fail(const char* format, Args... args) {
    ++failures_;
    if (out_->errors.size() >= kMaxErrors) return;
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    out_->errors.emplace_back(buf);
  }
  bool ok() const { return failures_ == 0; }

 private:
  ReplayResult* out_;
  uint64_t failures_ = 0;
};

// Everything the replay can check without linking: every future
// resolved, no write rejected, epochs monotone in submission order, one
// epoch per barrier, and micro-batches contiguous with one epoch each.
void CheckSchedule(const ServedRun& run, Gate* gate) {
  uint64_t prev = 0;
  size_t batch_left = 0;
  uint32_t batch_size = 0;
  for (size_t i = 0; i < run.links.size(); ++i) {
    const LinkRecord& r = run.links[i];
    if (!r.resolved) {
      gate->Fail("link %zu: future never resolved", i);
      continue;
    }
    if (r.status != serve::ServeStatus::kOk) continue;
    if (r.epoch < prev || r.epoch > run.final_epoch) {
      gate->Fail("link %zu: epoch %llu after %llu (final %llu)", i,
                 static_cast<unsigned long long>(r.epoch),
                 static_cast<unsigned long long>(prev),
                 static_cast<unsigned long long>(run.final_epoch));
    }
    if (batch_left == 0) {
      batch_size = r.batch_size;
      batch_left = r.batch_size;
    } else if (r.batch_size != batch_size || r.epoch != prev) {
      gate->Fail("link %zu: torn micro-batch", i);
    }
    if (batch_left > 0) --batch_left;
    prev = r.epoch;
  }
  prev = 0;
  for (size_t j = 0; j < run.writes.size(); ++j) {
    const WriteRecord& w = run.writes[j];
    if (!w.resolved) {
      gate->Fail("write %zu: ack never resolved", j);
    } else if (w.ack_epoch == serve::kFeedbackRejected) {
      gate->Fail("write %zu: rejected", j);
    } else if (w.ack_epoch < prev || w.ack_epoch > prev + 1) {
      // Acks of later writes land at the same or the next barrier, and
      // every barrier bumps the epoch exactly once.
      gate->Fail("write %zu: ack epoch %llu after %llu", j,
                 static_cast<unsigned long long>(w.ack_epoch),
                 static_cast<unsigned long long>(prev));
    } else {
      prev = w.ack_epoch;
    }
  }
  if (prev != run.final_epoch) {
    gate->Fail("last write acked at epoch %llu, service at %llu",
               static_cast<unsigned long long>(prev),
               static_cast<unsigned long long>(run.final_epoch));
  }
}

}  // namespace

ReplayResult ReplayAndCheck(const Deployment& deployment,
                            const recency::PropagationNetwork& network,
                            const Stream& stream, const ServedRun& run) {
  ReplayResult out;
  Gate gate(&out);
  CheckSchedule(run, &gate);
  if (!gate.ok()) return out;

  // Private copies of every piece of state the writes mutate.
  kb::ComplementedKnowledgebase ckb = deployment.ckb();
  graph::DirectedGraph graph = deployment.graph();
  Result<reach::TwoHopIndex> loaded =
      reach::TwoHopIndex::LoadMapped(deployment.index_path(), &graph);
  if (!loaded.ok()) {
    gate.Fail("replay index load: %s", loaded.status().ToString().c_str());
    return out;
  }
  reach::TwoHopIndex index = std::move(loaded).value();
  reach::ReachMaintainer maintainer(&graph, kMaxHops);
  maintainer.Register(&index);
  const core::LinkerOptions options = BenchLinkerOptions();
  recency::SlidingWindowRecency window(&ckb, options.tau, options.theta1);
  TimedReachability reach(&index);
  TimedRecencySource recency(&window);
  core::EntityLinker linker(&deployment.kb(), &ckb, &reach, &network,
                            options, &recency);
  linker.WarmUp();  // as the service does before its first batch

  std::vector<uint8_t> fuzzy(stream.links.size());
  for (size_t i = 0; i < stream.links.size(); ++i) {
    fuzzy[i] = deployment.kb().SurfaceId(stream.links[i].request.mention) ==
               kb::Knowledgebase::kInvalidSurface;
  }
  // Without writes every response of one stream request is the same, so
  // the closed loop's repeats are checked against one replay each.
  const bool memo = stream.writes.empty();
  std::vector<uint64_t> memo_digest(memo ? stream.links.size() : 0);
  out.link_ns_by_stream.assign(stream.links.size(), -1);

  metrics::Counter* hits =
      metrics::Registry().GetCounter("recency.cache.hits_total");
  metrics::Counter* misses =
      metrics::Registry().GetCounter("recency.cache.misses_total");
  const uint64_t hits0 = hits->Value();
  const uint64_t misses0 = misses->Value();

  uint64_t epoch = 0;
  size_t next_write = 0;
  auto barrier = [&] {
    const uint64_t target = epoch + 1;
    size_t end = next_write;
    while (end < run.writes.size() && run.writes[end].ack_epoch == target) {
      ++end;
    }
    for (size_t j = next_write; j < end; ++j) {
      const StreamWrite& w = stream.writes[j];
      if (w.is_mutation) continue;
      const int64_t t0 = NowNs();
      linker.ConfirmLink(w.entity, w.tweet);
      out.confirm_ns.push_back(NowNs() - t0);
    }
    for (size_t j = next_write; j < end; ++j) {
      const StreamWrite& w = stream.writes[j];
      if (!w.is_mutation) continue;
      const int64_t t0 = NowNs();
      maintainer.ApplyDelta(w.delta);
      out.mutation_ns.push_back(NowNs() - t0);
    }
    const int64_t t0 = NowNs();
    linker.WarmUp();
    out.warmup_ns.push_back(NowNs() - t0);
    next_write = end;
    epoch = target;
  };

  const int64_t wall0 = NowNs();
  for (size_t i = 0; i < run.links.size(); ++i) {
    const LinkRecord& r = run.links[i];
    if (r.status != serve::ServeStatus::kOk) continue;
    while (epoch < r.epoch) barrier();
    const uint32_t s = r.stream_index;
    uint64_t expected = 0;
    if (memo && out.link_ns_by_stream[s] >= 0) {
      expected = memo_digest[s];
    } else {
      const StreamLink& link = stream.links[s];
      const uint64_t reach0 = reach.score_only().ns.load();
      const uint64_t recency0 = recency.burst_mass().ns.load();
      const int64_t t0 = NowNs();
      const std::vector<kb::Candidate> candidates =
          linker.candidate_generator().Generate(link.request.mention);
      const int64_t t1 = NowNs();
      const core::MentionLinkResult result = linker.LinkMention(
          link.request.mention, link.request.user, link.request.now);
      const int64_t t2 = NowNs();
      const int64_t inside =
          static_cast<int64_t>(reach.score_only().ns.load() - reach0) +
          static_cast<int64_t>(recency.burst_mass().ns.load() - recency0);
      out.candgen_ns.push_back(t1 - t0);
      out.link_ns.push_back(t2 - t1);
      out.other_ns.push_back((t2 - t1) - inside - (t1 - t0));
      out.link_ns_by_stream[s] = t2 - t1;
      out.candidates += candidates.size();
      out.fuzzy_links += fuzzy[s];
      ++out.replayed_links;
      if (result.best() == link.truth) ++out.top1_correct;
      expected = ResultDigest(result);
      if (memo) memo_digest[s] = expected;
    }
    ++out.checked;
    if (expected != r.digest) {
      gate.Fail("link %zu (stream %u, epoch %llu): response differs from "
                "the sequential replay",
                i, s, static_cast<unsigned long long>(r.epoch));
    }
  }
  while (epoch < run.final_epoch) barrier();
  out.wall_ns = NowNs() - wall0;

  out.score_only_calls = reach.score_only().calls.load();
  out.score_only_ns = reach.score_only().ns.load();
  out.burst_mass_calls = recency.burst_mass().calls.load();
  out.burst_mass_ns = recency.burst_mass().ns.load();
  out.memo_hits = hits->Value() - hits0;
  out.memo_misses = misses->Value() - misses0;
  out.passed = gate.ok();
  return out;
}

}  // namespace mel::e2e
