#include "testing/differential_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "core/entity_linker.h"
#include "kb/wlm.h"
#include "reach/distance_label_index.h"
#include "reach/naive_reachability.h"
#include "reach/pruned_online_search.h"
#include "reach/reach_cache.h"
#include "reach/reach_maintainer.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "recency/burst_tracker.h"
#include "recency/recency_propagator.h"
#include "recency/sliding_window.h"
#include "testing/oracle.h"
#include "text/qgram_index.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"

namespace mel::testing {

namespace {

// Float storage (transitive closure) vs double arithmetic.
constexpr double kFloatTol = 1e-6;
// Oracle vs production: same math, different summation order.
constexpr double kOracleTol = 1e-9;
// Full pipeline through the float-storing reachability backend.
constexpr double kPipelineFloatTol = 3e-6;

// DeriveSeed streams private to the runner (the workload owns 16..19).
enum SeedStream : uint64_t {
  kReachPairStream = 32,
  kFuzzyProbeStream = 33,
  kWlmPairStream = 34,
  kInfluenceStream = 35,
  kPrunedBuildStream = 36,
  kMutationCheckStream = 37,
  kSimdKernelStream = 38,
  kPendingProbeStream = 39,
};

struct DiffMetrics {
  metrics::Counter* cases;
  metrics::Counter* checks;
  metrics::Counter* divergences;
};

const DiffMetrics& GetDiffMetrics() {
  static const DiffMetrics m = [] {
    auto& reg = metrics::Registry();
    DiffMetrics dm;
    dm.cases = reg.GetCounter("testing.diff.cases_total");
    dm.checks = reg.GetCounter("testing.diff.checks_total");
    dm.divergences = reg.GetCounter("testing.diff.divergences_total");
    return dm;
  }();
  return m;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool Near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

/// Collects divergences with the context needed to replay them.
class Recorder {
 public:
  Recorder(DiffReport* report, uint32_t max_divergences)
      : report_(report), max_divergences_(max_divergences) {}

  bool full() const {
    return report_->divergences.size() >= max_divergences_;
  }

  /// Registers one comparison; on failure records `detail` (the repro
  /// dump: check name, operands, both values).
  void Check(bool ok, const std::string& detail) {
    ++report_->checks;
    if (ok || full()) return;
    report_->divergences.push_back(detail);
  }

 private:
  DiffReport* report_;
  uint32_t max_divergences_;
};

std::string DescribeQueryResult(const reach::ReachQueryResult& r) {
  std::ostringstream os;
  if (!r.reachable()) return "{unreachable}";
  os << "{d=" << r.distance << " F=[";
  for (size_t i = 0; i < r.followees.size(); ++i) {
    if (i) os << ",";
    os << r.followees[i];
  }
  os << "]}";
  return os.str();
}

bool SameQueryResult(const reach::ReachQueryResult& a,
                     const reach::ReachQueryResult& b) {
  return a.distance == b.distance && a.followees == b.followees;
}

std::string DescribeRanked(const core::MentionLinkResult& r) {
  std::ostringstream os;
  if (r.probable_new_entity) os << "[new-entity] ";
  for (const auto& s : r.ranked) os << s.entity << ":" << s.score << " ";
  return os.str();
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

void CheckReachability(const RandomWorkload& w, const DiffOptions& opts,
                       Recorder& rec) {
  const graph::DirectedGraph& g = w.world.social.graph;
  const uint32_t n = g.num_nodes();

  util::ThreadPool serial_pool(1);
  reach::NaiveReachability naive(&g, w.max_hops);
  auto tc_inc = reach::TransitiveClosureIndex::Build(
      &g, w.max_hops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  auto tc_naive = reach::TransitiveClosureIndex::Build(
      &g, w.max_hops, reach::TransitiveClosureIndex::Construction::kNaive);
  auto tc_serial = reach::TransitiveClosureIndex::Build(
      &g, w.max_hops,
      reach::TransitiveClosureIndex::Construction::kIncremental,
      &serial_pool);
  auto two_hop = reach::TwoHopIndex::Build(&g, w.max_hops);
  auto dli = reach::DistanceLabelIndex::Build(&g, w.max_hops);
  auto pruned = reach::PrunedOnlineSearch::Build(
      &g, w.max_hops, 3, DeriveSeed(w.seed, kPrunedBuildStream));
  reach::CachedReachability cached(&naive, &g);

  // Save -> mmap-load -> query round trip: the zero-copy mapped views of
  // both arena backends must be query-for-query identical to the
  // heap-built indexes (and hence to the oracle below).
  const std::string two_hop_path =
      "/tmp/mel_diff_2hop_" + Hex(w.seed) + ".mel3";
  const std::string dli_path =
      "/tmp/mel_diff_dli_" + Hex(w.seed) + ".mel3";
  MEL_CHECK(two_hop.Save(two_hop_path).ok());
  MEL_CHECK(dli.Save(dli_path).ok());
  auto two_hop_mapped_r = reach::TwoHopIndex::LoadMapped(two_hop_path, &g);
  auto dli_mapped_r = reach::DistanceLabelIndex::LoadMapped(dli_path, &g);
  MEL_CHECK(two_hop_mapped_r.ok());
  MEL_CHECK(dli_mapped_r.ok());
  const auto& two_hop_mapped = two_hop_mapped_r.value();
  const auto& dli_mapped = dli_mapped_r.value();
  MEL_CHECK(two_hop_mapped.IsMapped());
  MEL_CHECK(dli_mapped.IsMapped());

  // Full V^2 agreement of the three TC constructions. Identical math on
  // identical inputs — scores must match bit for bit, distances exactly.
  for (graph::NodeId u = 0; u < n && !rec.full(); ++u) {
    for (graph::NodeId v = 0; v < n && !rec.full(); ++v) {
      const double inc = tc_inc.Score(u, v);
      const double nav = tc_naive.Score(u, v);
      const double ser = tc_serial.Score(u, v);
      rec.Check(inc == nav && inc == ser,
                "tc-construction-mismatch u=" + std::to_string(u) +
                    " v=" + std::to_string(v) +
                    " incremental=" + std::to_string(inc) +
                    " naive=" + std::to_string(nav) +
                    " serial-pool=" + std::to_string(ser));
      const uint32_t di = tc_inc.Distance(u, v);
      rec.Check(
          di == tc_naive.Distance(u, v) && di == tc_serial.Distance(u, v),
          "tc-distance-mismatch u=" + std::to_string(u) +
              " v=" + std::to_string(v));
    }
  }

  // Sampled pairs across every backend vs the forward-BFS oracle.
  Rng rng(DeriveSeed(w.seed, kReachPairStream));
  for (uint32_t i = 0; i < opts.reach_pair_samples && !rec.full(); ++i) {
    graph::NodeId u = static_cast<graph::NodeId>(rng.Uniform(n));
    graph::NodeId v;
    const uint64_t kind = rng.Uniform(8);
    if (kind == 0) {
      v = u;  // R(u, u) = 1 convention
    } else if (kind == 1 && g.OutDegree(u) > 0) {
      auto nb = g.OutNeighbors(u);  // direct followee: R = 1 convention
      v = nb[rng.Uniform(nb.size())];
    } else {
      v = static_cast<graph::NodeId>(rng.Uniform(n));
    }
    const std::string where =
        " u=" + std::to_string(u) + " v=" + std::to_string(v);

    const auto oracle_q = OracleReachQuery(g, u, v, w.max_hops);
    const double oracle_s = OracleReachScore(g, u, v, w.max_hops);

    auto check_exact = [&](const char* name,
                           const reach::WeightedReachability& backend) {
      const auto q = backend.Query(u, v);
      rec.Check(SameQueryResult(q, oracle_q),
                std::string(name) + "-query-mismatch" + where + " got " +
                    DescribeQueryResult(q) + " oracle " +
                    DescribeQueryResult(oracle_q));
      const double s = backend.Score(u, v);
      rec.Check(s == oracle_s, std::string(name) + "-score-mismatch" +
                                   where + " got " + std::to_string(s) +
                                   " oracle " + std::to_string(oracle_s));
      // Count-only fast path: (distance, |F_uv|) must match the oracle
      // set exactly, and ScoreOnly must be bitwise-equal to Score (both
      // funnel through WeightedScoreFromCount).
      const auto cq = backend.CountQuery(u, v);
      rec.Check(cq.distance == oracle_q.distance &&
                    cq.followee_count == oracle_q.followees.size(),
                std::string(name) + "-count-query-mismatch" + where +
                    " got {d=" + std::to_string(cq.distance) + " n=" +
                    std::to_string(cq.followee_count) + "} oracle " +
                    DescribeQueryResult(oracle_q));
      const double so = backend.ScoreOnly(u, v);
      rec.Check(so == s, std::string(name) + "-score-only-mismatch" +
                             where + " got " + std::to_string(so) +
                             " score " + std::to_string(s));
    };
    check_exact("naive", naive);
    check_exact("two-hop", two_hop);
    check_exact("two-hop-mmap", two_hop_mapped);
    check_exact("dist-label", dli);
    check_exact("dist-label-mmap", dli_mapped);
    check_exact("pruned-online", pruned);
    check_exact("cached", cached);
    check_exact("cached-hit", cached);  // second call exercises the hit path

    const auto tc_q = tc_inc.Query(u, v);
    rec.Check(SameQueryResult(tc_q, oracle_q),
              "tc-query-mismatch" + where + " got " +
                  DescribeQueryResult(tc_q) + " oracle " +
                  DescribeQueryResult(oracle_q));
    rec.Check(Near(tc_inc.Score(u, v), oracle_s, kFloatTol),
              "tc-score-mismatch" + where + " got " +
                  std::to_string(tc_inc.Score(u, v)) + " oracle " +
                  std::to_string(oracle_s));
    // TC count path: distances and counts are integers, so exact even
    // though the stored scores are floats; ScoreOnly reads the same
    // matrix cell as Score, hence bitwise equality.
    const auto tc_cq = tc_inc.CountQuery(u, v);
    rec.Check(tc_cq.distance == oracle_q.distance &&
                  tc_cq.followee_count == oracle_q.followees.size(),
              "tc-count-query-mismatch" + where + " got {d=" +
                  std::to_string(tc_cq.distance) + " n=" +
                  std::to_string(tc_cq.followee_count) + "} oracle " +
                  DescribeQueryResult(oracle_q));
    rec.Check(tc_inc.ScoreOnly(u, v) == tc_inc.Score(u, v),
              "tc-score-only-mismatch" + where);
  }

  // Unlink the round-trip files; the live mappings keep their pages.
  std::remove(two_hop_path.c_str());
  std::remove(dli_path.c_str());
}

// ---------------------------------------------------------------------------
// Fuzzy candidate generation
// ---------------------------------------------------------------------------

void CheckFuzzy(const RandomWorkload& w, const DiffOptions& opts,
                Recorder& rec) {
  const kb::Knowledgebase& kb = w.world.kb();
  const uint32_t max_edits = w.linker.fuzzy_max_edits;
  text::SegmentFuzzyIndex index(std::max(1u, max_edits));
  const auto& surfaces = kb.surfaces();
  for (uint32_t sid = 0; sid < surfaces.size(); ++sid) {
    index.Add(surfaces[sid], sid);
  }

  std::vector<std::string> probes;
  for (const auto& q : w.queries) probes.push_back(q.mention);
  Rng rng(DeriveSeed(w.seed, kFuzzyProbeStream));
  for (uint32_t i = 0; i < opts.fuzzy_probe_samples && !surfaces.empty();
       ++i) {
    std::string s = surfaces[rng.Uniform(surfaces.size())];
    // 1 .. max_edits+1 random edits: within threshold and one beyond, to
    // exercise both the must-match and the must-not-match side.
    const uint32_t edits =
        1 + static_cast<uint32_t>(rng.Uniform(max_edits + 1));
    for (uint32_t e = 0; e < edits; ++e) {
      const uint64_t op = rng.Uniform(3);
      const size_t pos = s.empty() ? 0 : rng.Uniform(s.size());
      const char c = static_cast<char>('a' + rng.Uniform(26));
      if (s.empty() || op == 0) {
        s.insert(s.begin() + static_cast<ptrdiff_t>(pos), c);
      } else if (op == 1) {
        s[pos] = c;
      } else {
        s.erase(s.begin() + static_cast<ptrdiff_t>(pos));
      }
    }
    probes.push_back(std::move(s));
  }

  for (const std::string& probe : probes) {
    if (rec.full()) break;
    const auto got = index.Lookup(probe, max_edits);
    const auto want = OracleFuzzySurfaces(kb, probe, max_edits);
    rec.Check(got == want,
              "fuzzy-lookup-mismatch probe=\"" + probe + "\" got " +
                  std::to_string(got.size()) + " surfaces, oracle " +
                  std::to_string(want.size()));
  }
}

// ---------------------------------------------------------------------------
// WLM + propagation network
// ---------------------------------------------------------------------------

void CheckWlmAndNetwork(const RandomWorkload& w, const DiffOptions& opts,
                        Recorder& rec) {
  const kb::Knowledgebase& kb = w.world.kb();
  kb::WlmRelatedness wlm(&kb);
  Rng rng(DeriveSeed(w.seed, kWlmPairStream));
  const uint32_t n = kb.num_entities();
  for (uint32_t i = 0; i < opts.wlm_pair_samples && !rec.full(); ++i) {
    const auto a = static_cast<kb::EntityId>(rng.Uniform(n));
    const auto b = static_cast<kb::EntityId>(rng.Uniform(n));
    rec.Check(
        wlm.InlinkIntersection(a, b) == OracleInlinkIntersection(kb, a, b),
        "wlm-intersection-mismatch a=" + std::to_string(a) +
            " b=" + std::to_string(b));
    const double got = wlm.Relatedness(a, b);
    const double want = OracleWlmRelatedness(kb, a, b);
    rec.Check(Near(got, want, 1e-12),
              "wlm-relatedness-mismatch a=" + std::to_string(a) +
                  " b=" + std::to_string(b) + " got " +
                  std::to_string(got) + " oracle " + std::to_string(want));
  }

  util::ThreadPool serial_pool(1);
  auto pooled = recency::PropagationNetwork::Build(kb, w.theta2);
  auto serial =
      recency::PropagationNetwork::Build(kb, w.theta2, &serial_pool);
  rec.Check(pooled.IdenticalTo(serial) && serial.IdenticalTo(pooled),
            "network-build-nondeterministic theta2=" +
                std::to_string(w.theta2) +
                " pooled edges=" + std::to_string(pooled.num_edges()) +
                " serial edges=" + std::to_string(serial.num_edges()));
}

// ---------------------------------------------------------------------------
// Recency: window counts, propagator cache on/off, dense oracle
// ---------------------------------------------------------------------------

void CheckRecency(const RandomWorkload& w, Recorder& rec) {
  const kb::Knowledgebase& kb = w.world.kb();
  kb::ComplementedKnowledgebase ckb(&kb);
  ComplementForWorkload(w, &ckb);

  auto network = recency::PropagationNetwork::Build(kb, w.theta2);
  // The workload's feedback lands in the CKB between queries. `notified`
  // hears of every link through OnLinkAdded, as the linker's own window
  // does; `window` never does, so entities that gain links fall back
  // from their quiet proofs to the binary search.
  recency::SlidingWindowRecency window(&ckb, w.linker.tau, w.linker.theta1);
  recency::SlidingWindowRecency notified(&ckb, w.linker.tau,
                                         w.linker.theta1);
  const OracleRecencySource oracle_source(&ckb, w.linker.tau,
                                          w.linker.theta1);

  recency::PropagatorOptions cache_on = w.linker.propagator;
  cache_on.enable_cache = true;
  recency::PropagatorOptions cache_off = w.linker.propagator;
  cache_off.enable_cache = false;
  recency::RecencyPropagator prop_on(&network, &notified, cache_on);
  recency::RecencyPropagator prop_off(&network, &window, cache_off);

  size_t next_feedback = 0;
  for (size_t qi = 0; qi < w.queries.size() && !rec.full(); ++qi) {
    while (next_feedback < w.feedback.size() &&
           w.feedback[next_feedback].before_query <= qi) {
      const FeedbackEvent& ev = w.feedback[next_feedback];
      ckb.AddLink(ev.entity, kb::Posting{ev.tweet.id, ev.tweet.user,
                                         ev.tweet.time});
      notified.OnLinkAdded(ev.entity);
      ++next_feedback;
    }
    const WorkloadQuery& q = w.queries[qi];

    // Eq. 9 inputs agree entity by entity (binary-search window vs scan),
    // through both the notified and the fallback quiet proofs.
    bool counts_ok = true;
    kb::EntityId bad = 0;
    for (kb::EntityId e = 0; e < kb.num_entities(); ++e) {
      const double want =
          OracleBurstMass(ckb, e, q.now, w.linker.tau, w.linker.theta1);
      if (window.RecentCount(e, q.now) !=
              OracleRecentCount(ckb, e, q.now, w.linker.tau) ||
          window.BurstMass(e, q.now) != want ||
          notified.BurstMass(e, q.now) != want) {
        counts_ok = false;
        bad = e;
        break;
      }
    }
    rec.Check(counts_ok, "recent-count-mismatch e=" + std::to_string(bad) +
                             " now=" + std::to_string(q.now));

    // Eq. 11 over the query's candidate set: cache on (notified window)
    // == cache off (fallback window) bitwise, both near the dense oracle.
    const auto candidates =
        OracleGenerateCandidates(kb, q.mention, w.linker.fuzzy_max_edits);
    if (candidates.empty()) continue;
    std::vector<kb::EntityId> entities;
    for (const auto& c : candidates) entities.push_back(c.entity);

    for (bool propagate : {true, false}) {
      const auto on = prop_on.CandidateScores(entities, q.now, propagate);
      const auto off = prop_off.CandidateScores(entities, q.now, propagate);
      rec.Check(on == off,
                "recency-cache-mismatch mention=\"" + q.mention +
                    "\" now=" + std::to_string(q.now) +
                    " propagate=" + std::to_string(propagate));
      const auto dense = OracleCandidateScores(
          network, oracle_source, entities, q.now, propagate,
          w.linker.propagator);
      for (size_t i = 0; i < entities.size(); ++i) {
        if (!Near(on[i], dense[i], kOracleTol)) {
          rec.Check(false,
                    "recency-oracle-mismatch mention=\"" + q.mention +
                        "\" entity=" + std::to_string(entities[i]) +
                        " now=" + std::to_string(q.now) + " got " +
                        std::to_string(on[i]) + " dense-oracle " +
                        std::to_string(dense[i]));
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Influence
// ---------------------------------------------------------------------------

void CheckInfluence(const RandomWorkload& w, const DiffOptions& opts,
                    Recorder& rec) {
  const kb::Knowledgebase& kb = w.world.kb();
  kb::ComplementedKnowledgebase ckb(&kb);
  ComplementForWorkload(w, &ckb);
  social::InfluenceEstimator estimator(&ckb, w.linker.influence_method);

  Rng rng(DeriveSeed(w.seed, kInfluenceStream));
  const uint32_t n = kb.num_entities();
  for (uint32_t i = 0; i < opts.influence_entity_samples && !rec.full();
       ++i) {
    const auto entity = static_cast<kb::EntityId>(rng.Uniform(n));
    // Candidate context: the entity plus up to three random others —
    // the discriminativeness term needs a non-trivial E_m.
    std::vector<kb::EntityId> context{entity};
    const uint64_t extra = rng.Uniform(4);
    for (uint64_t j = 0; j < extra; ++j) {
      const auto other = static_cast<kb::EntityId>(rng.Uniform(n));
      if (std::find(context.begin(), context.end(), other) ==
          context.end()) {
        context.push_back(other);
      }
    }

    const auto prod = estimator.TopInfluential(entity, context,
                                               w.linker.top_k_influential);
    const auto want = OracleTopInfluential(ckb, entity, context,
                                           w.linker.top_k_influential,
                                           w.linker.influence_method);
    rec.Check(prod.size() == want.size(),
              "influence-size-mismatch entity=" + std::to_string(entity) +
                  " got " + std::to_string(prod.size()) + " oracle " +
                  std::to_string(want.size()));
    if (prod.size() != want.size()) continue;
    for (size_t j = 0; j < prod.size(); ++j) {
      // The production pipeline multiplies count * (1/total) where the
      // oracle divides; near-equal users may swap positions, so accept a
      // user mismatch when the two influence values are within tolerance.
      const bool same_user = prod[j].user == want[j].user;
      const bool near_tie =
          Near(prod[j].influence, want[j].influence, kOracleTol);
      if (!(same_user ? near_tie : near_tie)) {
        rec.Check(false,
                  "influence-rank-mismatch entity=" +
                      std::to_string(entity) + " pos=" + std::to_string(j) +
                      " got user=" + std::to_string(prod[j].user) + " inf=" +
                      std::to_string(prod[j].influence) + " oracle user=" +
                      std::to_string(want[j].user) + " inf=" +
                      std::to_string(want[j].influence));
        break;
      }
      rec.Check(true, "");
    }
  }
}

// ---------------------------------------------------------------------------
// Full Eq.-1 pipeline across backend configurations
// ---------------------------------------------------------------------------

/// Tolerant comparison of two MentionLinkResults as entity -> features
/// maps (relative ranking across configurations may legally differ only
/// through fp noise, which the map view ignores). With the Appendix-D
/// rejection enabled, an entity missing on one side is excused when its
/// score sits within `tol` of the beta + gamma knife edge.
void CompareRanked(const core::MentionLinkResult& a, const char* a_name,
                   const core::MentionLinkResult& b, const char* b_name,
                   const RandomWorkload& w, size_t query_index, double tol,
                   Recorder& rec) {
  const std::string where = std::string("query#") +
                            std::to_string(query_index) + " \"" +
                            w.queries[query_index].mention + "\" " + a_name +
                            " vs " + b_name;
  std::map<kb::EntityId, const core::ScoredEntity*> ma, mb;
  for (const auto& s : a.ranked) ma[s.entity] = &s;
  for (const auto& s : b.ranked) mb[s.entity] = &s;

  const double threshold = w.linker.beta + w.linker.gamma;
  bool knife_edge = false;
  auto one_sided_ok = [&](const core::ScoredEntity& s) {
    if (!w.linker.reject_below_interest_threshold) return false;
    if (Near(s.score, threshold, tol)) {
      knife_edge = true;
      return true;
    }
    return false;
  };

  for (const auto& [entity, sa] : ma) {
    auto it = mb.find(entity);
    if (it == mb.end()) {
      rec.Check(one_sided_ok(*sa),
                "pipeline-entity-missing " + where + " entity=" +
                    std::to_string(entity) + " only in " + a_name +
                    " score=" + std::to_string(sa->score) + " [" +
                    DescribeRanked(a) + "| " + DescribeRanked(b) + "]");
      continue;
    }
    const core::ScoredEntity& sb = *it->second;
    const bool close = Near(sa->score, sb.score, tol) &&
                       Near(sa->interest, sb.interest, tol) &&
                       Near(sa->recency, sb.recency, tol) &&
                       Near(sa->popularity, sb.popularity, tol);
    rec.Check(close, "pipeline-feature-mismatch " + where + " entity=" +
                         std::to_string(entity) + " " + a_name + " score=" +
                         std::to_string(sa->score) + " interest=" +
                         std::to_string(sa->interest) + " recency=" +
                         std::to_string(sa->recency) + " popularity=" +
                         std::to_string(sa->popularity) + " " + b_name +
                         " score=" + std::to_string(sb.score) +
                         " interest=" + std::to_string(sb.interest) +
                         " recency=" + std::to_string(sb.recency) +
                         " popularity=" + std::to_string(sb.popularity));
  }
  for (const auto& [entity, sb] : mb) {
    if (ma.count(entity)) continue;
    rec.Check(one_sided_ok(*sb),
              "pipeline-entity-missing " + where + " entity=" +
                  std::to_string(entity) + " only in " + b_name +
                  " score=" + std::to_string(sb->score));
  }
  // A knife-edge candidate set may legitimately flip the all-rejected
  // flag; otherwise the verdict must agree.
  if (!knife_edge) {
    rec.Check(a.probable_new_entity == b.probable_new_entity,
              "pipeline-new-entity-mismatch " + where + " " + a_name + "=" +
                  std::to_string(a.probable_new_entity) + " " + b_name +
                  "=" + std::to_string(b.probable_new_entity));
  }
}

/// Exact comparison: same backend, different caching configuration —
/// every double must match bit for bit, order included.
void CompareExact(const core::MentionLinkResult& a, const char* a_name,
                  const core::MentionLinkResult& b, const char* b_name,
                  const RandomWorkload& w, size_t query_index,
                  Recorder& rec) {
  const std::string where = std::string("query#") +
                            std::to_string(query_index) + " \"" +
                            w.queries[query_index].mention + "\" " + a_name +
                            " vs " + b_name;
  bool same = a.ranked.size() == b.ranked.size() &&
              a.probable_new_entity == b.probable_new_entity;
  for (size_t i = 0; same && i < a.ranked.size(); ++i) {
    const auto& x = a.ranked[i];
    const auto& y = b.ranked[i];
    same = x.entity == y.entity && x.score == y.score &&
           x.interest == y.interest && x.recency == y.recency &&
           x.popularity == y.popularity;
  }
  rec.Check(same, "pipeline-exact-mismatch " + where + " [" +
                      DescribeRanked(a) + "| " + DescribeRanked(b) + "]");
}

void CheckFullPipeline(const RandomWorkload& w, Recorder& rec) {
  const kb::Knowledgebase& kb = w.world.kb();
  const graph::DirectedGraph& g = w.world.social.graph;

  auto network = recency::PropagationNetwork::Build(kb, w.theta2);

  reach::NaiveReachability naive(&g, w.max_hops);
  auto tc = reach::TransitiveClosureIndex::Build(
      &g, w.max_hops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = reach::TwoHopIndex::Build(&g, w.max_hops);
  auto dli = reach::DistanceLabelIndex::Build(&g, w.max_hops);
  auto pruned = reach::PrunedOnlineSearch::Build(
      &g, w.max_hops, 3, DeriveSeed(w.seed, kPrunedBuildStream));
  reach::CachedReachability cached(&naive, &g);
  OracleReachability oracle_reach(&g, w.max_hops);

  struct Config {
    const char* name;
    const reach::WeightedReachability* backend;
    bool use_influential_index;
    bool enable_recency_cache;
    double tol;  // vs the oracle pipeline
  };
  const Config configs[] = {
      {"naive+index+cache", &naive, true, true, kOracleTol},
      {"naive+online+nocache", &naive, false, false, kOracleTol},
      {"tc-incremental", &tc, true, true, kPipelineFloatTol},
      {"two-hop", &two_hop, true, true, kOracleTol},
      {"dist-label", &dli, true, true, kOracleTol},
      {"pruned-online", &pruned, true, true, kOracleTol},
      {"cached-naive", &cached, false, true, kOracleTol},
  };
  constexpr size_t kNumConfigs = std::size(configs);

  // Every configuration owns a CKB replica filled by the identical
  // deterministic complementation (ConfirmLink mutates per-linker state,
  // so sharing one CKB would entangle the configurations).
  std::vector<std::unique_ptr<kb::ComplementedKnowledgebase>> ckbs;
  std::vector<std::unique_ptr<core::EntityLinker>> linkers;
  for (const Config& cfg : configs) {
    auto ckb = std::make_unique<kb::ComplementedKnowledgebase>(&kb);
    ComplementForWorkload(w, ckb.get());
    core::LinkerOptions lo = w.linker;
    lo.use_influential_index = cfg.use_influential_index;
    lo.propagator.enable_cache = cfg.enable_recency_cache;
    linkers.push_back(std::make_unique<core::EntityLinker>(
        &kb, ckb.get(), cfg.backend, &network, lo));
    ckbs.push_back(std::move(ckb));
  }
  kb::ComplementedKnowledgebase oracle_ckb(&kb);
  ComplementForWorkload(w, &oracle_ckb);

  size_t next_feedback = 0;
  for (size_t qi = 0; qi < w.queries.size() && !rec.full(); ++qi) {
    // Interleaved online feedback, applied through every configuration's
    // ConfirmLink and to the oracle's CKB.
    while (next_feedback < w.feedback.size() &&
           w.feedback[next_feedback].before_query <= qi) {
      const FeedbackEvent& ev = w.feedback[next_feedback];
      for (auto& linker : linkers) linker->ConfirmLink(ev.entity, ev.tweet);
      oracle_ckb.AddLink(ev.entity, kb::Posting{ev.tweet.id, ev.tweet.user,
                                                ev.tweet.time});
      ++next_feedback;
    }

    const WorkloadQuery& q = w.queries[qi];
    core::MentionLinkResult results[kNumConfigs];
    for (size_t c = 0; c < kNumConfigs; ++c) {
      results[c] = linkers[c]->LinkMention(q.mention, q.user, q.now);
    }
    const core::MentionLinkResult oracle_result =
        OracleLinkMention(kb, oracle_ckb, network, oracle_reach, q.mention,
                          q.user, q.now, w.linker);

    // Same backend, different cache configuration: bitwise identical.
    CompareExact(results[0], configs[0].name, results[1], configs[1].name,
                 w, qi, rec);
    // cached(naive) serves naive's exact query results: bitwise identical
    // to the uncached naive configuration with the same index setting.
    CompareExact(results[1], configs[1].name, results[6], configs[6].name,
                 w, qi, rec);

    // Everything against the oracle pipeline, tolerance per backend.
    for (size_t c = 0; c < kNumConfigs; ++c) {
      CompareRanked(results[c], configs[c].name, oracle_result, "oracle", w,
                    qi, configs[c].tol, rec);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental maintenance: mutation replay vs from-scratch rebuilds
// ---------------------------------------------------------------------------

/// Dense reference of BurstTracker's stamped-ring semantics: per-entity
/// head bucket plus an unbounded bucket->count map. A bucket whose slot
/// was reclaimed by a newer one (head - b >= slots) is excluded by the
/// same window predicate the query applies, so map and ring agree on
/// every ApproxRecentCount — this is a genuine oracle for the lazy
/// O(1) retirement, not a second copy of the ring code.
class BurstReplayOracle {
 public:
  BurstReplayOracle(uint32_t num_entities, kb::Timestamp tau,
                    kb::Timestamp bucket_width, uint32_t slots)
      : tau_(tau), bucket_width_(bucket_width), slots_(slots) {
    entities_.resize(num_entities);
  }

  void Observe(kb::EntityId e, kb::Timestamp t) {
    Entity& ent = entities_[e];
    const int64_t b = static_cast<int64_t>(t / bucket_width_);
    if (ent.head >= 0 && ent.head - b >= slots_) return;  // expired drop
    ent.head = std::max(ent.head, b);
    ent.buckets[b] += 1;
  }

  uint32_t RecentCount(kb::EntityId e, kb::Timestamp now) const {
    const Entity& ent = entities_[e];
    if (ent.head < 0) return 0;
    const int64_t now_b = static_cast<int64_t>(now / bucket_width_);
    const int64_t oldest_b = static_cast<int64_t>(
        std::max<kb::Timestamp>(0, now - tau_) / bucket_width_);
    uint32_t total = 0;
    for (const auto& [b, count] : ent.buckets) {
      if (b < oldest_b || b > now_b) continue;
      if (b > ent.head || ent.head - b >= slots_) continue;
      total += count;
    }
    return total;
  }

 private:
  struct Entity {
    int64_t head = -1;
    std::map<int64_t, uint32_t> buckets;
  };
  kb::Timestamp tau_;
  kb::Timestamp bucket_width_;
  int64_t slots_;
  std::vector<Entity> entities_;
};

void CheckIncrementalMaintenance(const RandomWorkload& w,
                                 const DiffOptions& opts, Recorder& rec) {
  if (w.mutations.empty()) return;
  const kb::Knowledgebase& kb = w.world.kb();
  graph::DirectedGraph live = w.world.social.graph;  // mutable copy

  // Backends maintained in place across the whole replay.
  reach::NaiveReachability naive(&live, w.max_hops);  // BFS on live graph
  auto tc = reach::TransitiveClosureIndex::Build(
      &live, w.max_hops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = reach::TwoHopIndex::Build(&live, w.max_hops);
  auto dli = reach::DistanceLabelIndex::Build(&live, w.max_hops);
  const uint64_t pruned_seed = DeriveSeed(w.seed, kPrunedBuildStream);
  auto pruned =
      reach::PrunedOnlineSearch::Build(&live, w.max_hops, 3, pruned_seed);
  reach::CachedReachability cached(&naive, &live);

  reach::ReachMaintainer maintainer(&live, w.max_hops);
  maintainer.Register(&naive);  // kUnaffected: queries the live graph
  maintainer.Register(&tc);
  maintainer.Register(&two_hop);
  maintainer.Register(&dli);
  maintainer.Register(&pruned);
  maintainer.Register(&cached);  // after its base; precise invalidation

  const uint32_t n = live.num_nodes();
  Rng rng(DeriveSeed(w.seed, kMutationCheckStream));
  Rng pending_rng(DeriveSeed(w.seed, kPendingProbeStream));
  auto sample_pair = [&](graph::NodeId* u, graph::NodeId* v) {
    *u = static_cast<graph::NodeId>(rng.Uniform(n));
    const uint64_t kind = rng.Uniform(8);
    if (kind == 0) {
      *v = *u;
    } else if (kind == 1 && live.OutDegree(*u) > 0) {
      auto nb = live.OutNeighbors(*u);
      *v = nb[rng.Uniform(nb.size())];
    } else {
      *v = static_cast<graph::NodeId>(rng.Uniform(n));
    }
  };

  // Warm the cache so the invalidation path has entries to drop.
  for (uint32_t i = 0; i < opts.mutation_pair_samples; ++i) {
    graph::NodeId u, v;
    sample_pair(&u, &v);
    (void)cached.Query(u, v);
    (void)cached.ScoreOnly(u, v);
  }

  // Tweet ingestion feeds the streaming burst counter; the oracle
  // replays the identical stream through the dense reference.
  constexpr uint32_t kBurstBuckets = 16;
  recency::BurstTracker burst(kb.num_entities(), w.linker.tau,
                              kBurstBuckets, w.linker.theta1);
  BurstReplayOracle burst_oracle(kb.num_entities(), w.linker.tau,
                                 burst.bucket_width(), kBurstBuckets + 1);
  kb::Timestamp last_post_time = 0;

  const size_t num_events = w.mutations.size();
  const double checkpoint_p =
      std::min(1.0, static_cast<double>(opts.mutation_checkpoints) /
                        static_cast<double>(num_events));
  for (size_t i = 0; i < num_events && !rec.full(); ++i) {
    const MutationEvent& ev = w.mutations[i];
    const std::string at = " event#" + std::to_string(i);
    if (ev.kind == MutationEvent::Kind::kAddPost) {
      burst.Observe(ev.entity, ev.tweet.time);
      burst_oracle.Observe(ev.entity, ev.tweet.time);
      last_post_time = std::max(last_post_time, ev.tweet.time);
    } else {
      graph::EdgeDelta delta;
      delta.op = ev.kind == MutationEvent::Kind::kAddEdge
                     ? graph::EdgeDelta::Op::kInsert
                     : graph::EdgeDelta::Op::kErase;
      delta.u = ev.u;
      delta.v = ev.v;
      const auto applied = maintainer.ApplyDelta(delta);
      // The generator guarantees every event is effective (inserted
      // edges are absent, erased edges present) — a no-op here means
      // the simulated edge set diverged from the real graph.
      rec.Check(applied.applied,
                "mutation-noop" + at + " u=" + std::to_string(ev.u) +
                    " v=" + std::to_string(ev.v));
      // Between an erase and the next delta the 2-hop rebuild may still
      // be queued or running: probe the index right away, sources in
      // the stale set (starting with u) included. A stream of its own
      // keeps the checkpoint sampling below unchanged.
      if (delta.op == graph::EdgeDelta::Op::kErase) {
        for (uint32_t s = 0; s < opts.mutation_pair_samples && !rec.full();
             ++s) {
          const auto u = s == 0 ? ev.u : static_cast<graph::NodeId>(
                                             pending_rng.Uniform(n));
          const auto v = static_cast<graph::NodeId>(pending_rng.Uniform(n));
          const std::string where = at + " u=" + std::to_string(u) +
                                    " v=" + std::to_string(v);
          const auto want = naive.Query(u, v);
          const auto got = two_hop.Query(u, v);
          rec.Check(SameQueryResult(got, want),
                    "two-hop-pending-query-mismatch" + where + " got " +
                        DescribeQueryResult(got) + " want " +
                        DescribeQueryResult(want));
          rec.Check(two_hop.ScoreOnly(u, v) == naive.ScoreOnly(u, v),
                    "two-hop-pending-score-mismatch" + where);
        }
      }
    }

    const bool checkpoint =
        (i + 1 == num_events) || rng.Bernoulli(checkpoint_p);
    if (!checkpoint) continue;

    // --- from-scratch oracles on the mutated graph ---------------------
    auto tc_fresh = reach::TransitiveClosureIndex::Build(
        &live, w.max_hops,
        reach::TransitiveClosureIndex::Construction::kIncremental);
    auto two_hop_fresh = reach::TwoHopIndex::Build(&live, w.max_hops);
    auto dli_fresh = reach::DistanceLabelIndex::Build(&live, w.max_hops);

    // Transitive closure: full V^2 exact agreement, scores bit for bit
    // (patch and rebuild both funnel WeightedScoreFromCount on integer
    // inputs).
    for (graph::NodeId u = 0; u < n && !rec.full(); ++u) {
      for (graph::NodeId v = 0; v < n && !rec.full(); ++v) {
        rec.Check(tc.Distance(u, v) == tc_fresh.Distance(u, v),
                  "tc-patch-distance-mismatch" + at + " u=" +
                      std::to_string(u) + " v=" + std::to_string(v) +
                      " patched=" + std::to_string(tc.Distance(u, v)) +
                      " fresh=" + std::to_string(tc_fresh.Distance(u, v)));
        rec.Check(tc.Score(u, v) == tc_fresh.Score(u, v),
                  "tc-patch-score-mismatch" + at + " u=" +
                      std::to_string(u) + " v=" + std::to_string(v) +
                      " patched=" + std::to_string(tc.Score(u, v)) +
                      " fresh=" + std::to_string(tc_fresh.Score(u, v)));
      }
    }

    // Label indexes, pruned search, and the invalidated cache: sampled
    // pairs against the live-graph BFS backend (ground truth) and the
    // fresh rebuilds. A patched label index may carry MORE labels than
    // the fresh build — equality is demanded of query results only.
    for (uint32_t s = 0; s < opts.mutation_pair_samples && !rec.full();
         ++s) {
      graph::NodeId u, v;
      sample_pair(&u, &v);
      const std::string where = at + " u=" + std::to_string(u) +
                                " v=" + std::to_string(v);
      const auto want = naive.Query(u, v);
      const double want_score = naive.ScoreOnly(u, v);
      auto check = [&](const char* name,
                       const reach::WeightedReachability& backend) {
        const auto got = backend.Query(u, v);
        rec.Check(SameQueryResult(got, want),
                  std::string(name) + "-patch-query-mismatch" + where +
                      " got " + DescribeQueryResult(got) + " want " +
                      DescribeQueryResult(want));
        const double score = backend.ScoreOnly(u, v);
        rec.Check(score == want_score,
                  std::string(name) + "-patch-score-mismatch" + where +
                      " got " + std::to_string(score) + " want " +
                      std::to_string(want_score));
      };
      check("two-hop", two_hop);
      check("two-hop-fresh", two_hop_fresh);
      check("dist-label", dli);
      check("dist-label-fresh", dli_fresh);
      check("pruned-online", pruned);
      check("cached", cached);
      check("cached-hit", cached);
    }

    // Burst counter vs the dense replay oracle, probed at query times
    // and just after the newest ingested post.
    std::vector<kb::Timestamp> probes;
    if (last_post_time > 0) probes.push_back(last_post_time + 1);
    for (int p = 0; p < 3 && !w.queries.empty(); ++p) {
      probes.push_back(w.queries[rng.Uniform(w.queries.size())].now);
    }
    for (kb::Timestamp now : probes) {
      if (rec.full()) break;
      for (kb::EntityId e = 0; e < kb.num_entities(); ++e) {
        const uint32_t got = burst.ApproxRecentCount(e, now);
        const uint32_t want = burst_oracle.RecentCount(e, now);
        if (got != want) {
          rec.Check(false, "burst-replay-mismatch" + at + " e=" +
                               std::to_string(e) + " now=" +
                               std::to_string(now) + " got " +
                               std::to_string(got) + " oracle " +
                               std::to_string(want));
          break;
        }
        rec.Check(true, "");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD kernel tiers: every supported vectorized table vs scalar
// ---------------------------------------------------------------------------

/// Replays every vectorized kernel tier the host+build supports against
/// the scalar table on workload-derived operands — real WLM inlink
/// lists, real 2-hop label arrays — plus synthesized probe tables and
/// frontier words. This is the vectorized/scalar half of the oracle
/// sweep the kernels' bit-identity contract promises (simd_types.h).
void CheckSimdKernels(const RandomWorkload& w, const DiffOptions& opts,
                      Recorder& rec) {
  namespace simd = util::simd;
  std::vector<simd::Level> vec_levels;
  for (simd::Level l : {simd::Level::kSse4, simd::Level::kAvx2}) {
    if (simd::LevelSupported(l)) vec_levels.push_back(l);
  }
  if (vec_levels.empty()) return;
  const simd::KernelTable& scalar = simd::KernelsFor(simd::Level::kScalar);

  Rng rng(DeriveSeed(w.seed, kSimdKernelStream));
  const kb::Knowledgebase& kb = w.world.kb();
  const graph::DirectedGraph& g = w.world.social.graph;
  auto two_hop = reach::TwoHopIndex::Build(&g, w.max_hops);

  // Intersection kernels on real inlink lists (the WLM operand shape).
  for (uint32_t i = 0; i < opts.wlm_pair_samples && !rec.full(); ++i) {
    const auto a = static_cast<kb::EntityId>(rng.Uniform(kb.num_entities()));
    const auto b = static_cast<kb::EntityId>(rng.Uniform(kb.num_entities()));
    const auto la = kb.Inlinks(a);
    const auto lb = kb.Inlinks(b);
    const uint32_t want_merge =
        scalar.merge_count(la.data(), la.size(), lb.data(), lb.size());
    const uint32_t want_gallop =
        scalar.gallop_count(la.data(), la.size(), lb.data(), lb.size());
    for (simd::Level l : vec_levels) {
      const simd::KernelTable& t = simd::KernelsFor(l);
      rec.Check(t.merge_count(la.data(), la.size(), lb.data(), lb.size()) ==
                    want_merge,
                std::string("simd-merge-mismatch level=") +
                    simd::LevelName(l) + " a=" + std::to_string(a) +
                    " b=" + std::to_string(b));
      rec.Check(t.gallop_count(la.data(), la.size(), lb.data(),
                               lb.size()) == want_gallop,
                std::string("simd-gallop-mismatch level=") +
                    simd::LevelName(l) + " a=" + std::to_string(a) +
                    " b=" + std::to_string(b));
    }
  }

  // Min-sum span kernel on real 2-hop label arrays.
  const uint32_t n = g.num_nodes();
  std::vector<uint64_t> want_spans, got_spans;
  for (uint32_t i = 0; i < opts.reach_pair_samples && !rec.full(); ++i) {
    const auto u = static_cast<graph::NodeId>(rng.Uniform(n));
    const auto v = static_cast<graph::NodeId>(rng.Uniform(n));
    const auto outs = two_hop.out_labels(u);
    const auto ins = two_hop.in_labels(v);
    const auto* outs64 = reinterpret_cast<const uint64_t*>(outs.data());
    const auto* ins64 = reinterpret_cast<const uint64_t*>(ins.data());
    const uint32_t seed = static_cast<uint32_t>(rng.Uniform(6));
    const uint64_t base = two_hop.out_offset(u);
    want_spans.resize(outs.size());
    got_spans.resize(outs.size());
    size_t want_n = 0, got_n = 0;
    const uint32_t want_dmin =
        scalar.min_sum_spans(outs64, outs.size(), ins64, ins.size(), seed,
                             base, want_spans.data(), &want_n);
    for (simd::Level l : vec_levels) {
      const uint32_t got_dmin = simd::KernelsFor(l).min_sum_spans(
          outs64, outs.size(), ins64, ins.size(), seed, base,
          got_spans.data(), &got_n);
      rec.Check(got_dmin == want_dmin && got_n == want_n &&
                    std::equal(want_spans.begin(),
                               want_spans.begin() +
                                   static_cast<ptrdiff_t>(want_n),
                               got_spans.begin()),
                std::string("simd-minsum-mismatch level=") +
                    simd::LevelName(l) + " u=" + std::to_string(u) +
                    " v=" + std::to_string(v));
    }
  }

  // Probe-scan kernel on a synthesized open-addressed table (same
  // multiplier and load factor as SegmentFuzzyIndex).
  constexpr size_t kCap = 256;
  constexpr size_t kMask = kCap - 1;
  std::vector<uint64_t> keys(kCap, 0);
  std::vector<uint64_t> present;
  for (size_t i = 0; i < kCap * 6 / 10; ++i) {
    const uint64_t k = rng.Next() | 1;
    size_t idx = (k * 0x9E3779B97F4A7C15ull) & kMask;
    while (keys[idx] != 0 && keys[idx] != k) idx = (idx + 1) & kMask;
    if (keys[idx] == 0) {
      keys[idx] = k;
      present.push_back(k);
    }
  }
  for (uint32_t i = 0; i < opts.fuzzy_probe_samples && !rec.full(); ++i) {
    const uint64_t key = (i % 2 == 0 && !present.empty())
                             ? present[rng.Uniform(present.size())]
                             : (rng.Next() | 1);
    const size_t start = rng.Uniform(kCap);
    const size_t want = scalar.probe_scan(keys.data(), kMask, key, start);
    for (simd::Level l : vec_levels) {
      rec.Check(
          simd::KernelsFor(l).probe_scan(keys.data(), kMask, key, start) ==
              want,
          std::string("simd-probe-mismatch level=") + simd::LevelName(l) +
              " key=" + Hex(key) + " start=" + std::to_string(start));
    }
  }

  // Frontier kernel on random bit words (including non-multiple-of-lane
  // word counts for the tail path).
  for (size_t nwords : {1u, 3u, 5u, 16u, 33u}) {
    if (rec.full()) break;
    std::vector<uint64_t> next(nwords), visited(nwords);
    for (auto& x : next) x = rng.Next();
    for (auto& x : visited) x = rng.Next();
    std::vector<uint64_t> want = next;
    scalar.frontier_and_not(want.data(), visited.data(), nwords);
    for (simd::Level l : vec_levels) {
      std::vector<uint64_t> got = next;
      simd::KernelsFor(l).frontier_and_not(got.data(), visited.data(),
                                           nwords);
      rec.Check(got == want,
                std::string("simd-frontier-mismatch level=") +
                    simd::LevelName(l) +
                    " nwords=" + std::to_string(nwords));
    }
  }
}

}  // namespace

std::string DiffReport::Summary() const {
  std::ostringstream os;
  os << "differential case seed=" << Hex(seed) << ": " << checks
     << " checks, " << divergences.size() << " divergences";
  for (const auto& d : divergences) os << "\n  DIVERGENCE: " << d;
  if (!divergences.empty()) {
    os << "\n  replay: MakeRandomWorkload(" << Hex(seed) << ")";
  }
  return os.str();
}

DiffReport RunDifferentialCase(const RandomWorkload& workload,
                               const DiffOptions& options) {
  DiffReport report;
  report.seed = workload.seed;
  Recorder rec(&report, options.max_divergences);

  CheckReachability(workload, options, rec);
  CheckFuzzy(workload, options, rec);
  CheckWlmAndNetwork(workload, options, rec);
  CheckRecency(workload, rec);
  CheckInfluence(workload, options, rec);
  CheckFullPipeline(workload, rec);
  CheckIncrementalMaintenance(workload, options, rec);
  CheckSimdKernels(workload, options, rec);

  const DiffMetrics& dm = GetDiffMetrics();
  dm.cases->Increment();
  dm.checks->Increment(report.checks);
  dm.divergences->Increment(report.divergences.size());
  return report;
}

DiffReport RunDifferentialCase(uint64_t seed,
                               const RandomWorkloadOptions& wopts,
                               const DiffOptions& options) {
  return RunDifferentialCase(MakeRandomWorkload(seed, wopts), options);
}

}  // namespace mel::testing
