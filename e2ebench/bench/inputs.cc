#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "eval/harness.h"
#include "reach/two_hop_index.h"
#include "tracing.h"
#include "util/random.h"
#include "util/timer.h"

namespace mel::e2e {

namespace {

// Every rate and size is a constant of its mix; README.md gives the
// reason for each value.
const MixSpec kMixes[] = {
    {.name = "read_fixed",
     .scale = 4,
     .closed_loop = true,
     .outstanding = 64,
     .typo_prob = 0.05},
    {.name = "stream_feedback",
     .scale = 4,
     .rate = 800,
     .feedback_prob = 0.25},
    {.name = "follow_churn",
     .scale = 1,
     .rate = 1500,
     .links_per_delta = 256,
     .erase_every = 10},
};

// First id of the tweets minted for confirmations; far above any corpus id.
constexpr kb::TweetId kFeedbackTweetBase = 1'000'000'000;

struct MentionRef {
  uint32_t tweet;
  uint32_t mention;
};

// Every corpus mention, in corpus (time) order.
std::vector<MentionRef> AllMentions(const gen::Corpus& corpus) {
  std::vector<MentionRef> refs;
  for (uint32_t t = 0; t < corpus.tweets.size(); ++t) {
    for (uint32_t m = 0; m < corpus.tweets[t].mentions.size(); ++m) {
      refs.push_back({t, m});
    }
  }
  return refs;
}

// One character substitution at a random alphanumeric position, with a
// letter that differs from the original even after case folding.
std::string WithTypo(const std::string& surface, Rng* rng) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < surface.size(); ++i) {
    if (std::isalnum(static_cast<unsigned char>(surface[i]))) {
      positions.push_back(i);
    }
  }
  if (positions.empty()) return surface;
  std::string out = surface;
  const size_t p = positions[rng->Uniform(positions.size())];
  const char original =
      static_cast<char>(std::tolower(static_cast<unsigned char>(out[p])));
  char c = original;
  while (c == original) c = static_cast<char>('a' + rng->Uniform(26));
  out[p] = c;
  return out;
}

graph::EdgeDelta NextDelta(bool erase, graph::DirectedGraph* sim, Rng* rng) {
  const uint32_t n = sim->num_nodes();
  graph::EdgeDelta d;
  if (erase) {
    d.op = graph::EdgeDelta::Op::kErase;
    do {
      d.u = static_cast<graph::NodeId>(rng->Uniform(n));
    } while (sim->OutDegree(d.u) == 0);
    auto out = sim->OutNeighbors(d.u);
    d.v = out[rng->Uniform(out.size())];
    sim->EraseEdge(d.u, d.v);
  } else {
    d.op = graph::EdgeDelta::Op::kInsert;
    do {
      d.u = static_cast<graph::NodeId>(rng->Uniform(n));
      d.v = static_cast<graph::NodeId>(rng->Uniform(n));
    } while (d.u == d.v || sim->HasEdge(d.u, d.v));
    sim->InsertEdge(d.u, d.v);
  }
  return d;
}

}  // namespace

const MixSpec* FindMix(std::string_view name) {
  for (const MixSpec& mix : kMixes) {
    if (mix.name == name) return &mix;
  }
  return nullptr;
}

core::LinkerOptions BenchLinkerOptions() {
  core::LinkerOptions options;
  options.theta1 = 10;
  return options;
}

Deployment::Deployment(double scale, const std::string& index_path)
    : world_(gen::GenerateWorld(eval::StandardWorldOptions(scale, kWorldSeed))),
      ckb_(&world_.kb()),
      index_path_(index_path) {
  // The eval::Harness recipe: simulated offline pre-linking of the
  // active users' tweets.
  const eval::HarnessOptions h;
  const gen::DatasetSplit active =
      gen::FilterActiveUsers(world_.corpus, h.complement_min_tweets);
  gen::ComplementWithSimulatedLinker(world_, active, h.base_noise,
                                     h.max_noise, kWorldSeed * 7 + 6, &ckb_);

  WallTimer timer;
  reach::TwoHopIndex index =
      reach::TwoHopIndex::Build(&world_.social.graph, kMaxHops);
  index_build_s_ = timer.ElapsedSeconds();
  Status saved = index.Save(index_path_);
  if (!saved.ok()) {
    std::fprintf(stderr, "e2ebench: cannot write %s: %s\n",
                 index_path_.c_str(), saved.ToString().c_str());
    std::exit(2);
  }
}

Stream MakeStream(const MixSpec& mix, const Deployment& deployment,
                  uint64_t seed, double seconds) {
  const gen::Corpus& corpus = deployment.world().corpus;
  const std::vector<MentionRef> mentions = AllMentions(corpus);
  Rng rng(DeriveSeed(seed, 0));
  Stream stream;

  auto make_link = [&](const MentionRef& ref, kb::Timestamp now) {
    const gen::LabeledTweet& lt = corpus.tweets[ref.tweet];
    const gen::LabeledMention& m = lt.mentions[ref.mention];
    StreamLink link;
    link.request.mention = rng.Bernoulli(mix.typo_prob)
                               ? WithTypo(m.surface, &rng)
                               : m.surface;
    link.request.user = lt.tweet.user;
    link.request.now = now;
    link.truth = m.truth;
    return link;
  };

  if (mix.closed_loop) {
    // Every corpus mention once, in seeded order, all at one evaluation
    // time just past the corpus end.
    kb::Timestamp eval_now = 0;
    for (const auto& lt : corpus.tweets) {
      eval_now = std::max(eval_now, lt.tweet.time);
    }
    eval_now += 60;
    std::vector<MentionRef> order = mentions;
    rng.Shuffle(&order);
    for (const MentionRef& ref : order) {
      stream.links.push_back(make_link(ref, eval_now));
    }
    return stream;
  }

  // Open loop: the corpus replayed in time order, each request at its
  // tweet's time. A run sends fewer links than the corpus holds, so it
  // replays a seeded sample spread over the whole timeline (every run
  // crosses the same bursts); longer runs make full passes first.
  const size_t n = static_cast<size_t>(std::ceil(mix.rate * seconds));
  std::vector<MentionRef> replay;
  while (replay.size() + mentions.size() <= n) {
    replay.insert(replay.end(), mentions.begin(), mentions.end());
  }
  std::vector<uint32_t> sample(mentions.size());
  for (uint32_t i = 0; i < sample.size(); ++i) sample[i] = i;
  rng.Shuffle(&sample);
  sample.resize(n - replay.size());
  std::sort(sample.begin(), sample.end());
  for (uint32_t i : sample) replay.push_back(mentions[i]);

  graph::DirectedGraph sim = deployment.graph();
  kb::TweetId next_tweet = kFeedbackTweetBase;
  uint32_t deltas = 0;
  for (size_t i = 0; i < n; ++i) {
    const MentionRef& ref = replay[i];
    const kb::Tweet& tweet = corpus.tweets[ref.tweet].tweet;
    stream.links.push_back(make_link(ref, tweet.time));
    const StreamLink& link = stream.links.back();
    const uint32_t index = static_cast<uint32_t>(i);
    if (rng.Bernoulli(mix.feedback_prob)) {
      StreamWrite w;
      w.after_link = index;
      w.entity = link.truth;
      w.tweet.id = next_tweet++;
      w.tweet.user = tweet.user;
      w.tweet.time = tweet.time;
      stream.writes.push_back(std::move(w));
    }
    if (mix.links_per_delta != 0 && (i + 1) % mix.links_per_delta == 0) {
      ++deltas;
      StreamWrite w;
      w.after_link = index;
      w.is_mutation = true;
      w.delta = NextDelta(deltas % mix.erase_every == 0, &sim, &rng);
      stream.writes.push_back(w);
    }
  }
  return stream;
}

uint64_t Stream::Digest() const {
  Fnv f;
  for (const StreamLink& l : links) {
    f.Bytes(l.request.mention.data(), l.request.mention.size());
    f.Value(l.request.user);
    f.Value(l.request.now);
    f.Value(l.truth);
  }
  for (const StreamWrite& w : writes) {
    f.Value(w.after_link);
    f.Value(w.is_mutation);
    f.Value(w.entity);
    f.Value(w.tweet.id);
    f.Value(w.tweet.user);
    f.Value(w.tweet.time);
    f.Value(w.delta.op);
    f.Value(w.delta.u);
    f.Value(w.delta.v);
  }
  return f.h;
}

}  // namespace mel::e2e
