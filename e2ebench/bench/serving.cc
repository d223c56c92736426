#include "serving.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "tracing.h"

namespace mel::e2e {

namespace {

using Clock = std::chrono::steady_clock;

// A future not ready this long after its phase ended counts as never
// resolved (the correctness gate fails the run).
constexpr int64_t kResolveGraceNs = 60'000'000'000;

Clock::time_point At(int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

void Collect(std::future<serve::LinkResponse>* future, int64_t deadline_ns,
             LinkRecord* record) {
  if (future->wait_until(At(deadline_ns)) != std::future_status::ready) {
    return;
  }
  record->ready_ns = NowNs();
  serve::LinkResponse response;
  try {
    response = future->get();
  } catch (const std::future_error&) {
    return;  // broken promise: stays unresolved
  }
  record->resolved = true;
  record->status = response.status;
  record->epoch = response.epoch;
  record->batch_size = response.batch_size;
  record->queue_wait_ns = response.queue_wait_ns;
  if (response.status == serve::ServeStatus::kOk) {
    record->digest = ResultDigest(response.result);
  }
}

// Waits for the oldest pending ack until `deadline_ns`; returns false on
// timeout. Acks resolve in submission order (one barrier applies every
// write pending at that point), so the oldest is always the next.
bool CollectOldestAck(std::deque<std::pair<size_t, std::future<uint64_t>>>* acks,
                      int64_t deadline_ns, ServedRun* run) {
  auto& [index, future] = acks->front();
  if (future.wait_until(At(deadline_ns)) != std::future_status::ready) {
    return false;
  }
  WriteRecord& w = run->writes[index];
  w.ready_ns = NowNs();
  try {
    w.ack_epoch = future.get();
    w.resolved = true;
  } catch (const std::future_error&) {
  }
  acks->pop_front();
  return true;
}

}  // namespace

ServedRun ServeClosedLoop(serve::LinkService* service, const Stream& stream,
                          uint32_t outstanding, double warmup_s,
                          double seconds) {
  ServedRun run;
  std::deque<std::pair<size_t, std::future<serve::LinkResponse>>> inflight;
  const size_t m = stream.links.size();
  const int64_t start = NowNs();
  const int64_t measure_from = start + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t stop = measure_from + static_cast<int64_t>(seconds * 1e9);
  for (;;) {
    const int64_t now = NowNs();
    if (now < stop) {
      while (inflight.size() < outstanding) {
        LinkRecord r;
        r.stream_index = static_cast<uint32_t>(run.links.size() % m);
        r.due_ns = r.submit_ns = NowNs();
        if (r.submit_ns < measure_from) ++run.warmup_links;
        inflight.emplace_back(
            run.links.size(),
            service->Submit(stream.links[r.stream_index].request));
        run.links.push_back(r);
      }
    }
    if (inflight.empty()) break;
    auto& [index, future] = inflight.front();
    Collect(&future, std::max(now, stop) + kResolveGraceNs,
            &run.links[index]);
    inflight.pop_front();
  }
  run.final_epoch = service->epoch();
  return run;
}

ServedRun ServeOpenLoop(serve::LinkService* service, const Stream& stream,
                        double rate) {
  ServedRun run;
  const size_t n = stream.links.size();
  run.links.resize(n);
  run.writes.resize(stream.writes.size());
  run.lateness_ns.reserve(n);

  // Link futures are handed to the collector thread in submission order.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<serve::LinkResponse>>> handoff;
  bool sent_all = false;
  int64_t deadline = 0;  // set with sent_all
  std::thread collector([&] {
    for (;;) {
      std::pair<size_t, std::future<serve::LinkResponse>> item;
      int64_t until = 0;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !handoff.empty() || sent_all; });
        if (handoff.empty()) return;
        item = std::move(handoff.front());
        handoff.pop_front();
        until = sent_all ? deadline : NowNs() + kResolveGraceNs;
      }
      Collect(&item.second, until, &run.links[item.first]);
    }
  });

  std::deque<std::pair<size_t, std::future<uint64_t>>> acks;
  const double interval_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 1'000'000;
  size_t next_write = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = t0 + static_cast<int64_t>(i * interval_ns);
    // Between sends the generator waits for write acks, so their ready
    // time is observed as it happens.
    while (!acks.empty() && CollectOldestAck(&acks, due, &run)) {
    }
    std::this_thread::sleep_until(At(due));
    LinkRecord& r = run.links[i];
    r.stream_index = static_cast<uint32_t>(i);
    r.due_ns = due;
    r.submit_ns = NowNs();
    run.lateness_ns.push_back(r.submit_ns - due);
    std::future<serve::LinkResponse> f =
        service->Submit(stream.links[i].request);
    {
      std::lock_guard lock(mu);
      handoff.emplace_back(i, std::move(f));
    }
    cv.notify_one();
    for (; next_write < stream.writes.size() &&
           stream.writes[next_write].after_link == i;
         ++next_write) {
      const StreamWrite& w = stream.writes[next_write];
      run.writes[next_write].submit_ns = NowNs();
      acks.emplace_back(next_write,
                        w.is_mutation
                            ? service->SubmitMutation(w.delta)
                            : service->SubmitFeedback(w.entity, w.tweet));
    }
  }
  const int64_t end = NowNs() + kResolveGraceNs;
  while (!acks.empty() && CollectOldestAck(&acks, end, &run)) {
  }
  {
    std::lock_guard lock(mu);
    sent_all = true;
    deadline = end;
  }
  cv.notify_one();
  collector.join();
  run.final_epoch = service->epoch();
  return run;
}

}  // namespace mel::e2e
