#ifndef MEL_E2EBENCH_SERVING_H_
#define MEL_E2EBENCH_SERVING_H_

// Load generation against serve::LinkService: a closed loop with a fixed
// number of outstanding requests, and an open loop at a fixed offered
// rate. Both record every operation's outcome and timestamps and reduce
// each response to a digest; the checks run after the clock stops.

#include <cstdint>
#include <deque>
#include <vector>

#include "inputs.h"
#include "serve/link_service.h"

namespace mel::e2e {

struct LinkRecord {
  uint32_t stream_index = 0;
  bool resolved = false;
  serve::ServeStatus status = serve::ServeStatus::kShutdown;
  uint32_t batch_size = 0;
  uint64_t epoch = 0;
  int64_t queue_wait_ns = 0;
  /// Latency clock start: the scheduled send time on the open loop, the
  /// Submit call on the closed loop.
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  /// When the collector observed the future ready. One collector waits
  /// in submission order, so inside a micro-batch a response can be seen
  /// up to the batch's own duration late.
  int64_t ready_ns = 0;
  uint64_t digest = 0;  // ResultDigest of the served result (kOk only)
};

struct WriteRecord {
  bool resolved = false;
  /// Epoch from which the write is visible, or the rejection sentinel.
  uint64_t ack_epoch = 0;
  int64_t submit_ns = 0;
  int64_t ready_ns = 0;
};

struct ServedRun {
  /// Submission order. A deque, so the closed loop's growing record
  /// list never reallocates (a copy would show up in peak_rss_mb).
  std::deque<LinkRecord> links;
  std::vector<WriteRecord> writes;  // submission order == Stream::writes
  /// Leading links sent before the measured window (closed-loop warm-up);
  /// they are checked but not timed.
  size_t warmup_links = 0;
  /// Open loop: how late the generator sent each link.
  std::vector<int64_t> lateness_ns;
  uint64_t final_epoch = 0;
};

/// Keeps `outstanding` requests in flight (cycling over stream.links) for
/// `warmup_s` + `seconds`, from one thread that both submits and collects.
ServedRun ServeClosedLoop(serve::LinkService* service, const Stream& stream,
                          uint32_t outstanding, double warmup_s,
                          double seconds);

/// Sends link i at i / rate seconds (with its trailing writes) from the
/// calling thread, which also collects the write acks between sends; one
/// extra thread collects the link responses.
ServedRun ServeOpenLoop(serve::LinkService* service, const Stream& stream,
                        double rate);

}  // namespace mel::e2e

#endif  // MEL_E2EBENCH_SERVING_H_
