#ifndef MEL_UTIL_SERIAL_EXECUTOR_H_
#define MEL_UTIL_SERIAL_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace mel::util {

/// \brief One lazily started thread that runs posted tasks one at a
/// time, in the order they were posted.
///
/// The thread starts on the first Post or Run, so an executor that is
/// never used costs nothing. Because tasks run strictly FIFO on a single
/// thread, a task posted from inside a running task runs after it and
/// before anything posted later — which is what lets a maintenance hook
/// defer work that the next hook then finds finished.
///
/// Contract:
///  * Post may be called from any thread, including from inside a task.
///  * Run and Drain block until their task ran; calling them from inside
///    a task of the same executor would deadlock and is checked.
///  * Run rethrows its task's exception on the calling thread. A posted
///    task has no caller of its own: the first exception one throws is
///    kept and rethrown by the next Run or Drain.
///  * The destructor runs every queued task, then joins the thread.
class SerialExecutor {
 public:
  SerialExecutor() = default;
  ~SerialExecutor();

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  /// Queues `task` behind everything posted so far.
  void Post(std::function<void()> task);

  /// Queues `task` and blocks until it has run.
  void Run(const std::function<void()>& task);

  /// Blocks until every task posted before the call has run.
  void Drain() {
    Run([] {});
  }

 private:
  void Loop();

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;  // the thread: a task was queued
  std::condition_variable done_cv_;  // Run callers: their task finished
  std::deque<std::function<void()>> queue_;
  std::exception_ptr posted_error_;  // first throw of a posted task
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace mel::util

#endif  // MEL_UTIL_SERIAL_EXECUTOR_H_
