#include "util/serial_executor.h"

#include <exception>
#include <utility>

#include "util/logging.h"

namespace mel::util {

SerialExecutor::~SerialExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SerialExecutor::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) thread_ = std::thread([this] { Loop(); });
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void SerialExecutor::Run(const std::function<void()>& task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MEL_CHECK(std::this_thread::get_id() != thread_.get_id());
  }
  std::exception_ptr error;
  bool done = false;  // guarded by mu_
  Post([&] {
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    done = true;
    done_cv_.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done; });
    if (!error) error = std::exchange(posted_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void SerialExecutor::Loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The task (and whatever it captured) is released before the next
    // one starts.
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!posted_error_) posted_error_ = std::current_exception();
    }
  }
}

}  // namespace mel::util
