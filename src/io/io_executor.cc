#include "io/io_executor.h"

#include <cstdlib>

namespace eos {

IoExecutor::Ticket& IoExecutor::Ticket::operator=(Ticket&& o) noexcept {
  if (this != &o) {
    (void)Wait();
    state_ = std::move(o.state_);
  }
  return *this;
}

Status IoExecutor::Ticket::Wait() {
  if (state_ == nullptr) return Status::OK();
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  Status s = state_->status;
  lock.unlock();
  state_.reset();
  return s;
}

IoExecutor::IoExecutor(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoExecutor::~IoExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // With no workers the queue is necessarily empty (Submit ran inline).
}

void IoExecutor::RunTask(TaskState* t) {
  obs::ScopedSpanCharge charge(t->charge);
  Status s;
  if (t->has_ctx) {
    s = t->ctx.Check("io_executor task");
    if (s.ok()) {
      ScopedOpContext scope(t->ctx);
      s = t->fn();
    }
  } else {
    s = t->fn();
  }
  t->fn = nullptr;  // release captured buffers promptly
  {
    std::lock_guard<std::mutex> lock(t->mu);
    t->status = std::move(s);
    t->done = true;
  }
  t->cv.notify_all();
}

void IoExecutor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<TaskState> t;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      // Drain before exiting so queued tasks (and the Tickets joined on
      // them) always complete.
      if (queue_.empty()) return;
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(t.get());
  }
}

IoExecutor::Ticket IoExecutor::Submit(std::function<Status()> fn) {
  auto state = std::make_shared<TaskState>();
  state->fn = std::move(fn);
  if (const OpContext* ctx = ScopedOpContext::Current()) {
    state->ctx = *ctx;
    state->has_ctx = true;
  }
  state->charge = obs::SpanCharge::Capture();
  if (workers_.empty()) {
    RunTask(state.get());
    return Ticket(std::move(state));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(state);
  }
  cv_.notify_one();
  return Ticket(std::move(state));
}

Status IoExecutor::RunBatch(std::vector<std::function<Status()>> tasks) {
  if (tasks.empty()) return Status::OK();
  if (workers_.empty() || tasks.size() == 1) {
    // Inline fallback: serial execution, still first-error-in-order.
    Status first;
    for (auto& fn : tasks) {
      Status s = ScopedOpContext::CheckCurrent("io_executor batch");
      if (s.ok()) s = fn();
      if (first.ok() && !s.ok()) first = std::move(s);
    }
    return first;
  }
  const OpContext* ctx = ScopedOpContext::Current();
  obs::SpanCharge charge = obs::SpanCharge::Capture();
  std::vector<std::shared_ptr<TaskState>> states;
  states.reserve(tasks.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& fn : tasks) {
      auto state = std::make_shared<TaskState>();
      state->fn = std::move(fn);
      if (ctx != nullptr) {
        state->ctx = *ctx;
        state->has_ctx = true;
      }
      state->charge = charge;
      queue_.push_back(state);
      states.push_back(std::move(state));
    }
  }
  cv_.notify_all();
  // Help drain the shared queue instead of blocking idle: on machines with
  // few cores the submitting thread is a worker too, and every task is
  // independent, so running someone else's task here is always progress.
  for (;;) {
    std::shared_ptr<TaskState> t;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!queue_.empty()) {
        t = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (t == nullptr) break;
    RunTask(t.get());
  }
  Status first;
  for (auto& state : states) {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done; });
    if (first.ok() && !state->status.ok()) first = state->status;
  }
  return first;
}

IoExecutor* IoExecutor::Default() {
  static IoExecutor* exec = [] {
    size_t threads = 4;
    unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && hw < threads) threads = hw;
    if (const char* env = std::getenv("EOS_IO_THREADS")) {
      char* end = nullptr;
      unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && v <= 64) threads = static_cast<size_t>(v);
    }
    return new IoExecutor(threads);  // intentionally immortal
  }();
  return exec;
}

}  // namespace eos
