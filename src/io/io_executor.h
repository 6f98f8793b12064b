#ifndef EOS_IO_IO_EXECUTOR_H_
#define EOS_IO_IO_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "obs/span_counts.h"

namespace eos {

// Fixed-size worker pool for the parallel I/O engine (DESIGN.md "Parallel
// I/O and zero-copy paths").
//
// The data paths hand it batches of independent page-run transfers — one
// task per physically contiguous run — and join. Each task runs a complete
// read or write through whatever device stack the caller uses, so layered
// work (checksum verification in VerifiedPageDevice, fault injection in
// ChaosPageDevice) executes on the worker that performed the transfer, not
// serialized on the submitting thread.
//
// Semantics:
//   * RunBatch blocks until every task has finished and returns the first
//     non-OK status in task order (error fan-in); remaining tasks still run
//     to completion, so buffers they reference stay valid for exactly the
//     duration of the call.
//   * Submit returns a Ticket the caller joins later (read-ahead uses this);
//     an unjoined Ticket joins in its destructor, so a task can never
//     outlive the buffers its closure captured.
//   * A pool of 0 threads runs everything inline on the caller — the serial
//     fallback used when parallelism is disabled; single-task batches also
//     run inline to skip the handoff latency.
//   * The destructor drains queued tasks, then joins the workers.
//
// Tasks must not submit to the same executor they run on (no nesting), and
// must be independent: the pool provides no ordering between tasks of one
// batch.
class IoExecutor {
 public:
  explicit IoExecutor(size_t threads);
  ~IoExecutor();

  IoExecutor(const IoExecutor&) = delete;
  IoExecutor& operator=(const IoExecutor&) = delete;

  size_t threads() const { return workers_.size(); }

  // Joinable handle on one submitted task. Move-only; joins on destruction
  // if the caller has not.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept { *this = std::move(o); }
    Ticket& operator=(Ticket&& o) noexcept;
    ~Ticket() { (void)Wait(); }

    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool valid() const { return state_ != nullptr; }

    // Blocks until the task finishes and returns its status; detaches the
    // ticket (subsequent Wait calls return OK).
    Status Wait();

   private:
    friend class IoExecutor;
    struct TaskState;
    explicit Ticket(std::shared_ptr<TaskState> state)
        : state_(std::move(state)) {}

    std::shared_ptr<TaskState> state_;
  };

  // Enqueues one task (runs inline with 0 workers).
  Ticket Submit(std::function<Status()> fn);

  // Runs all tasks and joins; first non-OK status in task order.
  Status RunBatch(std::vector<std::function<Status()>> tasks);

  // Process-wide pool shared by the data paths. Sized by the EOS_IO_THREADS
  // environment variable (read once); defaults to
  // min(4, hardware_concurrency). EOS_IO_THREADS=0 yields an inline
  // executor, the global kill switch for parallel I/O.
  static IoExecutor* Default();

 private:
  struct Ticket::TaskState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::function<Status()> fn;
    // Submitter's ambient deadline/cancellation, captured by value because
    // thread-locals do not cross into the worker pool. Checked before the
    // task runs (queued work is skipped once the bound has passed) and
    // re-installed around fn so device-level checks see it too.
    OpContext ctx;
    bool has_ctx = false;
    // The submitter's open span, likewise: the task's I/O and component
    // counts are charged to it, not to whichever thread runs the task.
    obs::SpanCharge charge;
  };
  using TaskState = Ticket::TaskState;

  void WorkerLoop();
  static void RunTask(TaskState* t);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<TaskState>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eos

#endif  // EOS_IO_IO_EXECUTOR_H_
