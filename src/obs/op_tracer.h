#ifndef EOS_OBS_OP_TRACER_H_
#define EOS_OBS_OP_TRACER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "io/io_stats.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span_counts.h"

namespace eos {

class PageDevice;

namespace obs {

// One completed traced operation: wall time plus the deltas of the paper's
// cost quantities (seeks, transfers) and the component counters, attributed
// to the logical operation that caused them. The deltas come from the
// recording thread's span totals (obs/span_counts.h), so a span counts its
// own thread's work and the IoExecutor tasks it submitted, never another
// client's: attribution stays exact with many concurrent operations, not
// only in the single-writer regime of the paper's Section 4.5.
struct OpSpan {
  const char* op = "";      // static string, e.g. "db.append"
  uint64_t object_id = 0;   // 0 when unknown at this layer
  uint64_t seq = 0;         // rank in the tracer's end-time order
  uint32_t depth = 0;       // spans already open on this thread at begin
  bool ok = true;
  uint64_t start_us = 0;    // begin time, us since the process trace epoch
  uint64_t wall_us = 0;
  IoStats io;               // device seeks/transfers during the span
  uint64_t pager_hits = 0;
  uint64_t pager_misses = 0;
  uint64_t pager_evictions = 0;
  uint64_t buddy_allocs = 0;
  uint64_t buddy_frees = 0;
  uint64_t buddy_coalesces = 0;
  uint64_t reshuffles = 0;
  uint64_t log_records = 0;
};

// Bounded in-memory record of recent spans. Each thread records into its
// own ring (one uncontended latch per ring, on a cache line of its own, so
// recording threads never touch each other's memory). Spans() merges the
// rings by end time and keeps the newest `capacity` spans overall; a span's
// seq is its rank in that order, counted from the first span recorded.
// total() still counts every span ever recorded so wraparound is
// observable.
class OpTracer {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  // The process-wide tracer every built-in hook reports to.
  static OpTracer& Default();

  explicit OpTracer(size_t capacity = kDefaultCapacity);
  ~OpTracer();

  OpTracer(const OpTracer&) = delete;
  OpTracer& operator=(const OpTracer&) = delete;

  // Drops recorded spans when shrinking; capacity must be >= 1.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  void Clear();
  uint64_t total() const;  // spans ever recorded (>= Spans().size())

  // The newest capacity() spans across all threads, in sequence order.
  std::vector<OpSpan> Spans() const;

  JsonValue ToJsonValue() const;
  std::string ToText() const;

 private:
  friend class ScopedOp;
  struct Ring;

  Ring* RingForThisThread();
  // `end_ns` is the span's end on the trace epoch; it orders the merge.
  void Push(OpSpan&& span, uint64_t end_ns);

  const uint64_t id_;  // process-unique, validates the thread-local ring cache

  mutable Latch latch_;  // guards cap_ and rings_/by_thread_ registration
  size_t cap_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::unordered_map<std::thread::id, Ring*> by_thread_;
};

// RAII span: opens a SpanWindow on the calling thread at construction,
// and on destruction records the window's deltas (plus wall time) into the
// tracer's ring and an "op.<name>.us" latency histogram in the default
// registry. I/O is counted on `device` only. `op` must be a static string:
// the histogram is resolved once per name and thread, keyed by its
// address. Nesting depth is counted per thread. Inert when observability
// is disabled.
class ScopedOp {
 public:
  // `device` may be null (no I/O attribution); `tracer` defaults to
  // OpTracer::Default().
  ScopedOp(const char* op, uint64_t object_id, PageDevice* device,
           OpTracer* tracer = nullptr);
  ~ScopedOp();

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

  void set_ok(bool ok) { ok_ = ok; }
  // Convenience for `return span.Close(status);` call sites.
  Status Close(Status s) {
    ok_ = s.ok();
    return s;
  }

 private:
  bool active_ = false;
  bool ok_ = true;
  const char* op_;
  uint64_t object_id_;
  PageDevice* device_;
  OpTracer* tracer_ = nullptr;
  uint32_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::optional<SpanWindow> window_;  // open while active
};

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_OP_TRACER_H_
