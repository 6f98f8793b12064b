#ifndef EOS_OBS_OP_TRACER_H_
#define EOS_OBS_OP_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "io/io_stats.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace eos {

class PageDevice;

namespace obs {

// One completed traced operation: wall time plus the deltas of the paper's
// cost quantities (seeks, transfers) and the component counters, attributed
// to the logical operation that caused them. Deltas are computed from the
// process-wide metric counters, so concurrent operations see each other's
// activity folded in — spans attribute cost exactly in the single-writer
// regime the paper (Section 4.5: lock the root) prescribes per object.
struct OpSpan {
  const char* op = "";      // static string, e.g. "db.append"
  uint64_t object_id = 0;   // 0 when unknown at this layer
  uint64_t seq = 0;         // monotone per tracer, across all threads
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
// own ring (one uncontended latch per ring, so recording threads never
// queue behind each other); a relaxed-atomic sequence number orders spans
// across threads, and Spans() merges the rings by it. Keeps the last
// `capacity` spans overall; total() still counts every span ever recorded
// so wraparound is observable.
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
  void Push(OpSpan&& span);

  const uint64_t id_;  // process-unique, validates the thread-local ring cache
  std::atomic<uint64_t> seq_{0};

  mutable Latch latch_;  // guards cap_ and rings_/by_thread_ registration
  size_t cap_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::unordered_map<std::thread::id, Ring*> by_thread_;
};

// RAII span: snapshots the device IoStats and the well-known component
// counters at construction, and on destruction records the deltas (plus
// wall time) into the tracer's ring and an "op.<name>.us" latency histogram
// in the default registry. `op` must be a static string: the histogram is
// resolved once per name and thread, keyed by its address. Nesting depth is
// counted per thread. Inert when observability is disabled.
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
  struct CounterSnap {
    uint64_t pager_hits = 0;
    uint64_t pager_misses = 0;
    uint64_t pager_evictions = 0;
    uint64_t buddy_allocs = 0;
    uint64_t buddy_frees = 0;
    uint64_t buddy_coalesces = 0;
    uint64_t reshuffles = 0;
    uint64_t log_records = 0;
  };
  static CounterSnap Snap();

  bool active_ = false;
  bool ok_ = true;
  const char* op_;
  uint64_t object_id_;
  PageDevice* device_;
  OpTracer* tracer_ = nullptr;
  uint32_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  IoStats io_start_;
  CounterSnap snap_;
};

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_OP_TRACER_H_
