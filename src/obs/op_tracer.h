#ifndef EOS_OBS_OP_TRACER_H_
#define EOS_OBS_OP_TRACER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "obs/cost_model.h"
#include "obs/json.h"
#include "obs/span_counts.h"
#include "obs/trace_recorder.h"

namespace eos {

class PageDevice;

namespace obs {

// One completed traced operation: wall time plus the deltas of the paper's
// cost quantities (seeks, transfers) and the component counters (the
// SpanCounts base), attributed to the logical operation that caused them.
// The deltas come from the recording thread's span totals
// (obs/span_counts.h), so a span counts its own thread's work and the
// IoExecutor tasks it submitted, never another client's: attribution stays
// exact with many concurrent operations, not only in the single-writer
// regime of the paper's Section 4.5.
struct OpSpan : SpanCounts {
  const char* op = "";     // static string, e.g. "db.append"
  uint64_t object_id = 0;  // 0 when unknown at this layer
  uint64_t seq = 0;        // rank in the tracer's end-time order
  uint32_t tid = 0;        // the recording thread's ring
  uint32_t depth = 0;      // spans already open on this thread at begin
  bool ok = true;
  uint64_t start_us = 0;   // begin time on the trace clock
  uint64_t wall_us = 0;
};

// Bounded in-memory record of recent spans, a front end of the per-thread
// TraceRecorder. Spans() keeps the newest `capacity` spans overall; a
// span's seq is its rank in end-time order, counted from the first span
// recorded. total() still counts every span ever recorded so wraparound
// is observable.
class OpTracer {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  // The process-wide tracer every built-in hook reports to.
  static OpTracer& Default();

  explicit OpTracer(size_t capacity = kDefaultCapacity)
      : recorder_(capacity) {}

  OpTracer(const OpTracer&) = delete;
  OpTracer& operator=(const OpTracer&) = delete;

  // Drops recorded spans; capacity must be >= 1.
  void SetCapacity(size_t capacity) { recorder_.SetRingCapacity(capacity); }
  size_t capacity() const { return recorder_.ring_capacity(); }

  void Clear() { recorder_.Clear(); }
  uint64_t total() const { return recorder_.total(); }  // >= Spans().size()

  // The newest capacity() spans across all threads, in sequence order.
  std::vector<OpSpan> Spans() const { return recorder_.Merge(capacity()); }

  JsonValue ToJsonValue() const;

 private:
  friend class ScopedOp;

  TraceRecorder<OpSpan> recorder_;
};

// RAII span: opens a SpanWindow on the calling thread at construction,
// and on destruction records the window's deltas (plus wall time) into the
// tracer and an "op.<name>.us" latency histogram in the default registry.
// I/O is counted on `device` only. `op` must be a static string: the
// histogram is resolved once per name and thread, keyed by its address.
// Nesting depth is counted per thread. Inert when observability is
// disabled.
class ScopedOp {
 public:
  // `device` may be null (no I/O attribution); `tracer` defaults to
  // OpTracer::Default().
  ScopedOp(const char* op, uint64_t object_id, PageDevice* device,
           OpTracer* tracer = nullptr);
  ~ScopedOp();

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

  // Makes the span a cost-model conformance probe: when it closes OK, it
  // records `model` against the transfers its window counted on `device`
  // (RecordConformance). A span never closed by set_ok/Close, closed with
  // an error, or without a device records no sample.
  void set_expected_cost(CostOp op, const CostEstimate& model) {
    cost_op_ = op;
    cost_model_ = model;
  }

  void set_ok(bool ok) { ok_ = ok; }
  // Convenience for `return span.Close(status);` call sites.
  Status Close(Status s) {
    ok_ = s.ok();
    return s;
  }

 private:
  bool active_ = false;
  std::optional<bool> ok_;  // the span reports unset as ok
  const char* op_;
  uint64_t object_id_;
  PageDevice* device_;
  OpTracer* tracer_ = nullptr;
  uint32_t depth_ = 0;
  uint64_t start_ns_ = 0;             // on the trace clock
  std::optional<SpanWindow> window_;  // open while active
  CostOp cost_op_ = CostOp::kRead;
  std::optional<CostEstimate> cost_model_;
};

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_OP_TRACER_H_
