#include "obs/op_tracer.h"

#include <string>
#include <unordered_map>

namespace eos {
namespace obs {

namespace {

// Spans open on this thread, across all tracers: the next span's depth.
thread_local uint32_t t_open_spans = 0;

// The "op.<name>.us" histogram for a span name. Span names are static
// strings, so a per-thread memo keyed by address goes to the registry (and
// its latch) only the first time a thread records a name.
Histogram* OpHistogram(const char* op) {
  thread_local std::unordered_map<const char*, Histogram*> memo;
  Histogram*& h = memo[op];
  if (h == nullptr) {
    h = MetricsRegistry::Default().histogram(std::string("op.") + op + ".us");
  }
  return h;
}

}  // namespace

OpTracer& OpTracer::Default() {
  static OpTracer* tracer = new OpTracer();
  return *tracer;
}

JsonValue OpTracer::ToJsonValue() const {
  JsonValue arr = JsonValue::Array();
  for (const OpSpan& s : Spans()) {
    auto num = [](uint64_t v) {
      return JsonValue::Number(static_cast<double>(v));
    };
    JsonValue o = JsonValue::Object();
    o.Set("seq", num(s.seq));
    o.Set("op", JsonValue::Str(s.op));
    o.Set("object", num(s.object_id));
    o.Set("tid", num(s.tid));
    o.Set("depth", num(s.depth));
    o.Set("ok", JsonValue::Bool(s.ok));
    o.Set("start_us", num(s.start_us));
    o.Set("wall_us", num(s.wall_us));
    o.Set("seeks", num(s.io.seeks));
    o.Set("pages_read", num(s.io.pages_read));
    o.Set("pages_written", num(s.io.pages_written));
    o.Set("pager_hits", num(s.pager_hits));
    o.Set("pager_misses", num(s.pager_misses));
    o.Set("pager_evictions", num(s.pager_evictions));
    o.Set("buddy_allocs", num(s.buddy_allocs));
    o.Set("buddy_frees", num(s.buddy_frees));
    o.Set("buddy_coalesces", num(s.buddy_coalesces));
    o.Set("reshuffles", num(s.reshuffles));
    o.Set("log_records", num(s.log_records));
    arr.Push(std::move(o));
  }
  return arr;
}

ScopedOp::ScopedOp(const char* op, uint64_t object_id, PageDevice* device,
                   OpTracer* tracer)
    : op_(op), object_id_(object_id), device_(device) {
  if (!Enabled()) return;
  active_ = true;
  tracer_ = tracer != nullptr ? tracer : &OpTracer::Default();
  depth_ = t_open_spans++;
  window_.emplace(device_);
  start_ns_ = TraceClockNs();
}

ScopedOp::~ScopedOp() {
  if (!active_) return;
  uint64_t end_ns = TraceClockNs();
  --t_open_spans;
  OpSpan span;
  static_cast<SpanCounts&>(span) = window_->Elapsed();
  window_.reset();
  // A window without a device of its own counts the enclosing window's.
  if (device_ == nullptr) span.io = IoStats{};
  span.op = op_;
  span.object_id = object_id_;
  span.depth = depth_;
  span.ok = ok_.value_or(true);
  span.start_us = start_ns_ / 1000;
  span.wall_us = (end_ns - start_ns_) / 1000;
  OpHistogram(op_)->Record(span.wall_us);
  tracer_->recorder_.Push(span, end_ns);
  if (cost_model_ && device_ != nullptr && ok_.value_or(false)) {
    RecordConformance(cost_op_, *cost_model_, span.io);
  }
}

}  // namespace obs
}  // namespace eos
