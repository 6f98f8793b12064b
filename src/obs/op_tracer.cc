#include "obs/op_tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <tuple>

namespace eos {
namespace obs {

namespace {

// Shared zero point for every span's start_us, so spans from different
// threads line up on one Chrome-trace timeline.
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<uint64_t> g_tracer_ids{1};

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

// One thread's spans. The latch is taken by the owning thread to record and
// by readers to copy, so recording is effectively uncontended; the header
// has a cache line of its own so no other thread's recording touches it.
struct alignas(64) OpTracer::Ring {
  explicit Ring(size_t cap_in) : cap(cap_in) {}

  struct Slot {
    OpSpan span;
    uint64_t end_ns = 0;  // merge key, on the trace epoch
    uint64_t nth = 0;     // this ring's recording order, breaks time ties
  };

  Latch latch;
  size_t cap;               // retained spans, at most
  std::vector<Slot> slots;  // circular once it holds `cap` spans
  size_t next = 0;          // overwrite cursor once full
  uint64_t recorded = 0;    // spans ever recorded here since Clear()
};

OpTracer& OpTracer::Default() {
  static OpTracer* tracer = new OpTracer();
  return *tracer;
}

OpTracer::OpTracer(size_t capacity)
    : id_(g_tracer_ids.fetch_add(1, std::memory_order_relaxed)),
      cap_(capacity == 0 ? 1 : capacity) {}

OpTracer::~OpTracer() = default;

OpTracer::Ring* OpTracer::RingForThisThread() {
  // One-entry cache: hooks report to the default tracer, so the
  // registration latch is taken once per thread.
  thread_local uint64_t cached_id = 0;
  thread_local Ring* cached_ring = nullptr;
  if (cached_id == id_) return cached_ring;
  LatchGuard g(latch_);
  Ring*& ring = by_thread_[std::this_thread::get_id()];
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<Ring>(cap_));
    ring = rings_.back().get();
  }
  cached_id = id_;
  cached_ring = ring;
  return ring;
}

void OpTracer::SetCapacity(size_t capacity) {
  LatchGuard g(latch_);
  cap_ = capacity == 0 ? 1 : capacity;
  for (const auto& r : rings_) {
    LatchGuard rg(r->latch);
    r->cap = cap_;
    r->slots.clear();
    r->slots.shrink_to_fit();
    r->next = 0;
  }
}

size_t OpTracer::capacity() const {
  LatchGuard g(latch_);
  return cap_;
}

void OpTracer::Clear() {
  LatchGuard g(latch_);
  for (const auto& r : rings_) {
    LatchGuard rg(r->latch);
    r->slots.clear();
    r->next = 0;
    r->recorded = 0;
  }
}

uint64_t OpTracer::total() const {
  LatchGuard g(latch_);
  uint64_t total = 0;
  for (const auto& r : rings_) {
    LatchGuard rg(r->latch);
    total += r->recorded;
  }
  return total;
}

void OpTracer::Push(OpSpan&& span, uint64_t end_ns) {
  Ring* ring = RingForThisThread();
  LatchGuard g(ring->latch);
  uint64_t nth = ++ring->recorded;
  if (ring->slots.size() < ring->cap) {
    ring->slots.push_back(Ring::Slot{std::move(span), end_ns, nth});
    return;
  }
  Ring::Slot& slot = ring->slots[ring->next];
  slot.span = std::move(span);
  slot.end_ns = end_ns;
  slot.nth = nth;
  if (++ring->next == ring->cap) ring->next = 0;
}

std::vector<OpSpan> OpTracer::Spans() const {
  struct Entry {
    Ring::Slot slot;
    size_t ring;
  };
  std::vector<Entry> all;
  uint64_t total = 0;
  size_t cap;
  {
    LatchGuard g(latch_);
    cap = cap_;
    for (size_t i = 0; i < rings_.size(); ++i) {
      LatchGuard rg(rings_[i]->latch);
      total += rings_[i]->recorded;
      for (const Ring::Slot& s : rings_[i]->slots) all.push_back(Entry{s, i});
    }
  }
  // Each ring keeps its own newest `cap`, so the newest `cap` overall are
  // all here. A thread's spans end in its recording order, so sorting by
  // end time keeps each ring's order; ties across rings go by ring.
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.slot.end_ns, a.ring, a.slot.nth) <
           std::tie(b.slot.end_ns, b.ring, b.slot.nth);
  });
  size_t keep = std::min(all.size(), cap);
  std::vector<OpSpan> out;
  out.reserve(keep);
  // Every span dropped, from a ring or here, ended before the kept ones.
  uint64_t seq = total - keep;
  for (size_t i = all.size() - keep; i < all.size(); ++i) {
    out.push_back(all[i].slot.span);
    out.back().seq = ++seq;
  }
  return out;
}

JsonValue OpTracer::ToJsonValue() const {
  JsonValue arr = JsonValue::Array();
  for (const OpSpan& s : Spans()) {
    JsonValue o = JsonValue::Object();
    o.Set("seq", JsonValue::Number(static_cast<double>(s.seq)));
    o.Set("op", JsonValue::Str(s.op));
    o.Set("object", JsonValue::Number(static_cast<double>(s.object_id)));
    o.Set("depth", JsonValue::Number(s.depth));
    o.Set("ok", JsonValue::Bool(s.ok));
    o.Set("start_us", JsonValue::Number(static_cast<double>(s.start_us)));
    o.Set("wall_us", JsonValue::Number(static_cast<double>(s.wall_us)));
    o.Set("seeks", JsonValue::Number(static_cast<double>(s.io.seeks)));
    o.Set("pages_read",
          JsonValue::Number(static_cast<double>(s.io.pages_read)));
    o.Set("pages_written",
          JsonValue::Number(static_cast<double>(s.io.pages_written)));
    o.Set("pager_hits",
          JsonValue::Number(static_cast<double>(s.pager_hits)));
    o.Set("pager_misses",
          JsonValue::Number(static_cast<double>(s.pager_misses)));
    o.Set("pager_evictions",
          JsonValue::Number(static_cast<double>(s.pager_evictions)));
    o.Set("buddy_allocs",
          JsonValue::Number(static_cast<double>(s.buddy_allocs)));
    o.Set("buddy_frees",
          JsonValue::Number(static_cast<double>(s.buddy_frees)));
    o.Set("buddy_coalesces",
          JsonValue::Number(static_cast<double>(s.buddy_coalesces)));
    o.Set("reshuffles", JsonValue::Number(static_cast<double>(s.reshuffles)));
    o.Set("log_records",
          JsonValue::Number(static_cast<double>(s.log_records)));
    arr.Push(std::move(o));
  }
  return arr;
}

std::string OpTracer::ToText() const {
  std::string out =
      "   seq depth op                     obj       us  seeks  xfers "
      "hit/miss  ok\n";
  char line[160];
  for (const OpSpan& s : Spans()) {
    std::snprintf(line, sizeof(line),
                  "%6llu %5u %-20s %4llu %8llu %6llu %6llu %4llu/%-4llu %3s\n",
                  static_cast<unsigned long long>(s.seq), s.depth, s.op,
                  static_cast<unsigned long long>(s.object_id),
                  static_cast<unsigned long long>(s.wall_us),
                  static_cast<unsigned long long>(s.io.seeks),
                  static_cast<unsigned long long>(s.io.transfers()),
                  static_cast<unsigned long long>(s.pager_hits),
                  static_cast<unsigned long long>(s.pager_misses),
                  s.ok ? "ok" : "ERR");
    out += line;
  }
  return out;
}

ScopedOp::ScopedOp(const char* op, uint64_t object_id, PageDevice* device,
                   OpTracer* tracer)
    : op_(op), object_id_(object_id), device_(device) {
  if (!Enabled()) return;
  active_ = true;
  tracer_ = tracer != nullptr ? tracer : &OpTracer::Default();
  depth_ = t_open_spans++;
  TraceEpoch();  // pin the epoch no later than the first span's start
  window_.emplace(device_);
  start_ = std::chrono::steady_clock::now();
}

ScopedOp::~ScopedOp() {
  if (!active_) return;
  auto end = std::chrono::steady_clock::now();
  --t_open_spans;
  SpanCounts d = window_->Elapsed();
  window_.reset();
  OpSpan span{
      .op = op_,
      .object_id = object_id_,
      .depth = depth_,
      .ok = ok_,
      .start_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(start_ -
                                                                TraceEpoch())
              .count()),
      .wall_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
              .count()),
      .io = device_ != nullptr ? d.io : IoStats{},
      .pager_hits = d.pager_hits,
      .pager_misses = d.pager_misses,
      .pager_evictions = d.pager_evictions,
      .buddy_allocs = d.buddy_allocs,
      .buddy_frees = d.buddy_frees,
      .buddy_coalesces = d.buddy_coalesces,
      .reshuffles = d.reshuffles,
      .log_records = d.log_records,
  };
  OpHistogram(op_)->Record(span.wall_us);
  tracer_->Push(std::move(span),
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - TraceEpoch())
                        .count()));
}

}  // namespace obs
}  // namespace eos
