#include "obs/op_tracer.h"

#include <algorithm>
#include <cstdio>

#include "io/page_device.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"

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
// by readers to copy, so recording is effectively uncontended.
struct OpTracer::Ring {
  explicit Ring(size_t cap_in) : cap(cap_in) {}

  Latch latch;
  size_t cap;                 // retained spans, at most
  std::vector<OpSpan> slots;  // circular once it holds `cap` spans
  size_t next = 0;            // overwrite cursor once full
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
  }
  seq_.store(0, std::memory_order_relaxed);
}

uint64_t OpTracer::total() const {
  return seq_.load(std::memory_order_relaxed);
}

void OpTracer::Push(OpSpan&& span) {
  Ring* ring = RingForThisThread();
  span.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  LatchGuard g(ring->latch);
  if (ring->slots.size() < ring->cap) {
    ring->slots.push_back(std::move(span));
  } else {
    ring->slots[ring->next] = std::move(span);
    ring->next = (ring->next + 1) % ring->cap;
  }
}

std::vector<OpSpan> OpTracer::Spans() const {
  std::vector<OpSpan> out;
  size_t cap;
  {
    LatchGuard g(latch_);
    cap = cap_;
    for (const auto& r : rings_) {
      LatchGuard rg(r->latch);
      out.insert(out.end(), r->slots.begin(), r->slots.end());
    }
  }
  // Each ring keeps its own newest `cap`, so the newest `cap` overall are
  // all here; merge by sequence and keep those.
  std::sort(out.begin(), out.end(), [](const OpSpan& a, const OpSpan& b) {
    return a.seq < b.seq;
  });
  if (out.size() > cap) out.erase(out.begin(), out.end() - cap);
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

namespace {

struct WellKnown {
  Counter* pager_hit;
  Counter* pager_miss;
  Counter* pager_eviction;
  Counter* buddy_alloc;
  Counter* buddy_free;
  Counter* buddy_coalesce;
  Counter* reshuffle;
  Counter* log_records;
};

const WellKnown& Counters() {
  static WellKnown* w = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    auto* ww = new WellKnown();
    ww->pager_hit = r.counter(kPagerHit);
    ww->pager_miss = r.counter(kPagerMiss);
    ww->pager_eviction = r.counter(kPagerEviction);
    ww->buddy_alloc = r.counter(kBuddyAlloc);
    ww->buddy_free = r.counter(kBuddyFree);
    ww->buddy_coalesce = r.counter(kBuddyCoalesce);
    ww->reshuffle = r.counter(kLobReshufflePlans);
    ww->log_records = r.counter(kTxnLogRecords);
    return ww;
  }();
  return *w;
}

}  // namespace

ScopedOp::CounterSnap ScopedOp::Snap() {
  const WellKnown& w = Counters();
  CounterSnap s;
  s.pager_hits = w.pager_hit->value();
  s.pager_misses = w.pager_miss->value();
  s.pager_evictions = w.pager_eviction->value();
  s.buddy_allocs = w.buddy_alloc->value();
  s.buddy_frees = w.buddy_free->value();
  s.buddy_coalesces = w.buddy_coalesce->value();
  s.reshuffles = w.reshuffle->value();
  s.log_records = w.log_records->value();
  return s;
}

ScopedOp::ScopedOp(const char* op, uint64_t object_id, PageDevice* device,
                   OpTracer* tracer)
    : op_(op), object_id_(object_id), device_(device) {
  if (!Enabled()) return;
  active_ = true;
  tracer_ = tracer != nullptr ? tracer : &OpTracer::Default();
  depth_ = t_open_spans++;
  TraceEpoch();  // pin the epoch no later than the first span's start
  start_ = std::chrono::steady_clock::now();
  if (device_ != nullptr) io_start_ = device_->stats();
  snap_ = Snap();
  RecordEvent(EventKind::kOpBegin, op_, object_id_);
}

ScopedOp::~ScopedOp() {
  if (!active_) return;
  --t_open_spans;
  OpSpan span;
  span.op = op_;
  span.object_id = object_id_;
  span.depth = depth_;
  span.ok = ok_;
  span.start_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(start_ -
                                                            TraceEpoch())
          .count());
  span.wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (device_ != nullptr) span.io = device_->stats() - io_start_;
  CounterSnap now = Snap();
  span.pager_hits = now.pager_hits - snap_.pager_hits;
  span.pager_misses = now.pager_misses - snap_.pager_misses;
  span.pager_evictions = now.pager_evictions - snap_.pager_evictions;
  span.buddy_allocs = now.buddy_allocs - snap_.buddy_allocs;
  span.buddy_frees = now.buddy_frees - snap_.buddy_frees;
  span.buddy_coalesces = now.buddy_coalesces - snap_.buddy_coalesces;
  span.reshuffles = now.reshuffles - snap_.reshuffles;
  span.log_records = now.log_records - snap_.log_records;
  OpHistogram(op_)->Record(span.wall_us);
  RecordEvent(EventKind::kOpEnd, op_, object_id_, span.wall_us,
              span.io.transfers(), ok_);
  tracer_->Push(std::move(span));
}

}  // namespace obs
}  // namespace eos
