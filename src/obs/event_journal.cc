#include "obs/event_journal.h"

#include <unistd.h>

#include "obs/metric_names.h"
#include "obs/op_tracer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace eos {
namespace obs {

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kIoBatch:
      return "io_batch";
    case EventKind::kChecksumFail:
      return "checksum_fail";
    case EventKind::kQuarantine:
      return "quarantine";
    case EventKind::kReservationUnwind:
      return "reservation_unwind";
    case EventKind::kChaosFault:
      return "chaos_fault";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kFatal:
      return "fatal";
    case EventKind::kNote:
      return "note";
  }
  return "unknown";
}

// Per-thread ring. The latch is owned by exactly one recording thread and
// taken by readers only during a dump, so recording is effectively
// uncontended; it exists to make the slot bytes themselves race-free under
// TSan when a dump snapshots a live ring. The header has a cache line of
// its own, so no other thread's recording touches it.
struct alignas(64) EventJournal::Ring {
  Ring(size_t cap, uint32_t tid_in) : tid(tid_in) { slots.resize(cap); }

  const uint32_t tid;  // registration index, stable for the thread's life
  mutable Latch latch;
  std::vector<JournalEvent> slots;
  size_t next = 0;      // insertion cursor once full
  size_t filled = 0;    // <= slots.size()
  uint64_t recorded = 0;  // events ever recorded by this thread
};

namespace {

std::atomic<uint64_t> g_journal_ids{1};

obs::Counter* EventsCounter() {
  static Counter* c =
      MetricsRegistry::Default().counter(kJournalEvents);
  return c;
}

obs::Counter* PostMortemsCounter() {
  static Counter* c =
      MetricsRegistry::Default().counter(kJournalPostMortems);
  return c;
}

}  // namespace

EventJournal& EventJournal::Default() {
  static EventJournal* journal = new EventJournal();
  return *journal;
}

EventJournal::EventJournal(size_t per_thread_capacity)
    : cap_(per_thread_capacity == 0 ? 1 : per_thread_capacity),
      id_(g_journal_ids.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

EventJournal::~EventJournal() = default;

EventJournal::Ring* EventJournal::RingForThisThread() {
  // One-entry cache: the common case is a thread talking to the default
  // journal only, so the registration latch is taken once per thread.
  thread_local uint64_t cached_id = 0;
  thread_local Ring* cached_ring = nullptr;
  if (cached_id == id_) return cached_ring;
  LatchGuard g(latch_);
  auto it = by_thread_.find(std::this_thread::get_id());
  Ring* ring;
  if (it != by_thread_.end()) {
    ring = it->second;
  } else {
    rings_.push_back(
        std::make_unique<Ring>(cap_, static_cast<uint32_t>(rings_.size())));
    ring = rings_.back().get();
    by_thread_[std::this_thread::get_id()] = ring;
  }
  cached_id = id_;
  cached_ring = ring;
  return ring;
}

void EventJournal::Record(EventKind kind, const char* label, uint64_t a,
                          uint64_t b, uint64_t c, bool ok) {
  if (!Enabled()) return;
  Ring* ring = RingForThisThread();
  JournalEvent e;
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  e.t_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  e.kind = kind;
  e.label = label;
  e.a = a;
  e.b = b;
  e.c = c;
  e.ok = ok;
  e.tid = ring->tid;
  LatchGuard g(ring->latch);
  if (ring->filled < ring->slots.size()) {
    ring->slots[ring->filled++] = e;
  } else {
    ring->slots[ring->next] = e;
    ring->next = (ring->next + 1) % ring->slots.size();
  }
  ++ring->recorded;
  EventsCounter()->Inc();
}

uint64_t EventJournal::total_recorded() const {
  LatchGuard g(latch_);
  uint64_t total = 0;
  for (const auto& r : rings_) {
    LatchGuard rg(r->latch);
    total += r->recorded;
  }
  return total;
}

size_t EventJournal::threads_seen() const {
  LatchGuard g(latch_);
  return rings_.size();
}

void EventJournal::Clear() {
  LatchGuard g(latch_);
  for (const auto& r : rings_) {
    LatchGuard rg(r->latch);
    r->next = 0;
    r->filled = 0;
    r->recorded = 0;
  }
  seq_.store(0, std::memory_order_relaxed);
}

std::vector<JournalEvent> EventJournal::MergedEvents() const {
  std::vector<JournalEvent> out;
  {
    LatchGuard g(latch_);
    for (const auto& r : rings_) {
      LatchGuard rg(r->latch);
      // Oldest first within the ring: next points at the oldest once full.
      size_t n = r->filled;
      size_t start = r->filled < r->slots.size() ? 0 : r->next;
      for (size_t i = 0; i < n; ++i) {
        out.push_back(r->slots[(start + i) % r->slots.size()]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalEvent& x, const JournalEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

JsonValue EventJournal::ToJsonValue() const {
  std::vector<JournalEvent> events = MergedEvents();
  uint64_t recorded = total_recorded();
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Number(1));
  root.Set("recorded", JsonValue::Number(static_cast<double>(recorded)));
  root.Set("dropped", JsonValue::Number(static_cast<double>(
                          recorded - events.size())));
  JsonValue arr = JsonValue::Array();
  for (const JournalEvent& e : events) {
    JsonValue o = JsonValue::Object();
    o.Set("seq", JsonValue::Number(static_cast<double>(e.seq)));
    o.Set("t_us", JsonValue::Number(static_cast<double>(e.t_us)));
    o.Set("tid", JsonValue::Number(e.tid));
    o.Set("kind", JsonValue::Str(EventKindName(e.kind)));
    o.Set("label", JsonValue::Str(e.label));
    o.Set("a", JsonValue::Number(static_cast<double>(e.a)));
    o.Set("b", JsonValue::Number(static_cast<double>(e.b)));
    o.Set("c", JsonValue::Number(static_cast<double>(e.c)));
    o.Set("ok", JsonValue::Bool(e.ok));
    arr.Push(std::move(o));
  }
  root.Set("events", std::move(arr));
  return root;
}

// ----- post-mortem dumps -----------------------------------------------------

namespace {

Latch g_postmortem_latch;
std::string* g_postmortem_dir = nullptr;  // guarded by g_postmortem_latch

std::string DefaultPostMortemDir() {
  const char* e = std::getenv("EOS_JOURNAL_DIR");
  return e != nullptr && e[0] != '\0' ? e : ".";
}

}  // namespace

void SetPostMortemDir(const std::string& dir) {
  LatchGuard g(g_postmortem_latch);
  if (g_postmortem_dir == nullptr) g_postmortem_dir = new std::string();
  *g_postmortem_dir = dir;
}

std::string PostMortemDir() {
  LatchGuard g(g_postmortem_latch);
  if (g_postmortem_dir != nullptr && !g_postmortem_dir->empty()) {
    return *g_postmortem_dir;
  }
  return DefaultPostMortemDir();
}

StatusOr<std::string> WritePostMortem(const char* reason) {
  if (!Enabled()) {
    return Status::NotFound("observability disabled: no journal to dump");
  }
  std::string path = PostMortemDir() + "/eos_postmortem." +
                     std::to_string(getpid()) + "." + reason + ".json";
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Number(1));
  root.Set("reason", JsonValue::Str(reason));
  root.Set("pid", JsonValue::Number(getpid()));
  const char* seed = std::getenv("EOS_TEST_SEED");
  root.Set("eos_test_seed",
           seed != nullptr ? JsonValue::Str(seed) : JsonValue());
  root.Set("journal", EventJournal::Default().ToJsonValue());
  root.Set("spans", OpTracer::Default().ToJsonValue());
  std::string json = root.Dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  size_t put = std::fwrite(json.data(), 1, json.size(), f);
  int werr = std::ferror(f);
  if (std::fputc('\n', f) == EOF) werr = 1;
  if (std::fclose(f) != 0 || werr != 0 || put != json.size()) {
    return Status::IOError("write(" + path + ") failed");
  }
  PostMortemsCounter()->Inc();
  return path;
}

void DumpPostMortemBestEffort(const char* reason) {
  auto path = WritePostMortem(reason);
  if (path.ok()) {
    std::fprintf(stderr, "eos: post-mortem journal: %s\n", path->c_str());
  }
}

}  // namespace obs
}  // namespace eos
