#include "obs/event_journal.h"

#include <unistd.h>

#include "obs/metric_names.h"
#include "obs/op_tracer.h"

#include <cstdio>
#include <cstdlib>

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

namespace {

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

void EventJournal::Record(EventKind kind, const char* label, uint64_t a,
                          uint64_t b, uint64_t c, bool ok) {
  if (!Enabled()) return;
  uint64_t now_ns = TraceClockNs();
  recorder_.Push(JournalEvent{.t_us = now_ns / 1000,
                              .kind = kind,
                              .label = label,
                              .a = a,
                              .b = b,
                              .c = c,
                              .ok = ok},
                 now_ns);
  EventsCounter()->Inc();
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
  EOS_RETURN_IF_ERROR(WriteJsonFile(path, root.Dump()));
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
