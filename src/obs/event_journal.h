#ifndef EOS_OBS_EVENT_JOURNAL_H_
#define EOS_OBS_EVENT_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace eos {
namespace obs {

// What an event records. The numeric args a/b/c are kind-specific; the
// full schema is in DESIGN.md ("Observability", flight recorder).
enum class EventKind : uint8_t {
  kIoBatch = 0,        // a = runs in the batch, b = 0 read / 1 write
  kChecksumFail,       // a = page id
  kQuarantine,         // a = page id
  kReservationUnwind,  // a = extents returned
  kChaosFault,         // a = kind-specific detail (page id, kept pages)
  kCrash,              // simulated power loss
  kFatal,              // a non-recoverable status surfaced; label names it
  kNote,               // free-form marker
};

const char* EventKindName(EventKind k);

// One flight-recorder event. POD-light on purpose: `label` must be a
// static string (operation name, fault name) so recording never allocates.
struct JournalEvent {
  uint64_t seq = 0;   // rank in the journal's time order
  uint64_t t_us = 0;  // on the trace clock, the spans' timeline
  uint32_t tid = 0;   // the recording thread's ring (registration order)
  EventKind kind = EventKind::kNote;
  const char* label = "";
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  bool ok = true;
};

// Flight recorder, a front end of the per-thread TraceRecorder: each
// thread records into its own bounded ring, and MergedEvents() orders the
// rings' events by time and numbers them by rank. Keeps the last
// `per_thread_capacity` events per thread; total_recorded() counts every
// event ever recorded so wraparound is observable. Recording is a single
// branch when observability is disabled, and no ring is ever registered
// on the disabled path.
class EventJournal {
 public:
  static constexpr size_t kDefaultPerThreadCapacity = 1024;

  // The process-wide journal every built-in hook reports to.
  static EventJournal& Default();

  explicit EventJournal(size_t per_thread_capacity = kDefaultPerThreadCapacity)
      : recorder_(per_thread_capacity) {}

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  void Record(EventKind kind, const char* label, uint64_t a = 0,
              uint64_t b = 0, uint64_t c = 0, bool ok = true);

  uint64_t total_recorded() const { return recorder_.total(); }
  size_t threads_seen() const { return recorder_.threads(); }
  size_t per_thread_capacity() const { return recorder_.ring_capacity(); }
  void Clear() { recorder_.Clear(); }

  // All retained events merged across threads, ascending by seq.
  std::vector<JournalEvent> MergedEvents() const { return recorder_.Merge(); }

  // {"version":1,"recorded":N,"dropped":N,"events":[...]}
  JsonValue ToJsonValue() const;

 private:
  TraceRecorder<JournalEvent> recorder_;
};

// Records into the default journal; the hook every component uses.
inline void RecordEvent(EventKind kind, const char* label, uint64_t a = 0,
                        uint64_t b = 0, uint64_t c = 0, bool ok = true) {
  if (!Enabled()) return;
  EventJournal::Default().Record(kind, label, a, b, c, ok);
}

// ----- post-mortem dumps -----------------------------------------------------
//
// On any fatal event — ChaosPageDevice::Crash(), a failed torture
// assertion (tests install a gtest listener), an unrecoverable status —
// the default journal is dumped to
//   <dir>/eos_postmortem.<pid>.<reason>.json
// so every red run ships its own black box. `dir` defaults to
// $EOS_JOURNAL_DIR, else the working directory. The dump bundles the
// default OpTracer's retained spans (the operations before the failure)
// and the EOS_TEST_SEED environment variable, so the run is reproducible
// from the file alone.

void SetPostMortemDir(const std::string& dir);
std::string PostMortemDir();

// Writes the dump and returns its path; no-op NotFound when observability
// is disabled (there is nothing to dump).
StatusOr<std::string> WritePostMortem(const char* reason);

// WritePostMortem + a stderr line with the path; errors are swallowed.
// Safe to call from destructors and failure paths.
void DumpPostMortemBestEffort(const char* reason);

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_EVENT_JOURNAL_H_
