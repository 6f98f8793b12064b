#ifndef EOS_OBS_EVENT_JOURNAL_H_
#define EOS_OBS_EVENT_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"

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
  uint64_t seq = 0;   // global order across all threads
  uint64_t t_us = 0;  // microseconds since the journal's epoch
  uint32_t tid = 0;   // per-journal thread index (registration order)
  EventKind kind = EventKind::kNote;
  const char* label = "";
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  bool ok = true;
};

// Lock-light flight recorder: each thread records into its own bounded
// ring (one uncontended latch per ring, so writers never queue behind each
// other), and a global relaxed-atomic sequence number makes the merged
// order reconstructible. Keeps the last `per_thread_capacity` events per
// thread; total_recorded() counts every event ever recorded so wraparound
// is observable. Recording is a single branch when observability is
// disabled, and nothing — no ring, no sequence advance — is ever
// allocated on the disabled path.
class EventJournal {
 public:
  static constexpr size_t kDefaultPerThreadCapacity = 1024;

  // The process-wide journal every built-in hook reports to.
  static EventJournal& Default();

  explicit EventJournal(size_t per_thread_capacity = kDefaultPerThreadCapacity);
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  void Record(EventKind kind, const char* label, uint64_t a = 0,
              uint64_t b = 0, uint64_t c = 0, bool ok = true);

  uint64_t total_recorded() const;
  size_t threads_seen() const;
  size_t per_thread_capacity() const { return cap_; }
  void Clear();

  // All retained events merged across threads, ascending by seq.
  std::vector<JournalEvent> MergedEvents() const;

  // {"version":1,"recorded":N,"dropped":N,"events":[...]}
  JsonValue ToJsonValue() const;

 private:
  struct Ring;

  Ring* RingForThisThread();

  const size_t cap_;
  const uint64_t id_;  // process-unique, validates the thread-local cache
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> seq_{0};

  mutable Latch latch_;  // guards rings_/by_thread_ registration
  std::vector<std::unique_ptr<Ring>> rings_;
  std::unordered_map<std::thread::id, Ring*> by_thread_;
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
