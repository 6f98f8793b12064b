#ifndef EOS_OBS_TRACE_RECORDER_H_
#define EOS_OBS_TRACE_RECORDER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/latch.h"

namespace eos {
namespace obs {

// The trace clock: nanoseconds since the process trace epoch, which the
// first call pins. Spans and journal events are stamped on it, so both
// lie on one timeline.
inline uint64_t TraceClockNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace internal {

// Process-unique recorder ids, which validate the thread-local ring cache.
inline uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

// The recorder behind OpTracer (spans) and EventJournal (events). Each
// thread records into a bounded ring of its own, guarded by a latch only
// that thread and readers take, with a header on a cache line of its own,
// so recording threads never touch each other's memory. A full ring
// overwrites its oldest record; slots are allocated as the ring fills.
// `Record` must have `uint64_t seq` and `uint32_t tid` fields, which
// Merge() fills in.
template <typename Record>
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t ring_capacity)
      : id_(internal::NextRecorderId()),
        cap_(std::max<size_t>(ring_capacity, 1)) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Records `rec`, which ended at `end_ns` on the trace clock, into the
  // calling thread's ring; the thread's first record registers the ring.
  void Push(const Record& rec, uint64_t end_ns) {
    Ring* r = RingForThisThread();
    LatchGuard g(r->latch);
    ++r->recorded;
    if (r->slots.size() < r->cap) {
      r->slots.emplace_back(end_ns, rec);
      return;
    }
    r->slots[r->next] = {end_ns, rec};
    if (++r->next == r->cap) r->next = 0;
  }

  // The newest `keep` retained records of all rings, oldest first: by end
  // time, then ring, then the ring's own order. A record's seq is its rank
  // in that order, counted from the first record since Clear(); its tid is
  // its ring's index, in registration order.
  std::vector<Record> Merge(
      size_t keep = std::numeric_limits<size_t>::max()) const {
    struct Entry {
      uint64_t end_ns;
      uint32_t ring;
      Record rec;
    };
    std::vector<Entry> all;
    uint64_t total = 0;
    {
      LatchGuard g(latch_);
      for (size_t i = 0; i < rings_.size(); ++i) {
        const Ring& r = *rings_[i];
        LatchGuard rg(r.latch);
        total += r.recorded;
        size_t n = r.slots.size();
        for (size_t k = 0; k < n; ++k) {  // oldest first
          const auto& [end_ns, rec] = r.slots[(r.next + k) % n];
          all.push_back(Entry{end_ns, static_cast<uint32_t>(i), rec});
        }
      }
    }
    // A thread's records end in its recording order, so a stable sort by
    // (end time, ring) keeps each ring's order.
    std::stable_sort(all.begin(), all.end(),
                     [](const Entry& a, const Entry& b) {
                       return std::tie(a.end_ns, a.ring) <
                              std::tie(b.end_ns, b.ring);
                     });
    keep = std::min(keep, all.size());
    std::vector<Record> out;
    out.reserve(keep);
    uint64_t seq = total - keep;
    for (auto it = all.end() - keep; it != all.end(); ++it) {
      out.push_back(it->rec);
      out.back().seq = ++seq;
      out.back().tid = it->ring;
    }
    return out;
  }

  // Empties every ring and restarts the numbering.
  void Clear() {
    LatchGuard g(latch_);
    for (const auto& r : rings_) {
      LatchGuard rg(r->latch);
      r->slots.clear();
      r->next = 0;
      r->recorded = 0;
    }
  }

  // Sets every ring's capacity (>= 1) and drops what the rings retain;
  // total() still counts the dropped records.
  void SetRingCapacity(size_t ring_capacity) {
    LatchGuard g(latch_);
    cap_ = std::max<size_t>(ring_capacity, 1);
    for (const auto& r : rings_) {
      LatchGuard rg(r->latch);
      r->cap = cap_;
      r->slots.clear();
      r->slots.shrink_to_fit();
      r->next = 0;
    }
  }

  size_t ring_capacity() const {
    LatchGuard g(latch_);
    return cap_;
  }

  // Records ever pushed since Clear(), wrapped-over ones included.
  uint64_t total() const {
    LatchGuard g(latch_);
    uint64_t total = 0;
    for (const auto& r : rings_) {
      LatchGuard rg(r->latch);
      total += r->recorded;
    }
    return total;
  }

  // Threads that have recorded (rings registered).
  size_t threads() const {
    LatchGuard g(latch_);
    return rings_.size();
  }

 private:
  struct alignas(64) Ring {
    explicit Ring(size_t cap_in) : cap(cap_in) {}

    mutable Latch latch;
    size_t cap;
    std::vector<std::pair<uint64_t, Record>> slots;  // (end_ns, record)
    size_t next = 0;        // the oldest slot, once the ring is full
    uint64_t recorded = 0;  // records pushed here since Clear()
  };

  Ring* RingForThisThread() {
    // One-entry cache per record type: hooks report to the default tracer
    // and journal, so a thread takes the registration latch once for each.
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

  const uint64_t id_;
  mutable Latch latch_;  // guards cap_ and ring registration
  size_t cap_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::unordered_map<std::thread::id, Ring*> by_thread_;
};

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_TRACE_RECORDER_H_
