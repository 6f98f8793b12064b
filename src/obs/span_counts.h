#ifndef EOS_OBS_SPAN_COUNTS_H_
#define EOS_OBS_SPAN_COUNTS_H_

#include <cstdint>
#include <memory>

#include "io/io_stats.h"

namespace eos {
namespace obs {

// Per-thread span accounting (DESIGN.md §6, "Spans"). Each thread keeps
// running totals of the quantities a span reports; a span reads them when
// it opens and when it closes and keeps the difference. So a span counts
// the work of its own thread, plus the IoExecutor tasks that thread
// submitted while it was open, and never another client's.

// What a span reports besides its wall time.
struct SpanCounts {
  IoStats io;  // accesses to the device the span names
  uint64_t pager_hits = 0;
  uint64_t pager_misses = 0;
  uint64_t pager_evictions = 0;
  uint64_t buddy_allocs = 0;
  uint64_t buddy_frees = 0;
  uint64_t buddy_coalesces = 0;
  uint64_t reshuffles = 0;
  uint64_t log_records = 0;
};

// The component counters a span reports, in SpanCounts order.
enum class SpanCounter : uint8_t {
  kPagerHits = 0,
  kPagerMisses,
  kPagerEvictions,
  kBuddyAllocs,
  kBuddyFrees,
  kBuddyCoalesces,
  kReshuffles,
  kLogRecords,
};

// Adds `n` to counter `c` of the open span: the calling thread's, or on an
// executor worker the submitting thread's. A no-op outside spans and when
// observability is disabled.
void ChargeSpan(SpanCounter c, uint64_t n = 1);

// PageDevice's accounting hook: charges one access of `pages` pages (and a
// seek, if it was one) when `device` is the device the open span names.
// Stacked devices all account their own accesses; only the named layer
// counts, as a `device->stats()` delta of that layer would.
void ChargeSpanIo(const void* device, bool is_read, uint32_t pages,
                  bool seek);

namespace internal {
struct SpanTotals;
}  // namespace internal

// The calling thread's open span, captured by value when a task is handed
// to the IoExecutor, because thread-locals do not cross into the worker.
// Empty when no span is open. The capture shares ownership of the
// thread's totals, so a task that outlives the span (an abandoned
// read-ahead) never writes freed memory; its charges are dropped once
// the thread's outermost span has closed.
class SpanCharge {
 public:
  static SpanCharge Capture();

 private:
  friend class ScopedSpanCharge;
  std::shared_ptr<internal::SpanTotals> totals_;
  const void* device_ = nullptr;
  uint64_t epoch_ = 0;
};

// Makes the executor worker charge `charge` for the lifetime of the scope
// (one task), then restores the worker's own state.
class ScopedSpanCharge {
 public:
  explicit ScopedSpanCharge(const SpanCharge& charge);
  ~ScopedSpanCharge();

  ScopedSpanCharge(const ScopedSpanCharge&) = delete;
  ScopedSpanCharge& operator=(const ScopedSpanCharge&) = delete;

 private:
  internal::SpanTotals* saved_totals_;
  const void* saved_device_;
  uint64_t saved_epoch_;
};

// The window a ScopedOp measures through. For its lifetime the
// calling thread charges its totals, and accesses to `device` count (a
// null device keeps the enclosing window's); Elapsed() is what was
// charged since construction. Windows nest.
class SpanWindow {
 public:
  explicit SpanWindow(const void* device);
  ~SpanWindow();

  SpanWindow(const SpanWindow&) = delete;
  SpanWindow& operator=(const SpanWindow&) = delete;

  SpanCounts Elapsed() const;

 private:
  internal::SpanTotals* totals_;
  internal::SpanTotals* prev_totals_;
  const void* prev_device_;
  SpanCounts start_;
};

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_SPAN_COUNTS_H_
