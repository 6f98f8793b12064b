#include "obs/span_counts.h"

#include <atomic>

#include "obs/metrics.h"

namespace eos {
namespace obs {

namespace internal {

// One thread's running totals. The owner and the executor workers running
// its tasks add into them, so the fields are atomics; nothing else writes
// them, and the block sits on cache lines of its own.
struct alignas(64) SpanTotals {
  // IoStats fields first, then the SpanCounter fields in enum order.
  static constexpr int kReadCalls = 0, kWriteCalls = 1, kPagesRead = 2,
                       kPagesWritten = 3, kSeeks = 4, kCounters = 5,
                       kFields = kCounters + 8;

  void Add(int field, uint64_t n) {
    v[field].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Get(int field) const {
    return v[field].load(std::memory_order_relaxed);
  }

  std::atomic<uint64_t> v[kFields] = {};
  // Advances each time the owner's outermost window closes; a task
  // captured under an older epoch no longer charges.
  std::atomic<uint64_t> epoch{1};
};

}  // namespace internal

namespace {

using internal::SpanTotals;

// Where the calling thread's charges go. `totals` is set while a window is
// open on the owner, or while a worker runs a captured task; `epoch` is 0
// on the owner and the captured epoch on a worker.
struct ThreadCharge {
  SpanTotals* totals = nullptr;
  const void* device = nullptr;
  uint64_t epoch = 0;
};

thread_local ThreadCharge t_charge;

std::shared_ptr<SpanTotals>& OwnTotals() {
  thread_local std::shared_ptr<SpanTotals> own;
  if (own == nullptr) own = std::make_shared<SpanTotals>();
  return own;
}

// The totals to charge now, or null: nothing is open, or this is a task
// whose span has closed.
SpanTotals* ChargeTarget() {
  const ThreadCharge& t = t_charge;
  if (t.totals == nullptr) return nullptr;
  if (t.epoch != 0 &&
      t.totals->epoch.load(std::memory_order_relaxed) != t.epoch) {
    return nullptr;
  }
  return t.totals;
}

// Built by aggregate initialization, field by field, so no zeroing pass
// precedes the loads: a window reads these twice per span.
SpanCounts Read(const SpanTotals& t) {
  auto counter = [&](SpanCounter k) {
    return t.Get(SpanTotals::kCounters + static_cast<int>(k));
  };
  return SpanCounts{
      IoStats{t.Get(SpanTotals::kReadCalls), t.Get(SpanTotals::kWriteCalls),
              t.Get(SpanTotals::kPagesRead), t.Get(SpanTotals::kPagesWritten),
              t.Get(SpanTotals::kSeeks)},
      counter(SpanCounter::kPagerHits),
      counter(SpanCounter::kPagerMisses),
      counter(SpanCounter::kPagerEvictions),
      counter(SpanCounter::kBuddyAllocs),
      counter(SpanCounter::kBuddyFrees),
      counter(SpanCounter::kBuddyCoalesces),
      counter(SpanCounter::kReshuffles),
      counter(SpanCounter::kLogRecords)};
}

}  // namespace

void ChargeSpan(SpanCounter c, uint64_t n) {
  if (!Enabled()) return;
  if (SpanTotals* t = ChargeTarget()) {
    t->Add(SpanTotals::kCounters + static_cast<int>(c), n);
  }
}

void ChargeSpanIo(const void* device, bool is_read, uint32_t pages,
                  bool seek) {
  if (!Enabled() || t_charge.device != device) return;
  SpanTotals* t = ChargeTarget();
  if (t == nullptr) return;
  t->Add(is_read ? SpanTotals::kReadCalls : SpanTotals::kWriteCalls, 1);
  t->Add(is_read ? SpanTotals::kPagesRead : SpanTotals::kPagesWritten, pages);
  if (seek) t->Add(SpanTotals::kSeeks, 1);
}

SpanCharge SpanCharge::Capture() {
  SpanCharge c;
  const ThreadCharge& t = t_charge;
  // Only the owner of an open window captures; a task does not submit.
  if (t.totals == nullptr || t.epoch != 0) return c;
  c.totals_ = OwnTotals();
  c.device_ = t.device;
  c.epoch_ = t.totals->epoch.load(std::memory_order_relaxed);
  return c;
}

ScopedSpanCharge::ScopedSpanCharge(const SpanCharge& charge)
    : saved_totals_(t_charge.totals),
      saved_device_(t_charge.device),
      saved_epoch_(t_charge.epoch) {
  t_charge = ThreadCharge{charge.totals_.get(), charge.device_,
                          charge.epoch_};
}

ScopedSpanCharge::~ScopedSpanCharge() {
  t_charge = ThreadCharge{saved_totals_, saved_device_, saved_epoch_};
}

SpanWindow::SpanWindow(const void* device)
    : prev_totals_(t_charge.totals), prev_device_(t_charge.device) {
  ThreadCharge& t = t_charge;
  if (t.totals == nullptr) t.totals = OwnTotals().get();
  if (device != nullptr) t.device = device;
  totals_ = t.totals;
  start_ = Read(*totals_);
}

SpanWindow::~SpanWindow() {
  ThreadCharge& t = t_charge;
  if (prev_totals_ == nullptr && t.epoch == 0) {
    // The owner's outermost window: tasks it left running stop charging.
    totals_->epoch.store(totals_->epoch.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }
  t.totals = prev_totals_;
  t.device = prev_device_;
}

SpanCounts SpanWindow::Elapsed() const {
  SpanCounts now = Read(*totals_);
  return SpanCounts{now.io - start_.io,
                    now.pager_hits - start_.pager_hits,
                    now.pager_misses - start_.pager_misses,
                    now.pager_evictions - start_.pager_evictions,
                    now.buddy_allocs - start_.buddy_allocs,
                    now.buddy_frees - start_.buddy_frees,
                    now.buddy_coalesces - start_.buddy_coalesces,
                    now.reshuffles - start_.reshuffles,
                    now.log_records - start_.log_records};
}

}  // namespace obs
}  // namespace eos
