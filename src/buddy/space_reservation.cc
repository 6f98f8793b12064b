#include "buddy/space_reservation.h"

#include <cstring>
#include <utility>

#include "buddy/segment_allocator.h"
#include "io/pager.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace eos {

namespace {

// Innermost reservation on this thread. Scopes on *different* allocators
// stack via prev_; a scope on the same allocator never registers (it is a
// pass-through), so the chain holds at most one entry per allocator.
thread_local SpaceReservation* g_top = nullptr;

obs::Counter* ReservedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kSpaceReserved);
  return c;
}

obs::Counter* UnwoundCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kSpaceUnwoundExtents);
  return c;
}

}  // namespace

SpaceReservation* SpaceReservation::ActiveFor(
    const SegmentAllocator* allocator) {
  for (SpaceReservation* r = g_top; r != nullptr; r = r->prev_) {
    if (r->allocator_ == allocator) return r;
  }
  return nullptr;
}

SpaceReservation::SpaceReservation(SegmentAllocator* allocator)
    : allocator_(allocator) {
  if (allocator_ == nullptr || ActiveFor(allocator_) != nullptr) {
    settled_ = true;  // pass-through: nothing to commit or unwind
    return;
  }
  active_ = true;
  prev_ = g_top;
  g_top = this;
  ReservedCounter()->Inc();
}

SpaceReservation::~SpaceReservation() {
  if (!settled_) Unwind();
  if (active_) {
    // Unlink; scopes are strictly nested, so this is the top (or an inner
    // same-thread scope already popped itself).
    SpaceReservation** p = &g_top;
    while (*p != nullptr && *p != this) p = &(*p)->prev_;
    if (*p == this) *p = prev_;
  }
}

void SpaceReservation::RecordPageImage(PageId page, const uint8_t* data,
                                       uint32_t len) {
  for (const auto& pre : preimages_) {
    if (pre.first == page) return;  // first image = pre-op state, keep it
  }
  preimages_.emplace_back(page, Bytes(data, data + len));
}

std::vector<Extent> SpaceReservation::Commit() {
  if (!active_ || settled_) return {};
  settled_ = true;
  preimages_.clear();
  tracked_.clear();
  // Unregister so the caller's frees of the returned extents take the
  // normal path instead of parking here again.
  SpaceReservation** p = &g_top;
  while (*p != nullptr && *p != this) p = &(*p)->prev_;
  if (*p == this) *p = prev_;
  active_ = false;
  return std::exchange(parked_frees_, {});
}

void SpaceReservation::Unwind() {
  settled_ = true;
  obs::RecordEvent(obs::EventKind::kReservationUnwind, "space_unwind",
                   tracked_.size(), preimages_.size(), parked_frees_.size(),
                   /*ok=*/false);
  // 1. Put back every index-node page the operation overwrote in place.
  //    The pages are still allocated — their frees (if any) were parked.
  for (const auto& pre : preimages_) {
    allocator_->RestorePageImage(pre.first, pre.second);
  }
  preimages_.clear();
  // 2. Return the operation's own allocations. No durable root references
  //    them, so this bypasses both the reservation and the checkpoint list;
  //    cached frames are dropped so a stale flush can never trample a
  //    future reuse of the page.
  for (size_t i = tracked_.size(); i-- > 0;) {
    Status s = allocator_->FreeForUnwind(tracked_[i]);
    if (!s.ok()) {
      // The buddy maps were unreachable (e.g. a volume outage mid-unwind).
      // No root references the extent, so instead of leaking it waits on
      // the allocator's checkpoint list for the next checkpoint to free it.
      allocator_->DeferUnwindFree(tracked_[i]);
    }
  }
  UnwoundCounter()->Inc(tracked_.size());
  tracked_.clear();
  // 3. Drop parked frees: the pre-op tree still references those pages.
  parked_frees_.clear();
}

}  // namespace eos
