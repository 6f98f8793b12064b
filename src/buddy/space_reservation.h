#ifndef EOS_BUDDY_SPACE_RESERVATION_H_
#define EOS_BUDDY_SPACE_RESERVATION_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "io/page_device.h"

namespace eos {

class SegmentAllocator;

// RAII unwind scope for multi-extent mutations (DESIGN.md "Degraded
// operation under resource exhaustion").
//
// While a reservation is active on the current thread, the owning
// allocator routes its traffic through it:
//   * every Allocate/AllocateAtMost success is *tracked*;
//   * every Free is *parked* instead of applied — the extent stays
//     allocated (and its bytes intact) until the operation commits;
//   * in-place index-node overwrites register their pre-images here
//     (NodeStore::Write), so the on-disk tree can be put back exactly.
//
// Commit() ends the scope keeping the new state: tracked extents stay
// allocated (the new tree references them) and the parked frees are handed
// back to the caller, who decides when the old tree's storage may be
// reused (Database: with the superseded version under mvcc, otherwise
// through Free()). Destruction without Commit() unwinds: pre-images are
// written back, tracked extents are returned to the buddy system directly
// (no durable root ever referenced them), and parked frees are dropped
// (the pre-op tree still references those pages). Either way the
// allocation maps account for every page: a mid-operation NoSpace or I/O
// failure leaks nothing.
//
// Scopes nest: an inner reservation on the same allocator is an inert
// pass-through, so composed operations (e.g. Insert falling back to
// Append) unwind as one unit at the outermost scope.
class SpaceReservation {
 public:
  explicit SpaceReservation(SegmentAllocator* allocator);
  ~SpaceReservation();

  SpaceReservation(const SpaceReservation&) = delete;
  SpaceReservation& operator=(const SpaceReservation&) = delete;

  // False for a nested pass-through scope (the outer scope owns unwind).
  bool active() const { return active_; }

  // Keeps the new state and deactivates unwind. Returns the parked frees:
  // the storage only the pre-op tree references. A nested pass-through
  // scope returns none (the outer scope owns them).
  std::vector<Extent> Commit();

  // The reservation observing the current thread's traffic on `allocator`,
  // or nullptr.
  static SpaceReservation* ActiveFor(const SegmentAllocator* allocator);

  // ---- hooks (allocator + node store) --------------------------------------

  void TrackAllocation(const Extent& e) { tracked_.push_back(e); }

  void ParkFree(const Extent& e) { parked_frees_.push_back(e); }

  // Saves the on-disk image of an index-node page about to be overwritten
  // in place; only the first image per page (the pre-op state) is kept.
  void RecordPageImage(PageId page, const uint8_t* data, uint32_t len);

  size_t tracked_extents() const { return tracked_.size(); }
  size_t parked_frees() const { return parked_frees_.size(); }

 private:
  void Unwind();

  SegmentAllocator* allocator_;
  bool active_ = false;
  bool settled_ = false;  // committed or unwound
  SpaceReservation* prev_ = nullptr;  // enclosing scope (other allocators)

  std::vector<Extent> tracked_;
  std::vector<Extent> parked_frees_;
  std::vector<std::pair<PageId, Bytes>> preimages_;
};

}  // namespace eos

#endif  // EOS_BUDDY_SPACE_RESERVATION_H_
