#ifndef EOS_BUDDY_SEGMENT_ALLOCATOR_H_
#define EOS_BUDDY_SEGMENT_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "buddy/buddy_space.h"
#include "buddy/geometry.h"
#include "buddy/space_reservation.h"
#include "common/bytes.h"
#include "common/latch.h"
#include "common/status.h"
#include "io/pager.h"
#include "obs/metrics.h"

namespace eos {

// Per-space free-list summary for fragmentation reporting.
struct SpaceReport {
  uint32_t space = 0;
  std::vector<uint32_t> free_counts;  // free_counts[t] segments of 2^t pages
  uint64_t free_pages = 0;
  int max_free_type = -1;
};

// Volume-level free-space shape, the aging signal of DESIGN.md §12: a
// fresh volume keeps its free space in a few maximal segments (entropy
// near 0, large mean); weeks of churn shatter it across every size class
// (entropy toward 1, mean toward one page), which is what forces future
// allocations to scatter and read costs to drift off the §4 model.
struct FragmentationStats {
  uint64_t free_pages = 0;
  uint64_t free_segments = 0;       // free-list entries across all spaces
  uint64_t largest_free_pages = 0;  // size of the largest free segment
  double mean_free_pages = 0.0;     // free_pages / free_segments
  // Shannon entropy of the free-segment size-class histogram, normalized
  // by log2(max_type + 1) into [0, 1]. 0 when free space sits in a single
  // size class (or there is none).
  double free_entropy = 0.0;
};

// Volume-level segment allocation across many buddy spaces (Section 3.3).
//
// Spaces are laid out back to back starting at `first_space_page`; each is
// one directory page followed by geometry.space_pages data pages. A
// main-memory *superdirectory* remembers (a possibly optimistic upper bound
// on) the largest free segment in each space, so allocation requests skip
// spaces that cannot possibly satisfy them. The superdirectory starts
// optimistic and self-corrects on first contact with each space, exactly as
// described in the paper; it is protected by a short-duration latch, not a
// transaction lock.
class SegmentAllocator {
 public:
  struct Options {
    uint32_t initial_spaces = 1;
    // When true, Allocate() appends a new space to the volume instead of
    // failing with NoSpace.
    bool auto_grow = true;
    // Pages held back from ordinary allocations so maintenance work (WAL
    // append, directory save, checkpoint) can always complete on a full
    // volume. Ordinary Allocate() calls refuse with NoSpace rather than
    // dip below this floor; an EmergencyScope on the calling thread may
    // consume the reserve. 0 disables the floor.
    uint32_t emergency_reserve_pages = 0;
    // Start each allocation scan at a rotating space index instead of
    // space 0. On a volume set — where consecutive spaces live on
    // different volumes — this stripes objects across members instead of
    // packing them onto the first volume. Off by default so single-volume
    // layouts (and the cost-model conformance suite) are unchanged.
    bool rotate_spaces = false;
    // Crash-safe volumes ([Lehm89]'s release locks at volume scope,
    // Section 4.5): Free() parks every extent on the checkpoint list, so
    // no page a durable root can reach is reused before the next
    // checkpoint makes a newer root durable.
    bool crash_safe = false;
  };

  // While one of these is live on the current thread, allocations may dip
  // into the emergency reserve. Used by the maintenance paths that must
  // make progress precisely when user mutations are being refused.
  class EmergencyScope {
   public:
    EmergencyScope() { ++Depth(); }
    ~EmergencyScope() { --Depth(); }
    EmergencyScope(const EmergencyScope&) = delete;
    EmergencyScope& operator=(const EmergencyScope&) = delete;
    static bool active() { return Depth() > 0; }

   private:
    static int& Depth() {
      thread_local int depth = 0;
      return depth;
    }
  };

  // Formats `options.initial_spaces` fresh spaces (growing the device as
  // needed) and returns an allocator over them.
  static StatusOr<std::unique_ptr<SegmentAllocator>> Format(
      Pager* pager, const BuddyGeometry& geo, PageId first_space_page,
      const Options& options);

  // Attaches to `num_spaces` previously formatted spaces.
  static StatusOr<std::unique_ptr<SegmentAllocator>> Attach(
      Pager* pager, const BuddyGeometry& geo, PageId first_space_page,
      uint32_t num_spaces, const Options& options);

  // Allocates exactly `npages` physically contiguous pages
  // (1 <= npages <= 2^k).
  StatusOr<Extent> Allocate(uint32_t npages);

  // Allocates the largest available contiguous run of at most `npages`
  // pages without growing the volume; NoSpace only if the volume is full.
  StatusOr<Extent> AllocateAtMost(uint32_t npages);

  // Frees an extent or any sub-range of one (used to trim segments with
  // one-page precision, Section 4.1). Inside a SpaceReservation the free is
  // parked on the reservation; on a crash-safe allocator it waits on the
  // checkpoint list.
  Status Free(const Extent& extent);

  // Free() of each extent, for a caller that no longer references any of
  // them: one whose free fails waits on the checkpoint list instead of
  // leaking. Returns the first failure.
  Status FreeAll(const std::vector<Extent>& extents);

  uint32_t num_spaces() const { return num_spaces_; }
  const BuddyGeometry& geometry() const { return geo_; }
  uint32_t pages_per_space() const { return geo_.space_pages + 1; }

  // Volume page of space i's directory.
  PageId DirPage(uint32_t space) const {
    return first_space_page_ + uint64_t{space} * pages_per_space();
  }

  StatusOr<uint64_t> TotalFreePages();
  Status CheckInvariants();

  // Free pages from the in-memory counter — no directory I/O, safe on the
  // admission-control hot path. Tracks TryAllocate/Free exactly; parked
  // (reservation or checkpoint-list) frees count as allocated until
  // applied.
  uint64_t free_pages_fast() const;

  // The emergency floor (Options::emergency_reserve_pages, adjustable at
  // runtime). Admission control refuses ordinary mutations once
  // free_pages_fast() can no longer stay above it.
  uint32_t emergency_reserve_pages() const;
  void set_emergency_reserve_pages(uint32_t pages);

  // Admission probe for new mutations: OK while at least `headroom` pages
  // beyond the emergency reserve are free (growing the volume if allowed
  // and needed), typed NoSpace otherwise.
  Status AdmitMutation(uint32_t headroom = 1);

  // ---- test hooks (exhaustion torture) -------------------------------------

  // Fails the k-th subsequent Allocate/AllocateAtMost call (0 = the next)
  // with typed NoSpace, then disarms. -1 disarms immediately. The torture
  // harness enumerates k over a workload's alloc_calls() to visit every
  // allocation site.
  void set_alloc_fault_countdown(int64_t k);
  uint64_t alloc_calls() const;

  // Crash-recovery rebuild: reformats every space (all pages free) and
  // re-allocates exactly the extents in `live`. After a crash the on-disk
  // allocation maps may be torn or stale, but the object trees — walked
  // from the recovered roots — say precisely which pages are in use, so
  // reachability is the ground truth the maps are rebuilt from. Extents
  // that overlap each other are rejected as corruption. Empties the
  // checkpoint list: the rebuild already reclaimed everything on it.
  Status WipeAndRebuild(const std::vector<Extent>& live);

  // Fragmentation snapshot of every space.
  StatusOr<std::vector<SpaceReport>> Report();

  // Aggregates Report() into the volume-level free-space shape and mirrors
  // it into the frag.* gauges (free pages, segment count, entropy).
  StatusOr<FragmentationStats> FragStats();

  // True iff every page of `extent` is currently allocated — the deep
  // integrity check uses this to verify that index/leaf references point
  // at storage the buddy system actually considers live.
  StatusOr<bool> IsAllocated(const Extent& extent);

  // ---- the checkpoint list --------------------------------------------------

  // Extents that stay allocated until the next checkpoint: every free of a
  // crash-safe allocator, and any extent whose free failed (its buddy
  // directory page was unreachable, e.g. during a volume outage). No root
  // references them, so each must eventually reach the buddy maps.
  // LeakCheck counts them as reachable.

  // Parks an extent a reservation unwind could not return.
  void DeferUnwindFree(const Extent& extent) { ParkUntilCheckpoint(extent); }

  // Returns the parked extents to the buddy maps, in parking order. The
  // caller has made every root that could reach them durably superseded.
  // On a failed free, that extent and every one behind it stay parked for
  // the next attempt.
  Status ReleaseCheckpointFrees();

  // A copy of the list, for LeakCheck.
  std::vector<Extent> checkpoint_frees() const;

  // Telemetry for the superdirectory experiment (E3): how many space
  // directories have been examined by allocation requests.
  uint64_t directory_visits() const { return directory_visits_; }
  void ResetDirectoryVisits() { directory_visits_ = 0; }

  // Disables the superdirectory (every allocation probes spaces in order),
  // for the ablation bench.
  void set_use_superdirectory(bool use) { use_superdirectory_ = use; }

  Pager* pager() { return pager_; }

 private:
  friend class SpaceReservation;

  // Unwind path of SpaceReservation: frees an extent immediately, skipping
  // the reservation and the checkpoint list (no durable root ever
  // referenced it).
  Status FreeForUnwind(const Extent& extent);

  // Unwind path of SpaceReservation: rewrites a page from its saved image.
  void RestorePageImage(PageId page, const Bytes& image);

  void ParkUntilCheckpoint(const Extent& extent);

  // The latched buddy free behind Free(), FreeForUnwind() and
  // ReleaseCheckpointFrees(); drops the pages' cached frames once they are
  // free.
  Status FreeInternal(const Extent& extent);

  // Counts the call and fires the armed test fault, if any (under op_latch_).
  Status TickAllocFault();

  // Typed NoSpace when granting `npages` would dip below the emergency
  // reserve and the volume cannot grow (under op_latch_).
  Status EnforceReserve(uint32_t npages);
  SegmentAllocator(Pager* pager, const BuddyGeometry& geo,
                   PageId first_space_page, uint32_t num_spaces,
                   const Options& options);

  BuddySpace Space(uint32_t i) { return BuddySpace(pager_, DirPage(i), geo_); }

  // Maps a volume page to (space index, local page); fails if the page is
  // a directory page or outside any space.
  Status Locate(PageId page, uint32_t* space, uint32_t* local) const;

  Status AddSpace();
  StatusOr<Extent> TryAllocate(uint32_t npages);
  Status RefreshHint(uint32_t space);

  Pager* pager_;
  BuddyGeometry geo_;
  PageId first_space_page_;
  uint32_t num_spaces_;
  Options options_;
  bool use_superdirectory_ = true;

  // hint_[i] = upper bound on the max free type in space i; kUnknown is the
  // optimistic initial value ("maybe a maximal segment is free").
  static constexpr int8_t kFull = -1;
  std::vector<int8_t> hints_;
  Latch superdir_latch_;
  uint64_t directory_visits_ = 0;
  uint64_t rotate_cursor_ = 0;  // under op_latch_ (rotate_spaces placer)
  Latch op_latch_;  // serializes allocator operations
  mutable Latch checkpoint_frees_latch_;
  std::vector<Extent> checkpoint_frees_;
  // Atomics so the const accessors need no latch; mutations happen under
  // op_latch_ (or before the allocator is shared).
  std::atomic<int64_t> free_pages_fast_{0};
  uint32_t emergency_reserve_pages_ = 0;
  std::atomic<int64_t> alloc_fault_countdown_{-1};  // -1 = disarmed
  std::atomic<uint64_t> alloc_calls_{0};

  // Process-wide metric mirrors (stable registry pointers, looked up once).
  obs::Counter* m_alloc_;
  obs::Counter* m_free_;
  obs::Counter* m_free_deferred_;
  obs::Counter* m_space_added_;
  obs::Counter* m_refused_;
  obs::Counter* m_dir_visit_;
  obs::Histogram* m_alloc_pages_;
  obs::Gauge* m_free_pages_;
  obs::Gauge* m_managed_pages_;
};

}  // namespace eos

#endif  // EOS_BUDDY_SEGMENT_ALLOCATOR_H_
