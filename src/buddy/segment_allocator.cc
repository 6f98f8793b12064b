#include "buddy/segment_allocator.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/metric_names.h"

namespace eos {

SegmentAllocator::SegmentAllocator(Pager* pager, const BuddyGeometry& geo,
                                   PageId first_space_page,
                                   uint32_t num_spaces, const Options& options)
    : pager_(pager),
      geo_(geo),
      first_space_page_(first_space_page),
      num_spaces_(num_spaces),
      options_(options),
      // Optimistic initial hints: each space may hold a maximal segment.
      hints_(num_spaces, static_cast<int8_t>(geo.max_type)) {
  emergency_reserve_pages_ = options.emergency_reserve_pages;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_alloc_ = reg.counter(obs::kBuddyAlloc);
  m_free_ = reg.counter(obs::kBuddyFree);
  m_free_deferred_ = reg.counter(obs::kBuddyFreeDeferred);
  m_space_added_ = reg.counter(obs::kBuddySpaceAdded);
  m_refused_ = reg.counter(obs::kSpaceRefused);
  m_dir_visit_ = reg.counter(obs::kBuddyDirectoryVisit);
  m_alloc_pages_ = reg.histogram(obs::kBuddyAllocPages);
  m_free_pages_ = reg.gauge(obs::kBuddyFreePages);
  m_managed_pages_ = reg.gauge(obs::kBuddyManagedPages);
}

StatusOr<std::unique_ptr<SegmentAllocator>> SegmentAllocator::Format(
    Pager* pager, const BuddyGeometry& geo, PageId first_space_page,
    const Options& options) {
  uint32_t n = options.initial_spaces == 0 ? 1 : options.initial_spaces;
  std::unique_ptr<SegmentAllocator> alloc(
      new SegmentAllocator(pager, geo, first_space_page, 0, options));
  for (uint32_t i = 0; i < n; ++i) {
    EOS_RETURN_IF_ERROR(alloc->AddSpace());
  }
  return alloc;
}

StatusOr<std::unique_ptr<SegmentAllocator>> SegmentAllocator::Attach(
    Pager* pager, const BuddyGeometry& geo, PageId first_space_page,
    uint32_t num_spaces, const Options& options) {
  if (num_spaces == 0) {
    return Status::InvalidArgument("volume has no buddy spaces");
  }
  std::unique_ptr<SegmentAllocator> alloc(
      new SegmentAllocator(pager, geo, first_space_page, num_spaces, options));
  // Verify every directory is present and well-formed, seeding the free-page
  // gauges from the on-disk counts as we go.
  for (uint32_t i = 0; i < num_spaces; ++i) {
    EOS_ASSIGN_OR_RETURN(std::vector<uint32_t> counts,
                         alloc->Space(i).Counts());
    int64_t free_pages = 0;
    for (uint32_t t = 0; t < counts.size(); ++t) {
      free_pages += int64_t{counts[t]} << t;
    }
    alloc->m_managed_pages_->Add(geo.space_pages);
    alloc->m_free_pages_->Add(free_pages);
    alloc->free_pages_fast_.fetch_add(free_pages, std::memory_order_relaxed);
  }
  return alloc;
}

Status SegmentAllocator::AddSpace() {
  PageId end = DirPage(num_spaces_) + pages_per_space();
  if (end > pager_->device()->page_count()) {
    EOS_RETURN_IF_ERROR(pager_->device()->Grow(end));
  }
  EOS_RETURN_IF_ERROR(
      BuddySpace(pager_, DirPage(num_spaces_), geo_).Format());
  ++num_spaces_;
  {
    LatchGuard g(superdir_latch_);
    hints_.push_back(static_cast<int8_t>(geo_.max_type));
  }
  m_space_added_->Inc();
  m_managed_pages_->Add(geo_.space_pages);
  m_free_pages_->Add(geo_.space_pages);
  free_pages_fast_.fetch_add(geo_.space_pages, std::memory_order_relaxed);
  return Status::OK();
}

Status SegmentAllocator::RefreshHint(uint32_t space) {
  EOS_ASSIGN_OR_RETURN(int t, Space(space).MaxFreeType());
  LatchGuard g(superdir_latch_);
  hints_[space] = static_cast<int8_t>(t);
  return Status::OK();
}

StatusOr<Extent> SegmentAllocator::TryAllocate(uint32_t npages) {
  uint32_t t_need = CeilLog2(npages);
  // With rotate_spaces on, each allocation starts its scan one space
  // further along, so equal-preference spaces (and, on a volume set, the
  // volumes hosting them) fill round-robin instead of first-fit.
  uint32_t start =
      options_.rotate_spaces && num_spaces_ > 0
          ? static_cast<uint32_t>(rotate_cursor_++ % num_spaces_)
          : 0;
  for (uint32_t k = 0; k < num_spaces_; ++k) {
    uint32_t i = (start + k) % num_spaces_;
    if (use_superdirectory_) {
      int8_t hint;
      {
        LatchGuard g(superdir_latch_);
        hint = hints_[i];
      }
      // Skip spaces that cannot possibly hold a segment this large. The
      // hint is an upper bound, so a skip is always safe; a visit may
      // discover the hint was optimistic and correct it.
      if (hint < static_cast<int8_t>(t_need)) continue;
    }
    ++directory_visits_;
    m_dir_visit_->Inc();
    auto r = Space(i).Allocate(npages);
    if (r.ok()) {
      if (!RefreshHint(i).ok()) {
        // The allocation already succeeded; failing now would leak the
        // extent. Keep the optimistic bound instead.
        LatchGuard h(superdir_latch_);
        hints_[i] = static_cast<int8_t>(geo_.max_type);
      }
      m_alloc_->Inc();
      m_alloc_pages_->Record(npages);
      m_free_pages_->Add(-int64_t{npages});
      free_pages_fast_.fetch_sub(npages, std::memory_order_relaxed);
      Extent e{DirPage(i) + 1 + r.value(), npages};
      if (SpaceReservation* res = SpaceReservation::ActiveFor(this)) {
        res->TrackAllocation(e);
      }
      return e;
    }
    if (!r.status().IsNoSpace()) return r.status();
    EOS_RETURN_IF_ERROR(RefreshHint(i));  // first wrong guess corrects it
  }
  return Status::NoSpace("no space can satisfy " + std::to_string(npages) +
                         " contiguous pages");
}

Status SegmentAllocator::TickAllocFault() {
  alloc_calls_.fetch_add(1, std::memory_order_relaxed);
  int64_t k = alloc_fault_countdown_.load(std::memory_order_relaxed);
  if (k < 0) return Status::OK();
  alloc_fault_countdown_.store(k - 1, std::memory_order_relaxed);
  if (k == 0) return Status::NoSpace("injected allocation fault");
  return Status::OK();
}

// Refuses the request (typed NoSpace) if satisfying it would leave fewer
// than the emergency reserve free, growing the volume first when allowed.
// Threads inside an EmergencyScope may consume the reserve.
Status SegmentAllocator::EnforceReserve(uint32_t npages) {
  if (emergency_reserve_pages_ == 0 || EmergencyScope::active()) {
    return Status::OK();
  }
  int64_t need = int64_t{npages} + emergency_reserve_pages_;
  if (free_pages_fast_.load(std::memory_order_relaxed) >= need) {
    return Status::OK();
  }
  if (options_.auto_grow) {
    (void)AddSpace();  // a grow failure just means the floor check decides
    if (free_pages_fast_.load(std::memory_order_relaxed) >= need) {
      return Status::OK();
    }
  }
  m_refused_->Inc();
  return Status::NoSpace(
      "allocation of " + std::to_string(npages) +
      " pages would breach the emergency reserve (" +
      std::to_string(emergency_reserve_pages_) + " pages held back)");
}

StatusOr<Extent> SegmentAllocator::Allocate(uint32_t npages) {
  if (npages == 0 || npages > geo_.max_segment_pages()) {
    return Status::InvalidArgument(
        "segment size must be in [1, " +
        std::to_string(geo_.max_segment_pages()) + "] pages");
  }
  LatchGuard g(op_latch_);
  EOS_RETURN_IF_ERROR(TickAllocFault());
  EOS_RETURN_IF_ERROR(EnforceReserve(npages));
  auto r = TryAllocate(npages);
  if (r.ok() || !r.status().IsNoSpace() || !options_.auto_grow) return r;
  EOS_RETURN_IF_ERROR(AddSpace());
  return TryAllocate(npages);
}

StatusOr<Extent> SegmentAllocator::AllocateAtMost(uint32_t npages) {
  if (npages == 0) return Status::InvalidArgument("zero-page allocation");
  if (npages > geo_.max_segment_pages()) npages = geo_.max_segment_pages();
  LatchGuard g(op_latch_);
  EOS_RETURN_IF_ERROR(TickAllocFault());
  EOS_RETURN_IF_ERROR(EnforceReserve(1));
  auto exact = TryAllocate(npages);
  if (exact.ok() || !exact.status().IsNoSpace()) return exact;
  // Find the space with the largest free segment and take that.
  int best_t = -1;
  for (uint32_t i = 0; i < num_spaces_; ++i) {
    EOS_RETURN_IF_ERROR(RefreshHint(i));
    LatchGuard h(superdir_latch_);
    if (hints_[i] > best_t) best_t = hints_[i];
  }
  if (best_t < 0) return Status::NoSpace("volume is full");
  return TryAllocate(uint32_t{1} << best_t);
}

Status SegmentAllocator::Locate(PageId page, uint32_t* space,
                                uint32_t* local) const {
  if (page < first_space_page_) {
    return Status::InvalidArgument("page below first buddy space");
  }
  uint64_t rel = page - first_space_page_;
  uint64_t s = rel / pages_per_space();
  uint64_t off = rel % pages_per_space();
  if (s >= num_spaces_ || off == 0) {
    return Status::InvalidArgument("page " + std::to_string(page) +
                                   " is not a data page of any space");
  }
  *space = static_cast<uint32_t>(s);
  *local = static_cast<uint32_t>(off - 1);
  return Status::OK();
}

Status SegmentAllocator::Free(const Extent& extent) {
  if (!extent.valid()) return Status::InvalidArgument("invalid extent");
  if (SpaceReservation* res = SpaceReservation::ActiveFor(this)) {
    // Parked: the extent stays allocated until the guarded operation
    // commits (the free then replays through this path) or unwinds (the
    // free is dropped — the pre-op tree still references these pages).
    res->ParkFree(extent);
    m_free_deferred_->Inc();
    return Status::OK();
  }
  if (free_interceptor_ != nullptr &&
      free_interceptor_->InterceptFree(extent)) {
    // Deferred: the segment stays allocated under a release lock until the
    // owning transaction commits.
    m_free_deferred_->Inc();
    return Status::OK();
  }
  return FreeInternal(extent);
}

Status SegmentAllocator::FreeForUnwind(const Extent& extent) {
  if (!extent.valid()) return Status::InvalidArgument("invalid extent");
  return FreeInternal(extent);
}

void SegmentAllocator::RestorePageImage(PageId page, const Bytes& image) {
  auto h = pager_->Zeroed(page);
  if (!h.ok()) return;  // unwind is best-effort on I/O failure
  std::memcpy(h.value().data(), image.data(), image.size());
  h.value().MarkDirty();
}

Status SegmentAllocator::FreeInternal(const Extent& extent) {
  LatchGuard g(op_latch_);
  uint32_t space, local;
  EOS_RETURN_IF_ERROR(Locate(extent.first, &space, &local));
  uint32_t space_end, local_end;
  EOS_RETURN_IF_ERROR(Locate(extent.first + extent.pages - 1, &space_end,
                             &local_end));
  if (space_end != space) {
    return Status::InvalidArgument("extent spans buddy spaces");
  }
  EOS_RETURN_IF_ERROR(Space(space).Free(local, extent.pages));
  // The pages are free from here on: drop their cached frames, dirty or
  // not, so a stale frame flushed later cannot trample whatever reuses
  // them. Not any earlier: while a free is parked, a dirty frame (not yet
  // written back, or its write-through failed behind a volume outage) is
  // the only good copy of a page a pinned snapshot may still read.
  for (uint32_t i = 0; i < extent.pages; ++i) {
    pager_->Invalidate(extent.first + i);
  }
  m_free_->Inc();
  m_free_pages_->Add(extent.pages);
  free_pages_fast_.fetch_add(extent.pages, std::memory_order_relaxed);
  // The free is applied above; the hint is only a search accelerator.
  // Reporting a refresh failure (dir page unreachable during a volume
  // outage) would make callers re-queue an extent that IS free, and the
  // next drain would double-free it into someone's live allocation. Fall
  // back to the optimistic bound — the next visit corrects it.
  if (!RefreshHint(space).ok()) {
    LatchGuard h(superdir_latch_);
    hints_[space] = static_cast<int8_t>(geo_.max_type);
  }
  return Status::OK();
}

uint64_t SegmentAllocator::free_pages_fast() const {
  int64_t v = free_pages_fast_.load(std::memory_order_relaxed);
  return v < 0 ? 0 : static_cast<uint64_t>(v);
}

uint32_t SegmentAllocator::emergency_reserve_pages() const {
  return emergency_reserve_pages_;
}

void SegmentAllocator::set_emergency_reserve_pages(uint32_t pages) {
  emergency_reserve_pages_ = pages;
}

Status SegmentAllocator::AdmitMutation(uint32_t headroom) {
  if (emergency_reserve_pages_ == 0) return Status::OK();
  int64_t need = int64_t{emergency_reserve_pages_} + headroom;
  if (free_pages_fast_.load(std::memory_order_relaxed) >= need) {
    return Status::OK();
  }
  if (options_.auto_grow) {
    LatchGuard g(op_latch_);
    if (free_pages_fast_.load(std::memory_order_relaxed) < need) {
      (void)AddSpace();
    }
  }
  if (free_pages_fast_.load(std::memory_order_relaxed) >= need) {
    return Status::OK();
  }
  m_refused_->Inc();
  return Status::NoSpace(
      "volume exhausted: free pages at or below the emergency reserve (" +
      std::to_string(emergency_reserve_pages_) + ")");
}

void SegmentAllocator::set_alloc_fault_countdown(int64_t k) {
  alloc_fault_countdown_.store(k, std::memory_order_relaxed);
}

uint64_t SegmentAllocator::alloc_calls() const {
  return alloc_calls_.load(std::memory_order_relaxed);
}

StatusOr<uint64_t> SegmentAllocator::TotalFreePages() {
  LatchGuard g(op_latch_);
  uint64_t total = 0;
  for (uint32_t i = 0; i < num_spaces_; ++i) {
    EOS_ASSIGN_OR_RETURN(uint64_t f, Space(i).FreePages());
    total += f;
  }
  return total;
}

StatusOr<std::vector<SpaceReport>> SegmentAllocator::Report() {
  LatchGuard g(op_latch_);
  std::vector<SpaceReport> out;
  for (uint32_t i = 0; i < num_spaces_; ++i) {
    SpaceReport r;
    r.space = i;
    EOS_ASSIGN_OR_RETURN(r.free_counts, Space(i).Counts());
    for (uint32_t t = 0; t < r.free_counts.size(); ++t) {
      r.free_pages += uint64_t{r.free_counts[t]} << t;
      if (r.free_counts[t] > 0) r.max_free_type = static_cast<int>(t);
    }
    out.push_back(std::move(r));
  }
  return out;
}

StatusOr<FragmentationStats> SegmentAllocator::FragStats() {
  EOS_ASSIGN_OR_RETURN(std::vector<SpaceReport> spaces, Report());
  FragmentationStats out;
  std::vector<uint64_t> by_type;
  for (const SpaceReport& r : spaces) {
    if (r.free_counts.size() > by_type.size()) {
      by_type.resize(r.free_counts.size(), 0);
    }
    for (uint32_t t = 0; t < r.free_counts.size(); ++t) {
      by_type[t] += r.free_counts[t];
      out.free_segments += r.free_counts[t];
      out.free_pages += uint64_t{r.free_counts[t]} << t;
      if (r.free_counts[t] > 0) {
        out.largest_free_pages =
            std::max<uint64_t>(out.largest_free_pages, uint64_t{1} << t);
      }
    }
  }
  if (out.free_segments > 0) {
    out.mean_free_pages = static_cast<double>(out.free_pages) /
                          static_cast<double>(out.free_segments);
    double entropy = 0.0;
    for (uint64_t n : by_type) {
      if (n == 0) continue;
      double p = static_cast<double>(n) /
                 static_cast<double>(out.free_segments);
      entropy -= p * std::log2(p);
    }
    if (by_type.size() > 1) {
      out.free_entropy = entropy / std::log2(
          static_cast<double>(by_type.size()));
    }
  }
  static obs::Gauge* g_entropy =
      obs::MetricsRegistry::Default().gauge(obs::kFragFreeEntropy);
  static obs::Gauge* g_segments =
      obs::MetricsRegistry::Default().gauge(obs::kFragFreeSegments);
  static obs::Gauge* g_largest =
      obs::MetricsRegistry::Default().gauge(obs::kFragLargestFreePages);
  g_entropy->Set(static_cast<int64_t>(out.free_entropy * 1000.0));
  g_segments->Set(static_cast<int64_t>(out.free_segments));
  g_largest->Set(static_cast<int64_t>(out.largest_free_pages));
  return out;
}

StatusOr<bool> SegmentAllocator::IsAllocated(const Extent& extent) {
  if (!extent.valid()) return false;
  LatchGuard g(op_latch_);
  uint32_t space, local;
  EOS_RETURN_IF_ERROR(Locate(extent.first, &space, &local));
  uint32_t space2, local_end;
  EOS_RETURN_IF_ERROR(
      Locate(extent.first + extent.pages - 1, &space2, &local_end));
  if (space2 != space) return false;
  EOS_ASSIGN_OR_RETURN(bool ok, Space(space).RangeAllocated(local,
                                                            extent.pages));
  return ok;
}

Status SegmentAllocator::CheckInvariants() {
  LatchGuard g(op_latch_);
  for (uint32_t i = 0; i < num_spaces_; ++i) {
    EOS_RETURN_IF_ERROR(Space(i).CheckInvariants());
  }
  return Status::OK();
}

Status SegmentAllocator::WipeAndRebuild(const std::vector<Extent>& live) {
  LatchGuard g(op_latch_);
  for (uint32_t i = 0; i < num_spaces_; ++i) {
    EOS_RETURN_IF_ERROR(Space(i).Format());
  }
  uint64_t allocated = 0;
  for (const Extent& e : live) {
    if (!e.valid()) return Status::InvalidArgument("invalid live extent");
    uint32_t space, local;
    EOS_RETURN_IF_ERROR(Locate(e.first, &space, &local));
    uint32_t space_end, local_end;
    EOS_RETURN_IF_ERROR(Locate(e.first + e.pages - 1, &space_end, &local_end));
    if (space_end != space) {
      return Status::InvalidArgument("live extent spans buddy spaces");
    }
    Status s = Space(space).AllocateRange(local, e.pages);
    if (!s.ok()) {
      // An already-allocated page means two recovered trees claim the same
      // storage — surface that as corruption, not a parameter error.
      if (s.IsInvalidArgument()) {
        return Status::Corruption("live extents overlap: " + s.message());
      }
      return s;
    }
    allocated += e.pages;
  }
  for (uint32_t i = 0; i < num_spaces_; ++i) {
    EOS_RETURN_IF_ERROR(RefreshHint(i));
  }
  m_free_pages_->Set(
      static_cast<int64_t>(uint64_t{num_spaces_} * geo_.space_pages -
                           allocated));
  m_managed_pages_->Set(
      static_cast<int64_t>(uint64_t{num_spaces_} * geo_.space_pages));
  free_pages_fast_.store(
      static_cast<int64_t>(uint64_t{num_spaces_} * geo_.space_pages -
                           allocated),
      std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace eos
