#include "buddy/buddy_space.h"

#include <cassert>
#include <cstring>

#include "common/bytes.h"
#include "common/math.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span_counts.h"

namespace eos {

namespace {

obs::Counter* SplitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kBuddySplit);
  return c;
}

obs::Counter* CoalesceCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kBuddyCoalesce);
  return c;
}

// Splits [lo, hi) into maximal buddy-aligned power-of-two chunks, capped at
// 2^max_type, and invokes fn(start, type) for each in address order.
template <typename Fn>
void ForEachAlignedChunk(uint32_t lo, uint32_t hi, uint32_t max_type, Fn fn) {
  while (lo < hi) {
    uint32_t align_t =
        lo == 0 ? max_type : FloorLog2(LargestAlignedSize(lo));
    uint32_t fit_t = FloorLog2(hi - lo);
    uint32_t t = align_t < fit_t ? align_t : fit_t;
    if (t > max_type) t = max_type;
    fn(lo, t);
    lo += uint32_t{1} << t;
  }
}

}  // namespace

uint16_t BuddySpace::GetCount(PageHandle& h, uint32_t type) const {
  return DecodeU16(h.data() + 4 + 2 * type);
}

void BuddySpace::SetCount(PageHandle& h, uint32_t type, uint16_t v) const {
  EncodeU16(h.data() + 4 + 2 * type, v);
}

AllocMap BuddySpace::Map(PageHandle& h) const {
  return AllocMap(h.data() + geo_.dir_header_bytes(), geo_.space_pages,
                  geo_.max_type);
}

Status BuddySpace::CheckMagic(PageHandle& h) const {
  if (DecodeU16(h.data()) != kMagic) {
    return Status::Corruption("buddy directory magic mismatch at page " +
                              std::to_string(dir_page_));
  }
  return Status::OK();
}

Status BuddySpace::Format() {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Zeroed(dir_page_));
  EncodeU16(h.data(), kMagic);
  EncodeU16(h.data() + 2, static_cast<uint16_t>(geo_.max_type + 1));
  AllocMap map = Map(h);
  // Phantom pages in the last partial map byte stay allocated forever.
  uint32_t padded = CeilDiv(geo_.space_pages, 4) * 4;
  for (uint32_t p = geo_.space_pages; p < padded; ++p) {
    uint8_t* b = h.data() + geo_.dir_header_bytes() + p / 4;
    *b |= static_cast<uint8_t>(1u << (3 - (p % 4)));
  }
  ForEachAlignedChunk(0, geo_.space_pages, geo_.max_type,
                      [&](uint32_t start, uint32_t type) {
                        map.WriteFree(start, type);
                        SetCount(h, type, GetCount(h, type) + 1);
                      });
  h.MarkDirty();
  return Status::OK();
}

StatusOr<uint32_t> BuddySpace::Allocate(uint32_t npages) {
  if (npages == 0 || npages > geo_.max_segment_pages()) {
    return Status::InvalidArgument("segment size " + std::to_string(npages) +
                                   " not in [1, 2^k]");
  }
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  uint32_t t_need = CeilLog2(npages);
  // Smallest j >= t_need with a free segment available.
  uint32_t j = t_need;
  while (j <= geo_.max_type && GetCount(h, j) == 0) ++j;
  if (j > geo_.max_type) {
    return Status::NoSpace("no free segment of " + std::to_string(npages) +
                           " pages in space");
  }
  AllocMap map = Map(h);
  uint32_t s = map.FindFree(j);
  if (s == AllocMap::kNone) {
    return Status::Corruption("count[" + std::to_string(j) +
                              "] > 0 but no free segment found in map");
  }
  SetCount(h, j, GetCount(h, j) - 1);
  // Allocated prefix: binary decomposition of npages, largest chunk first
  // (Figure 4.b). Starting from a 2^j-aligned address keeps every chunk
  // aligned to its own size.
  uint32_t pos = s;
  for (int t = static_cast<int>(geo_.max_type); t >= 0; --t) {
    if (npages & (uint32_t{1} << t)) {
      map.WriteAllocated(pos, static_cast<uint32_t>(t));
      pos += uint32_t{1} << t;
    }
  }
  // Free remainder: binary decomposition in reverse order (smallest chunk
  // first), directly after the allocated prefix. Each remainder chunk is a
  // split of the 2^j segment the request was carved from.
  uint32_t rem = (uint32_t{1} << j) - npages;
  for (uint32_t t = 0; t <= geo_.max_type && rem != 0; ++t) {
    if (rem & (uint32_t{1} << t)) {
      map.WriteFree(pos, t);
      SetCount(h, t, GetCount(h, t) + 1);
      SplitCounter()->Inc();
      pos += uint32_t{1} << t;
      rem &= ~(uint32_t{1} << t);
    }
  }
  h.MarkDirty();
  return s;
}

void BuddySpace::WriteAllocatedRange(PageHandle& h, uint32_t lo, uint32_t hi) {
  AllocMap map = Map(h);
  ForEachAlignedChunk(lo, hi, geo_.max_type,
                      [&](uint32_t start, uint32_t type) {
                        map.WriteAllocated(start, type);
                      });
}

void BuddySpace::FreeChunkAndCoalesce(PageHandle& h, uint32_t chunk,
                                      uint32_t type) {
  AllocMap map = Map(h);
  map.WriteFree(chunk, type);
  SetCount(h, type, GetCount(h, type) + 1);
  // Iterative coalescing of Section 3.2: the buddy is the XOR of the
  // segment address with its size.
  while (type < geo_.max_type) {
    uint32_t buddy = chunk ^ (uint32_t{1} << type);
    if (!map.IsFreeForCoalesce(buddy, type)) break;
    CoalesceCounter()->Inc();
    obs::ChargeSpan(obs::SpanCounter::kBuddyCoalesces);
    SetCount(h, type, GetCount(h, type) - 2);
    chunk = chunk < buddy ? chunk : buddy;
    ++type;
    map.WriteFree(chunk, type);
    SetCount(h, type, GetCount(h, type) + 1);
  }
}

Status BuddySpace::Free(uint32_t start, uint32_t npages) {
  if (npages == 0 || start + npages > geo_.space_pages) {
    return Status::InvalidArgument("free range out of space bounds");
  }
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  AllocMap map = Map(h);
  uint32_t end = start + npages;

  // Collect the allocated segments overlapping the range up front (their
  // encodings are destroyed as we rewrite).
  struct Overlap {
    uint32_t seg_start;
    uint32_t seg_end;
  };
  std::vector<Overlap> overlaps;
  uint32_t p = start;
  while (p < end) {
    AllocMap::Segment seg = map.FindSegmentContaining(p);
    if (!seg.allocated) {
      return Status::InvalidArgument(
          "freeing page " + std::to_string(p) +
          " that is already free (double free?)");
    }
    overlaps.push_back({seg.start, seg.start + seg.size()});
    p = seg.start + seg.size();
  }

  for (const Overlap& ov : overlaps) {
    uint32_t freed_lo = ov.seg_start > start ? ov.seg_start : start;
    uint32_t freed_hi = ov.seg_end < end ? ov.seg_end : end;
    // Re-encode the surviving parts of a partially freed segment as smaller
    // allocated segments (the "free any portion" feature of Section 3.2).
    if (ov.seg_start < freed_lo) WriteAllocatedRange(h, ov.seg_start, freed_lo);
    if (freed_hi < ov.seg_end) WriteAllocatedRange(h, freed_hi, ov.seg_end);
    ForEachAlignedChunk(freed_lo, freed_hi, geo_.max_type,
                        [&](uint32_t c, uint32_t t) {
                          FreeChunkAndCoalesce(h, c, t);
                        });
  }
  h.MarkDirty();
  return Status::OK();
}

Status BuddySpace::AllocateRange(uint32_t start, uint32_t npages) {
  if (npages == 0 || start + npages > geo_.space_pages) {
    return Status::InvalidArgument("allocate range out of space bounds");
  }
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  AllocMap map = Map(h);
  uint32_t end = start + npages;

  // Walk segment starts from the beginning of the space to find the
  // canonical free segments overlapping the range (collected up front —
  // their encodings are destroyed as we rewrite).
  struct Overlap {
    uint32_t seg_start;
    uint32_t seg_end;
    uint32_t type;
  };
  std::vector<Overlap> overlaps;
  uint32_t p = 0;
  while (p < geo_.space_pages && p < end) {
    uint32_t step = map.StepSizeAt(p);
    uint32_t seg_end = p + step;
    if (seg_end > start) {
      if (map.PageAllocated(p)) {
        return Status::InvalidArgument(
            "allocating over page " + std::to_string(p < start ? start : p) +
            " that is already allocated");
      }
      overlaps.push_back({p, seg_end, map.CanonicalFreeTypeAt(p)});
    }
    p = seg_end;
  }

  for (const Overlap& ov : overlaps) {
    uint32_t lo = ov.seg_start > start ? ov.seg_start : start;
    uint32_t hi = ov.seg_end < end ? ov.seg_end : end;
    SetCount(h, ov.type, GetCount(h, ov.type) - 1);
    // The allocated middle is written before the outside parts are freed
    // so the coalescing reads below only ever see valid encodings (same
    // ordering as Free).
    WriteAllocatedRange(h, lo, hi);
    if (ov.seg_start < lo) {
      ForEachAlignedChunk(ov.seg_start, lo, geo_.max_type,
                          [&](uint32_t c, uint32_t t) {
                            FreeChunkAndCoalesce(h, c, t);
                          });
    }
    if (hi < ov.seg_end) {
      ForEachAlignedChunk(hi, ov.seg_end, geo_.max_type,
                          [&](uint32_t c, uint32_t t) {
                            FreeChunkAndCoalesce(h, c, t);
                          });
    }
  }
  h.MarkDirty();
  return Status::OK();
}

StatusOr<int> BuddySpace::MaxFreeType() {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  for (int t = static_cast<int>(geo_.max_type); t >= 0; --t) {
    if (GetCount(h, static_cast<uint32_t>(t)) > 0) return t;
  }
  return -1;
}

StatusOr<uint64_t> BuddySpace::FreePages() {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  uint64_t total = 0;
  for (uint32_t t = 0; t <= geo_.max_type; ++t) {
    total += uint64_t{GetCount(h, t)} << t;
  }
  return total;
}

StatusOr<std::vector<uint32_t>> BuddySpace::Counts() {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  std::vector<uint32_t> counts(geo_.max_type + 1);
  for (uint32_t t = 0; t <= geo_.max_type; ++t) counts[t] = GetCount(h, t);
  return counts;
}

StatusOr<bool> BuddySpace::RangeAllocated(uint32_t start, uint32_t npages) {
  if (npages == 0 || start + npages > geo_.space_pages) return false;
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  AllocMap map = Map(h);
  for (uint32_t p = start; p < start + npages; ++p) {
    if (!map.PageAllocated(p)) return false;
  }
  return true;
}

Status BuddySpace::CheckInvariants() {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(dir_page_));
  EOS_RETURN_IF_ERROR(CheckMagic(h));
  AllocMap map = Map(h);
  std::vector<uint32_t> walked = map.CountFreeSegments();
  for (uint32_t t = 0; t <= geo_.max_type; ++t) {
    if (walked[t] != GetCount(h, t)) {
      return Status::Corruption(
          "count[" + std::to_string(t) + "] = " +
          std::to_string(GetCount(h, t)) + " but map holds " +
          std::to_string(walked[t]) + " free segments of that type");
    }
  }
  // Canonical form: no free segment may have a free buddy of its own type.
  uint32_t p = 0;
  while (p < geo_.space_pages) {
    uint32_t step = map.StepSizeAt(p);
    if (!map.PageAllocated(p)) {
      uint32_t t = map.CanonicalFreeTypeAt(p);
      uint32_t buddy = p ^ (uint32_t{1} << t);
      if (t < geo_.max_type && map.IsCanonicalFree(buddy, t)) {
        return Status::Corruption("uncoalesced free buddies at page " +
                                  std::to_string(p));
      }
    }
    p += step;
  }
  return Status::OK();
}

}  // namespace eos
