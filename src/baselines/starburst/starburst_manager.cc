#include "baselines/starburst/starburst_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/math.h"

namespace eos {

StarburstManager::StarburstManager(SegmentAllocator* allocator,
                                   PageDevice* device,
                                   uint32_t max_segment_pages)
    : allocator_(allocator), device_(device) {
  uint32_t buddy_max = allocator->geometry().max_segment_pages();
  max_segment_pages_ = max_segment_pages == 0
                           ? buddy_max
                           : std::min(max_segment_pages, buddy_max);
}

uint32_t StarburstManager::LeafPages(uint64_t bytes) const {
  return static_cast<uint32_t>(CeilDiv(bytes, page_size()));
}

size_t StarburstManager::FindSegment(const StarburstDescriptor& d,
                                     uint64_t offset,
                                     uint64_t* local) const {
  uint64_t cum = 0;
  for (size_t i = 0; i < d.segments.size(); ++i) {
    if (offset < cum + d.segments[i].count) {
      *local = offset - cum;
      return i;
    }
    cum += d.segments[i].count;
  }
  assert(false && "offset beyond long field size");
  return d.segments.size();
}

Status StarburstManager::AppendSegments(StarburstDescriptor* d,
                                        ByteView data, uint32_t prev_pages,
                                        uint64_t size_hint) {
  const uint32_t ps = page_size();
  uint64_t pos = 0;
  uint32_t next = prev_pages == 0 ? 1 : std::min(prev_pages * 2,
                                                 max_segment_pages_);
  while (pos < data.size()) {
    uint64_t remaining = data.size() - pos;
    uint32_t pages;
    if (size_hint > 0) {
      // Size known in advance: maximal segments, last one exact.
      pages = static_cast<uint32_t>(
          std::min<uint64_t>(CeilDiv(remaining, ps), max_segment_pages_));
    } else {
      pages = next;
      next = std::min(next * 2, max_segment_pages_);
      // The final segment is trimmed: never allocate beyond what is left.
      pages = static_cast<uint32_t>(
          std::min<uint64_t>(pages, CeilDiv(remaining, ps)));
    }
    uint64_t chunk = std::min<uint64_t>(remaining, uint64_t{pages} * ps);
    EOS_ASSIGN_OR_RETURN(Extent e, allocator_->Allocate(LeafPages(chunk)));
    uint32_t used = LeafPages(chunk);
    if (chunk % ps == 0) {
      EOS_RETURN_IF_ERROR(device_->WritePages(e.first, used,
                                              data.data() + pos));
    } else {
      Bytes buf(size_t{used} * ps, 0);
      std::memcpy(buf.data(), data.data() + pos, chunk);
      EOS_RETURN_IF_ERROR(device_->WritePages(e.first, used, buf.data()));
    }
    d->segments.push_back(LobEntry{chunk, e.first});
    pos += chunk;
  }
  return Status::OK();
}

StatusOr<StarburstDescriptor> StarburstManager::CreateFrom(ByteView data) {
  StarburstDescriptor d;
  EOS_RETURN_IF_ERROR(AppendSegments(&d, data, 0, data.size()));
  return d;
}

Status StarburstManager::Append(StarburstDescriptor* d, ByteView data) {
  if (data.empty()) return Status::OK();
  const uint32_t ps = page_size();
  uint32_t prev_pages =
      d->segments.empty() ? 0 : LeafPages(d->segments.back().count);
  if (!d->segments.empty() && d->segments.back().count % ps != 0) {
    // Absorb the partial tail page into the new segment run.
    LobEntry& last = d->segments.back();
    uint64_t lm = last.count % ps;
    Bytes buf(lm + data.size());
    uint64_t tail_page = last.page + LeafPages(last.count) - 1;
    Bytes page(ps);
    EOS_RETURN_IF_ERROR(device_->ReadPages(tail_page, 1, page.data()));
    std::memcpy(buf.data(), page.data(), lm);
    std::memcpy(buf.data() + lm, data.data(), data.size());
    EOS_RETURN_IF_ERROR(allocator_->Free(Extent{tail_page, 1}));
    last.count -= lm;
    if (last.count == 0) d->segments.pop_back();
    return AppendSegments(d, buf, prev_pages, 0);
  }
  return AppendSegments(d, data, prev_pages, 0);
}

Status StarburstManager::Read(const StarburstDescriptor& d, uint64_t offset,
                              uint64_t n, Bytes* out) {
  if (offset > d.size()) {
    return Status::OutOfRange("read offset beyond long field size");
  }
  n = std::min(n, d.size() - offset);
  out->resize(n);
  if (n == 0) return Status::OK();
  uint64_t local = 0;
  size_t i = FindSegment(d, offset, &local);
  uint64_t done = 0;
  while (done < n) {
    const LobEntry& seg = d.segments[i];
    uint64_t chunk = std::min(n - done, seg.count - local);
    EOS_RETURN_IF_ERROR(device_->ReadRange(seg.page, local, local + chunk,
                                           out->data() + done));
    done += chunk;
    local = 0;
    ++i;
  }
  return Status::OK();
}

StatusOr<Bytes> StarburstManager::ReadAll(const StarburstDescriptor& d) {
  Bytes out;
  EOS_RETURN_IF_ERROR(Read(d, 0, d.size(), &out));
  return out;
}

Status StarburstManager::Replace(StarburstDescriptor* d, uint64_t offset,
                                 ByteView data) {
  if (offset + data.size() > d->size()) {
    return Status::OutOfRange("replace range beyond long field size");
  }
  if (data.empty()) return Status::OK();
  const uint32_t ps = page_size();
  uint64_t local = 0;
  size_t i = FindSegment(*d, offset, &local);
  uint64_t done = 0;
  while (done < data.size()) {
    const LobEntry& seg = d->segments[i];
    uint64_t chunk = std::min<uint64_t>(data.size() - done,
                                        seg.count - local);
    uint64_t p0 = local / ps;
    uint64_t p1 = (local + chunk - 1) / ps;
    uint32_t np = static_cast<uint32_t>(p1 - p0 + 1);
    Bytes buf(size_t{np} * ps);
    EOS_RETURN_IF_ERROR(device_->ReadPages(seg.page + p0, np, buf.data()));
    std::memcpy(buf.data() + (local - p0 * ps), data.data() + done, chunk);
    EOS_RETURN_IF_ERROR(device_->WritePages(seg.page + p0, np, buf.data()));
    done += chunk;
    local = 0;
    ++i;
  }
  return Status::OK();
}

Status StarburstManager::Insert(StarburstDescriptor* d, uint64_t offset,
                                ByteView data) {
  if (offset > d->size()) {
    return Status::OutOfRange("insert offset beyond long field size");
  }
  if (data.empty()) return Status::OK();
  if (offset == d->size()) return Append(d, data);
  // Copy every segment from the one containing `offset` to the end into
  // new segments (the paper's description of Starburst's behaviour).
  uint64_t local = 0;
  size_t i = FindSegment(*d, offset, &local);
  uint64_t seg_start = offset - local;
  Bytes suffix;
  EOS_RETURN_IF_ERROR(Read(*d, seg_start, d->size() - seg_start, &suffix));
  uint32_t prev_pages = i == 0 ? 0 : LeafPages(d->segments[i - 1].count);
  for (size_t j = i; j < d->segments.size(); ++j) {
    const LobEntry& seg = d->segments[j];
    EOS_RETURN_IF_ERROR(
        allocator_->Free(Extent{seg.page, LeafPages(seg.count)}));
  }
  d->segments.resize(i);
  Bytes rebuilt;
  rebuilt.reserve(suffix.size() + data.size());
  rebuilt.insert(rebuilt.end(), suffix.begin(), suffix.begin() + local);
  rebuilt.insert(rebuilt.end(), data.data(), data.data() + data.size());
  rebuilt.insert(rebuilt.end(), suffix.begin() + local, suffix.end());
  return AppendSegments(d, rebuilt, prev_pages, rebuilt.size());
}

Status StarburstManager::Delete(StarburstDescriptor* d, uint64_t offset,
                                uint64_t n) {
  if (offset > d->size()) {
    return Status::OutOfRange("delete offset beyond long field size");
  }
  n = std::min(n, d->size() - offset);
  if (n == 0) return Status::OK();
  if (offset == 0 && n == d->size()) return Destroy(d);
  uint64_t local = 0;
  size_t i = FindSegment(*d, offset, &local);
  uint64_t seg_start = offset - local;
  Bytes suffix;
  EOS_RETURN_IF_ERROR(Read(*d, seg_start, d->size() - seg_start, &suffix));
  uint32_t prev_pages = i == 0 ? 0 : LeafPages(d->segments[i - 1].count);
  for (size_t j = i; j < d->segments.size(); ++j) {
    const LobEntry& seg = d->segments[j];
    EOS_RETURN_IF_ERROR(
        allocator_->Free(Extent{seg.page, LeafPages(seg.count)}));
  }
  d->segments.resize(i);
  suffix.erase(suffix.begin() + local, suffix.begin() + local + n);
  return AppendSegments(d, suffix, prev_pages, suffix.size());
}

Status StarburstManager::Destroy(StarburstDescriptor* d) {
  for (const LobEntry& seg : d->segments) {
    EOS_RETURN_IF_ERROR(
        allocator_->Free(Extent{seg.page, LeafPages(seg.count)}));
  }
  d->segments.clear();
  return Status::OK();
}

StatusOr<LobStats> StarburstManager::Stats(const StarburstDescriptor& d) {
  LobStats stats;
  stats.size_bytes = d.size();
  stats.depth = 0;
  for (const LobEntry& seg : d.segments) {
    uint64_t pages = LeafPages(seg.count);
    ++stats.num_segments;
    stats.leaf_pages += pages;
    stats.min_segment_pages = stats.num_segments == 1
                                  ? pages
                                  : std::min(stats.min_segment_pages, pages);
    stats.max_segment_pages = std::max(stats.max_segment_pages, pages);
  }
  if (stats.num_segments > 0) {
    stats.avg_segment_pages =
        static_cast<double>(stats.leaf_pages) / stats.num_segments;
  }
  if (stats.leaf_pages > 0) {
    stats.leaf_utilization =
        static_cast<double>(stats.size_bytes) /
        (static_cast<double>(stats.leaf_pages) * page_size());
    stats.total_utilization = stats.leaf_utilization;
  }
  return stats;
}

}  // namespace eos
