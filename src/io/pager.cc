#include "io/pager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/span_counts.h"

namespace eos {

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Reset();
    pager_ = o.pager_;
    frame_ = o.frame_;
    id_ = o.id_;
    data_ = o.data_;
    o.pager_ = nullptr;
    o.data_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Reset(); }

void PageHandle::Reset() {
  if (pager_ != nullptr) {
    pager_->Unpin(frame_);
    pager_ = nullptr;
  }
}

PageId PageHandle::id() const { return id_; }

uint8_t* PageHandle::data() { return data_; }

const uint8_t* PageHandle::data() const { return data_; }

void PageHandle::MarkDirty() { pager_->MarkFrameDirty(frame_); }

Pager::Pager(PageDevice* device, size_t capacity)
    : device_(device), capacity_(capacity == 0 ? 1 : capacity) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_hit_ = reg.counter(obs::kPagerHit);
  m_miss_ = reg.counter(obs::kPagerMiss);
  m_eviction_ = reg.counter(obs::kPagerEviction);
  m_writeback_ = reg.counter(obs::kPagerWriteback);
  m_cached_ = reg.gauge(obs::kPagerCachedPages);
  frames_.resize(capacity_);
  for (auto& f : frames_) f.data.resize(device_->page_size());
  free_frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) free_frames_.push_back(capacity_ - 1 - i);
}

Pager::~Pager() {
  // Callers are expected to FlushAll(); flush here as a safety net but
  // ignore errors (destructors cannot report them).
  (void)FlushAll();
}

StatusOr<size_t> Pager::GetFrame(PageId id, bool read, bool* was_hit) {
  auto it = map_.find(id);
  if (it != map_.end()) {
    *was_hit = true;
    return it->second;
  }
  *was_hit = false;
  size_t idx;
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    EOS_ASSIGN_OR_RETURN(idx, FindVictim());
    Status fs = FlushFrame(frames_[idx]);
    if (!fs.ok()) {
      // The victim's write-back failed (its volume may be offline). Fall
      // back to the oldest clean frame so an unrelated read does not
      // inherit the write error; the dirty frame stays cached for retry.
      StatusOr<size_t> clean = FindVictim(/*require_clean=*/true);
      if (clean.ok()) {
        idx = *clean;
      } else {
        // Every unpinned frame is dirty and stuck behind the same outage.
        // Grow an overflow frame rather than failing the read: the stuck
        // frames keep the only copy of committed state, so they can be
        // neither dropped nor flushed, yet unrelated reads must proceed.
        // Once flushes succeed again these frames rejoin the reuse pool.
        frames_.emplace_back();
        frames_.back().data.resize(device_->page_size());
        idx = frames_.size() - 1;
        Frame& nf = frames_[idx];
        nf.id = id;
        nf.pins = 0;
        nf.dirty = false;
        if (read) {
          Status s = device_->ReadPages(id, 1, nf.data.data());
          if (!s.ok()) {
            nf.id = kInvalidPage;
            free_frames_.push_back(idx);
            return s;
          }
        } else {
          std::memset(nf.data.data(), 0, nf.data.size());
        }
        map_[id] = idx;
        m_cached_->Add(1);
        return idx;
      }
    }
    map_.erase(frames_[idx].id);
    ++evictions_;
    m_eviction_->Inc();
    obs::ChargeSpan(obs::SpanCounter::kPagerEvictions);
    m_cached_->Add(-1);
  }
  Frame& f = frames_[idx];
  f.id = id;
  f.pins = 0;
  f.dirty = false;
  if (read) {
    Status s = device_->ReadPages(id, 1, f.data.data());
    if (!s.ok()) {
      // Return the frame: it is in neither map_ nor free_frames_ here, and
      // leaking it on every failed read would bleed the pager dry into
      // Busy once corrupt pages make read errors routine.
      f.id = kInvalidPage;
      free_frames_.push_back(idx);
      return s;
    }
  } else {
    std::memset(f.data.data(), 0, f.data.size());
  }
  map_[id] = idx;
  m_cached_->Add(1);
  return idx;
}

StatusOr<size_t> Pager::FindVictim(bool require_clean) {
  const size_t none = frames_.size();
  size_t best = none;
  uint64_t best_tick = ~uint64_t{0};
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (require_clean && f.dirty) continue;
    if (f.id != kInvalidPage && f.pins == 0 && f.tick < best_tick) {
      best = i;
      best_tick = f.tick;
    }
  }
  if (best == none) {
    return Status::Busy("pager: all frames pinned");
  }
  return best;
}

Status Pager::FlushFrame(Frame& f) {
  if (f.dirty) {
    EOS_RETURN_IF_ERROR(device_->WritePages(f.id, 1, f.data.data()));
    f.dirty = false;
    ++dirty_writebacks_;
    m_writeback_->Inc();
  }
  return Status::OK();
}

void Pager::MarkFrameDirty(size_t frame) {
  LatchGuard g(latch_);
  Frame& f = frames_[frame];
  f.dirty = true;
  // Write-through: persist now so this page is durable before any page
  // that references it is written. On failure the frame stays dirty and
  // the error surfaces at the next flush.
  if (write_through_) (void)FlushFrame(f);
}

StatusOr<PageHandle> Pager::Fetch(PageId id) {
  LatchGuard g(latch_);
  bool hit = false;
  EOS_ASSIGN_OR_RETURN(size_t idx, GetFrame(id, /*read=*/true, &hit));
  hit ? ++hits_ : ++misses_;
  (hit ? m_hit_ : m_miss_)->Inc();
  obs::ChargeSpan(hit ? obs::SpanCounter::kPagerHits
                      : obs::SpanCounter::kPagerMisses);
  Frame& f = frames_[idx];
  ++f.pins;
  f.tick = ++tick_;
  return PageHandle(this, idx, f.id, f.data.data());
}

StatusOr<PageHandle> Pager::Zeroed(PageId id) {
  LatchGuard g(latch_);
  bool hit = false;
  EOS_ASSIGN_OR_RETURN(size_t idx, GetFrame(id, /*read=*/false, &hit));
  Frame& f = frames_[idx];
  if (hit) std::memset(f.data.data(), 0, f.data.size());
  f.dirty = true;
  ++f.pins;
  f.tick = ++tick_;
  return PageHandle(this, idx, f.id, f.data.data());
}

void Pager::Unpin(size_t frame) {
  LatchGuard g(latch_);
  Frame& f = frames_[frame];
  assert(f.pins > 0);
  --f.pins;
  if (f.pins == 0 && f.doomed) {
    // Last reader of an invalidated-while-pinned frame; recycle it now.
    f.id = kInvalidPage;
    f.doomed = false;
    free_frames_.push_back(frame);
  }
}

Status Pager::FlushAll() {
  LatchGuard g(latch_);
  // Batch the write-back: sort the dirty frames by page id and hand them
  // to the device as one run list. Runs over adjacent ids coalesce into a
  // single vectored transfer at the file layer, so a flush after bulk
  // inserts costs one syscall per contiguous cluster instead of one per
  // page.
  std::vector<Frame*> dirty;
  for (auto& f : frames_) {
    if (f.id != kInvalidPage && f.dirty) dirty.push_back(&f);
  }
  if (dirty.empty()) return Status::OK();
  std::sort(dirty.begin(), dirty.end(),
            [](const Frame* a, const Frame* b) { return a->id < b->id; });
  std::vector<ConstPageRun> runs;
  runs.reserve(dirty.size());
  for (const Frame* f : dirty) {
    runs.push_back(ConstPageRun{f->id, 1, f->data.data()});
  }
  Status s = device_->WriteRuns(runs.data(), runs.size());
  if (!s.ok()) {
    // The batch failed somewhere; retry frame by frame so the error names
    // the precise page and every frame that did make it out is marked
    // clean.
    for (Frame* f : dirty) EOS_RETURN_IF_ERROR(FlushFrame(*f));
    return Status::OK();
  }
  for (Frame* f : dirty) {
    f->dirty = false;
    ++dirty_writebacks_;
    m_writeback_->Inc();
  }
  return Status::OK();
}

Status Pager::EvictAll() {
  LatchGuard g(latch_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.id != kInvalidPage && f.pins == 0) {
      EOS_RETURN_IF_ERROR(FlushFrame(f));
      map_.erase(f.id);
      m_cached_->Add(-1);
      // Reuse the slot via the free list.
      f.id = kInvalidPage;
      free_frames_.push_back(i);
    }
  }
  return Status::OK();
}

void Pager::Invalidate(PageId id) {
  LatchGuard g(latch_);
  auto it = map_.find(id);
  if (it == map_.end()) return;
  Frame& f = frames_[it->second];
  f.dirty = false;
  if (f.pins > 0) {
    // A snapshot reader still holds the buffer. Detach the frame from the
    // map so new fetches of this id read the device, and doom it: the
    // buffer stays valid (frames never reallocate, and version GC keeps
    // the on-device bytes allocated while any pin exists), and the last
    // Unpin returns the frame to the free list.
    f.doomed = true;
  } else {
    f.id = kInvalidPage;
    free_frames_.push_back(it->second);
  }
  map_.erase(it);
  m_cached_->Add(-1);
}

}  // namespace eos
