// Multi-append sessions (Section 4.1): doubling growth for objects of
// unknown eventual size, exact allocation under a size hint, and a final
// trim of the last segment with one-page precision.

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/math.h"
#include "lob/lob_manager.h"
#include "obs/metric_names.h"
#include "obs/op_tracer.h"
#include "txn/log_manager.h"

namespace eos {

LobAppender::LobAppender(LobManager* mgr, LobDescriptor* d,
                         uint64_t size_hint)
    : mgr_(mgr), d_(d), size_hint_(size_hint) {
  page_buf_.reserve(mgr->page_size());
}

LobAppender::~LobAppender() {
  if (!finished_) (void)Finish();
}

Status LobAppender::OpenSegment(uint64_t want_bytes) {
  assert(!cur_.valid());
  const uint32_t ps = mgr_->page_size();
  const uint32_t max_pages = mgr_->max_segment_pages();
  uint32_t pages;
  uint64_t total_now = d_->size() + page_buf_.size();
  if (size_hint_ > total_now) {
    // Size known in advance: allocate just enough for the whole remainder
    // (a sequence of maximal segments if it exceeds the maximum size).
    uint64_t remaining = size_hint_ - total_now;
    pages = static_cast<uint32_t>(
        std::min<uint64_t>(CeilDiv(remaining, ps), max_pages));
  } else {
    // Unknown size: successive segments double until the maximum.
    pages = next_pages_;
    next_pages_ = std::min(next_pages_ * 2, max_pages);
  }
  uint64_t min_pages = CeilDiv(want_bytes, ps);
  if (pages < min_pages && min_pages <= max_pages) {
    pages = static_cast<uint32_t>(min_pages);
  }
  EOS_ASSIGN_OR_RETURN(cur_, mgr_->allocator()->Allocate(pages));
  cur_bytes_ = 0;
  cur_pages_used_ = 0;
  return Status::OK();
}

Status LobAppender::FlushPageBuffer() {
  const uint32_t ps = mgr_->page_size();
  if (page_buf_.empty()) return Status::OK();
  // Queue the padded page instead of writing it now: an immediately
  // following bulk run is file-adjacent and the two coalesce into one
  // vectored submit. Staging comes from the pool; the raw block pointer
  // stays stable however pending_bufs_ reallocates.
  pending_bufs_.push_back(BufferPool::Default()->Acquire(ps));
  uint8_t* staged = pending_bufs_.back().data();
  std::memcpy(staged, page_buf_.data(), page_buf_.size());
  std::memset(staged + page_buf_.size(), 0, ps - page_buf_.size());
  pending_runs_.push_back(
      ConstPageRun{cur_.first + cur_pages_used_, 1, staged});
  if (page_buf_.size() == ps) {
    ++cur_pages_used_;
    page_buf_.clear();
  }
  return Status::OK();
}

Status LobAppender::SubmitPending() {
  if (pending_runs_.empty()) return Status::OK();
  Status s;
  if (pending_runs_.size() == 1) {
    const ConstPageRun& r = pending_runs_[0];
    s = mgr_->device()->WritePages(r.first, r.pages, r.data);
  } else {
    s = mgr_->device()->WriteRuns(pending_runs_.data(),
                                  pending_runs_.size());
  }
  pending_runs_.clear();
  pending_bufs_.clear();
  return s;
}

Status LobAppender::CloseSegment() {
  if (!cur_.valid()) return Status::OK();
  EOS_RETURN_IF_ERROR(FlushPageBuffer());
  // Leaf data must be durable before the index references it (the same
  // data-before-index order the crash-consistency design relies on).
  EOS_RETURN_IF_ERROR(SubmitPending());
  uint64_t bytes = uint64_t{cur_pages_used_} * mgr_->page_size() +
                   page_buf_.size();
  page_buf_.clear();
  uint32_t used_pages = mgr_->LeafPages(bytes);
  // Trim: give unused pages at the right end back to the free space.
  if (used_pages < cur_.pages) {
    EOS_RETURN_IF_ERROR(mgr_->allocator()->Free(
        Extent{cur_.first + used_pages, cur_.pages - used_pages}));
  }
  Extent seg = cur_;
  cur_ = Extent{};
  if (bytes == 0) {
    return Status::OK();
  }
  // Attach the finished segment as the new rightmost leaf.
  LobEntry entry{bytes, seg.first};
  if (d_->empty()) {
    d_->root.level = 0;
    d_->root.entries.push_back(entry);
    return mgr_->store_.FitRoot(d_);
  }
  std::vector<PathLevel> path;
  LobEntry last;
  uint64_t local = 0;
  EOS_RETURN_IF_ERROR(mgr_->store_.DescendToLeaf(*d_, d_->size() - 1, &path,
                                                 &last, &local));
  return mgr_->Splice(d_, &path, {last, entry});
}

LobAppender::SessionState LobAppender::SaveState() const {
  return SessionState{appended_, cur_,        cur_bytes_,
                      cur_pages_used_, next_pages_, page_buf_};
}

void LobAppender::RestoreState(SessionState&& s) {
  appended_ = s.appended;
  cur_ = s.cur;
  cur_bytes_ = s.cur_bytes;
  cur_pages_used_ = s.cur_pages_used;
  next_pages_ = s.next_pages;
  page_buf_ = std::move(s.page_buf);
  pending_runs_.clear();
  pending_bufs_.clear();
}

Status LobAppender::Append(ByteView data) {
  if (finished_) {
    return Status::InvalidArgument("appender already finished");
  }
  if (data.empty()) return Status::OK();
  SessionState before = SaveState();
  Status s =
      mgr_->RunGuarded(d_, "lob.appender_append", [&] { return AppendBody(data); });
  // The guard put the tree and the allocation maps back; put the session
  // back too so the caller may retry (or Finish with what was appended).
  if (!s.ok()) RestoreState(std::move(before));
  return s;
}

Status LobAppender::AppendBody(ByteView data) {
  const uint32_t ps = mgr_->page_size();
  if (appended_ == 0 && !d_->empty() && !cur_.valid() && page_buf_.empty()) {
    // First append to an existing object: absorb the partial tail page so
    // the new segment continues it without overwriting any leaf page, and
    // continue the doubling pattern from the last leaf's size.
    std::vector<PathLevel> path;
    LobEntry last;
    uint64_t local = 0;
    EOS_RETURN_IF_ERROR(mgr_->store_.DescendToLeaf(*d_, d_->size() - 1, &path,
                                                   &last, &local));
    const LobManager::LeafRef leaf = mgr_->LeafOf(last);
    next_pages_ = static_cast<uint32_t>(std::min<uint64_t>(
        uint64_t{leaf.extent.pages} * 2, mgr_->max_segment_pages()));
    if (next_pages_ == 0) next_pages_ = 1;
    uint64_t lm = leaf.bytes % ps;
    if (lm != 0) {
      page_buf_.resize(lm);
      EOS_RETURN_IF_ERROR(mgr_->ReadLeafBytes(leaf, leaf.bytes - lm,
                                              leaf.bytes, page_buf_.data()));
      EOS_RETURN_IF_ERROR(mgr_->allocator()->Free(
          Extent{leaf.extent.first + leaf.extent.pages - 1, 1}));
      std::vector<LobEntry> repl;
      if (leaf.bytes > lm) {
        repl.push_back(LobEntry{leaf.bytes - lm, leaf.extent.first});
      }
      EOS_RETURN_IF_ERROR(mgr_->Splice(d_, &path, std::move(repl)));
      if (!d_->empty()) {
        EOS_RETURN_IF_ERROR(mgr_->RepairUnderflow(d_, d_->size() - 1));
      }
    }
  }
  size_t pos = 0;
  while (pos < data.size()) {
    EOS_RETURN_IF_ERROR(ScopedOpContext::CheckCurrent("lob.appender"));
    if (!cur_.valid()) {
      EOS_RETURN_IF_ERROR(
          OpenSegment(page_buf_.size() + (data.size() - pos)));
    }
    uint64_t seg_space = uint64_t{cur_.pages} * ps -
                         (uint64_t{cur_pages_used_} * ps + page_buf_.size());
    if (seg_space == 0) {
      EOS_RETURN_IF_ERROR(CloseSegment());
      continue;
    }
    if (page_buf_.empty() && data.size() - pos >= ps && seg_space >= ps) {
      // Bulk path: queue whole pages zero-copy, straight from the caller's
      // data (drained before Append returns).
      uint32_t whole = static_cast<uint32_t>(
          std::min<uint64_t>((data.size() - pos) / ps, seg_space / ps));
      pending_runs_.push_back(ConstPageRun{cur_.first + cur_pages_used_,
                                           whole, data.data() + pos});
      cur_pages_used_ += whole;
      pos += uint64_t{whole} * ps;
      continue;
    }
    size_t take = static_cast<size_t>(std::min<uint64_t>(
        std::min<uint64_t>(ps - page_buf_.size(), data.size() - pos),
        seg_space));
    page_buf_.insert(page_buf_.end(), data.data() + pos,
                     data.data() + pos + take);
    pos += take;
    if (page_buf_.size() == ps) {
      EOS_RETURN_IF_ERROR(FlushPageBuffer());
    }
  }
  EOS_RETURN_IF_ERROR(SubmitPending());
  appended_ += data.size();
  static obs::Counter* chunks =
      obs::MetricsRegistry::Default().counter(obs::kLobAppenderChunks);
  chunks->Inc();
  return Status::OK();
}

Status LobAppender::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  obs::ScopedOp span("lob.appender_finish", 0, mgr_->device());
  Extent open = cur_;  // segment carried in from earlier calls, if any
  Status s = mgr_->RunGuarded(d_, "lob.appender_finish", [&]() -> Status {
    if (!cur_.valid() && !page_buf_.empty()) {
      // Only an absorbed tail remains; give it its own (1-page) segment.
      EOS_RETURN_IF_ERROR(OpenSegment(page_buf_.size()));
    }
    EOS_RETURN_IF_ERROR(CloseSegment());
    return mgr_->store_.FitRoot(d_);
  });
  if (!s.ok()) {
    // The session is over either way. The guard unwound this call's own
    // allocations; the still-open segment predates it and is referenced by
    // nothing, so return it (a nested guard parks this free and resolves
    // it with the outer scope).
    page_buf_.clear();
    pending_runs_.clear();
    pending_bufs_.clear();
    cur_ = Extent{};
    if (open.valid()) (void)mgr_->allocator()->Free(open);
  }
  return span.Close(std::move(s));
}

}  // namespace eos
