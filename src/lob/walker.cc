#include "lob/walker.h"

#include <cstring>
#include <utility>

#include "obs/metric_names.h"

namespace eos {

Status LeafWalker::Seek(uint64_t offset) {
  stack_.clear();
  LobEntry e;
  uint64_t local = 0;
  EOS_RETURN_IF_ERROR(
      mgr_->store_.DescendToLeaf(d_, offset, &stack_, &e, &local));
  leaf_ = mgr_->LeafOf(e);
  local_ = local;
  return Status::OK();
}

StatusOr<bool> LeafWalker::Next() {
  local_ = 0;
  LobEntry e;
  EOS_ASSIGN_OR_RETURN(bool more, mgr_->store_.NextLeaf(&stack_, &e));
  if (more) leaf_ = mgr_->LeafOf(e);
  return more;
}

StatusOr<bool> LeafWalker::PeekNextLeaf(Extent* extent, uint64_t* bytes) {
  // Next() on a copy of the ancestor stack. Index nodes come from the
  // pager, so the common peek costs no device I/O.
  std::vector<PathLevel> stack = stack_;
  LobEntry e;
  EOS_ASSIGN_OR_RETURN(bool more, mgr_->store_.NextLeaf(&stack, &e));
  if (more) {
    *extent = mgr_->LeafOf(e).extent;
    *bytes = e.count;
  }
  return more;
}

// ----- LobReader -------------------------------------------------------------

LobReader::~LobReader() { DropPrefetch(/*count_cancelled=*/true); }

void LobReader::EnableReadAhead(IoExecutor* exec) {
  prefetch_exec_ = exec;
  if (m_issued_ == nullptr) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    m_issued_ = reg.counter(obs::kIoPrefetchIssued);
    m_hit_ = reg.counter(obs::kIoPrefetchHit);
    m_cancelled_ = reg.counter(obs::kIoPrefetchCancelled);
  }
}

void LobReader::DropPrefetch(bool count_cancelled) {
  if (prefetch_armed_) {
    // A still-queued task observes the token and skips its transfer; one
    // already running finishes into a buffer nobody will read. Either way
    // the join below keeps the buffer-lifetime contract.
    prefetch_cancel_.Cancel();
    (void)prefetch_ticket_.Wait();
    prefetch_armed_ = false;
    if (count_cancelled && m_cancelled_ != nullptr) m_cancelled_->Inc();
  }
  prefetch_buf_.Release();
  serving_ = false;
}

void LobReader::ArmPrefetch() {
  if (prefetch_exec_ == nullptr || prefetch_armed_) return;
  Extent next;
  uint64_t next_bytes = 0;
  StatusOr<bool> more = walker_.PeekNextLeaf(&next, &next_bytes);
  // Peek failures are not read failures: the real descent will surface the
  // error (with retry semantics) when the scan actually gets there.
  if (!more.ok() || !more.value()) return;
  // The next segment is already resident in the extent cache: its bytes
  // will be served as a memcpy, so a device prefetch would be redundant
  // I/O. Counted as a cancelled prefetch (cancelled before issue).
  if (mgr_->CacheHasExtent(next)) {
    if (m_cancelled_ != nullptr) m_cancelled_->Inc();
    return;
  }
  // Keep the buffer alive in the reader and hand the worker the raw
  // pointer; DropPrefetch always joins the ticket before touching the
  // buffer, so the pointer outlives the task.
  prefetch_buf_.Release();
  serving_ = false;
  prefetch_buf_ = BufferPool::Default()->Acquire(size_t{next.pages} *
                                                 mgr_->page_size());
  prefetch_extent_ = next;
  uint8_t* dst = prefetch_buf_.data();
  PageDevice* dev = mgr_->device();
  prefetch_cancel_ = CancelToken::Make();
  CancelToken cancel = prefetch_cancel_;
  prefetch_ticket_ = prefetch_exec_->Submit([dev, next, dst, cancel] {
    if (cancel.cancelled()) {
      return Status::DeadlineExceeded("prefetch cancelled");
    }
    return dev->ReadPages(next.first, next.pages, dst);
  });
  prefetch_armed_ = true;
  m_issued_->Inc();
}

void LobReader::SettlePrefetch() {
  if (!prefetch_armed_) return;
  prefetch_armed_ = false;
  Status s = prefetch_ticket_.Wait();
  if (s.ok() && prefetch_extent_ == walker_.extent()) {
    // The scan arrived at the prefetched segment: serve it from memory.
    serving_ = true;
    m_hit_->Inc();
    return;
  }
  // Stale (reader seeked elsewhere) or failed: fall back to direct reads —
  // a prefetch error must never fail the scan, the authoritative read path
  // retries and reports on its own.
  prefetch_buf_.Release();
  serving_ = false;
  if (m_cancelled_ != nullptr) m_cancelled_->Inc();
}

Status LobReader::ReadCurrentLeaf(uint64_t lo, uint64_t hi, uint8_t* out) {
  if (serving_) {
    std::memcpy(out, prefetch_buf_.data() + lo, hi - lo);
    return Status::OK();
  }
  return walker_.ReadLeafBytes(lo, hi, out);
}

Status LobReader::Seek(uint64_t offset) {
  if (offset > d_.size()) {
    return Status::OutOfRange("seek beyond object size");
  }
  // An in-flight fetch targets the old position's successor; drop it.
  DropPrefetch(/*count_cancelled=*/true);
  pos_ = offset;
  positioned_ = false;  // lazily re-positioned on the next Read
  return Status::OK();
}

StatusOr<uint64_t> LobReader::Read(uint64_t n, uint8_t* out) {
  if (AtEnd() || n == 0) return uint64_t{0};
  if (!positioned_) {
    EOS_RETURN_IF_ERROR(walker_.Seek(pos_));
    positioned_ = true;
    serving_ = false;
    ArmPrefetch();
  }
  uint64_t want = std::min(n, d_.size() - pos_);
  uint64_t done = 0;
  while (done < want) {
    uint64_t in_leaf = walker_.leaf_bytes() - walker_.local();
    if (in_leaf == 0) {
      EOS_ASSIGN_OR_RETURN(bool more, walker_.Next());
      if (!more) break;
      SettlePrefetch();
      ArmPrefetch();
      continue;
    }
    uint64_t chunk = std::min(want - done, in_leaf);
    EOS_RETURN_IF_ERROR(ReadCurrentLeaf(
        walker_.local(), walker_.local() + chunk, out + done));
    done += chunk;
    pos_ += chunk;
    if (chunk == in_leaf) {
      EOS_ASSIGN_OR_RETURN(bool more, walker_.Next());
      if (!more && done < want) break;
      if (more) {
        SettlePrefetch();
        ArmPrefetch();
      }
    } else {
      // Partially consumed leaf: remember the intra-leaf position.
      walker_.ConsumeLocal(chunk);
    }
  }
  return done;
}

}  // namespace eos
