#include "lob/lob_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "cache/extent_cache.h"
#include "common/math.h"
#include "io/buffer_pool.h"
#include "lob/walker.h"
#include "obs/metric_names.h"
#include "obs/op_tracer.h"
#include "txn/log_manager.h"

namespace eos {

LobManager::LobManager(Pager* pager, SegmentAllocator* allocator,
                       const LobConfig& config)
    : config_(config),
      store_(pager, allocator, allocator->geometry().page_size,
             config.max_root_bytes) {
  uint32_t buddy_max = allocator->geometry().max_segment_pages();
  max_segment_pages_ =
      config.max_segment_pages == 0
          ? buddy_max
          : std::min(config.max_segment_pages, buddy_max);
  if (config_.threshold_pages == 0) config_.threshold_pages = 1;
  if (config_.threshold_pages > max_segment_pages_) {
    config_.threshold_pages = max_segment_pages_;
  }
}

uint32_t LobManager::LeafPages(uint64_t bytes) const {
  return static_cast<uint32_t>(CeilDiv(bytes, page_size()));
}

obs::CostInputs LobManager::CostFacts(const LobDescriptor& d) const {
  obs::CostInputs in;
  in.object_bytes = d.size();
  in.depth = d.root.level;
  in.page_size = page_size();
  in.max_segment_pages = max_segment_pages_;
  return in;
}

uint32_t LobManager::EffectiveThreshold(const LobDescriptor& d,
                                        size_t parent_entries) const {
  uint32_t t = d.threshold_hint == 0 ? config_.threshold_pages
                                     : d.threshold_hint;
  if (t > max_segment_pages_) t = max_segment_pages_;
  if (config_.adaptive_threshold) {
    // [Bili91a]: raise T as the parent index node approaches a split, so
    // segments get coarser exactly when indexing pressure is highest.
    double fill = static_cast<double>(parent_entries) / store_.capacity();
    uint32_t base = t;
    t = static_cast<uint32_t>(t * (1.0 + fill));
    if (t > max_segment_pages_) t = max_segment_pages_;
    if (t < base) t = base;
  }
  return t;
}

// ----- leaf I/O --------------------------------------------------------------

bool LobManager::CacheHasExtent(const Extent& extent) const {
  const ScopedExtentCacheRef::Binding* b = ScopedExtentCacheRef::Current();
  return b != nullptr &&
         b->cache->Contains(b->object_id, b->vseq, extent.first);
}

Status LobManager::ReadLeafBytes(const LeafRef& leaf, uint64_t lo, uint64_t hi,
                                 uint8_t* out) {
  assert(lo <= hi && hi <= leaf.bytes);
  if (lo == hi) return Status::OK();
  const ScopedExtentCacheRef::Binding* cache = ScopedExtentCacheRef::Current();
  if (cache != nullptr) {
    if (cache->cache->Lookup(cache->object_id, cache->vseq, leaf.extent.first,
                             lo, hi, out)) {
      return Status::OK();  // zero-I/O hit off the immutable version extent
    }
    // Miss: fill with the whole extent image so any later touch of this
    // segment hits. The fill reads straight into the exact-size image the
    // cache adopts, and only when the admission sketch says the image
    // would enter: a one-touch cold scan takes the direct read below, at
    // no amplification for a partial range. A partial range never fills
    // under a bounded operation (deadline pressure must not pay for
    // speculative bytes), and nothing fills during emergency-reserve work.
    bool whole = lo == 0 && hi == leaf.bytes;
    const OpContext* op = ScopedOpContext::Current();
    bool skip_fill =
        SegmentAllocator::EmergencyScope::active() ||
        (!whole && op != nullptr && op->bounded()) ||
        !cache->cache->WouldAdmit(cache->object_id, cache->vseq,
                                  leaf.extent.first, leaf.bytes);
    if (!skip_fill) {
      static obs::Counter* fill_fail =
          obs::MetricsRegistry::Default().counter(obs::kCacheFillFail);
      ExtentCache::Image image = ExtentCache::Image::Allocate(leaf.bytes);
      Status s = device()->ReadRange(leaf.extent.first, 0, leaf.bytes,
                                     image.data.get());
      if (s.ok()) {
        std::memcpy(out, image.data.get() + lo, hi - lo);
        cache->cache->Insert(cache->object_id, cache->vseq,
                             leaf.extent.first, std::move(image));
        return Status::OK();
      }
      // A failed fill (injected fault, transient error) throws its image
      // away and degrades to the direct read below, which carries the
      // authoritative retry/report semantics.
      fill_fail->Inc();
    }
  }
  return device()->ReadRange(leaf.extent.first, lo, hi, out);
}

Status LobManager::WriteLeafPages(PageId first, ByteView data) {
  uint32_t ps = page_size();
  uint32_t n = LeafPages(data.size());
  if (n == 0) return Status::OK();
  if (data.size() % ps == 0) {
    return device()->WritePages(first, n, data.data());
  }
  // Pad the trailing partial page with zeroes. The pooled buffer arrives
  // uninitialized, so the tail must be zeroed explicitly.
  BufferPool::Buffer buf = BufferPool::Default()->Acquire(size_t{n} * ps);
  std::memcpy(buf.data(), data.data(), data.size());
  std::memset(buf.data() + data.size(), 0, size_t{n} * ps - data.size());
  return device()->WritePages(first, n, buf.data());
}

StatusOr<std::vector<LobEntry>> LobManager::WriteSegments(ByteView data) {
  static obs::Counter* written =
      obs::MetricsRegistry::Default().counter(obs::kLobSegmentsWritten);
  static obs::Histogram* seg_pages =
      obs::MetricsRegistry::Default().histogram(obs::kLobSegmentPages);
  std::vector<LobEntry> entries;
  uint64_t pos = 0;
  uint64_t max_bytes = uint64_t{max_segment_pages_} * page_size();
  while (pos < data.size()) {
    EOS_RETURN_IF_ERROR(ScopedOpContext::CheckCurrent("lob.write_segments"));
    uint64_t chunk = std::min<uint64_t>(data.size() - pos, max_bytes);
    EOS_ASSIGN_OR_RETURN(Extent e,
                         allocator()->Allocate(LeafPages(chunk)));
    EOS_RETURN_IF_ERROR(WriteLeafPages(e.first, data.Slice(pos, chunk)));
    written->Inc();
    seg_pages->Record(LeafPages(chunk));
    entries.push_back(LobEntry{chunk, e.first});
    pos += chunk;
  }
  return entries;
}

// ----- spine write-back ------------------------------------------------------

Status LobManager::Splice(LobDescriptor* d, std::vector<PathLevel>* path,
                          std::vector<LobEntry> repl) {
  std::function<Status(LobNode*)> compact;
  if (config_.adaptive_threshold) {
    compact = [this](LobNode* n) { return CompactUnsafeRuns(n); };
  }
  EOS_RETURN_IF_ERROR(
      store_.ReplaceInPath(d, path, std::move(repl), compact));
  static obs::Gauge* tree_level =
      obs::MetricsRegistry::Default().gauge(obs::kLobTreeLevel);
  tree_level->Set(d->root.level);
  return Status::OK();
}

// ----- guarded execution -----------------------------------------------------

Status LobManager::RunGuarded(LobDescriptor* d, const char* what,
                              const std::function<Status()>& body) {
  EOS_RETURN_IF_ERROR(ScopedOpContext::CheckCurrent(what));
  SpaceReservation res(allocator());
  if (!res.active()) return body();  // nested: the outer guard unwinds
  LobDescriptor before;
  if (d != nullptr) before = *d;
  Status s = body();
  if (s.ok()) return allocator()->FreeAll(res.Commit());
  // Unwind happens in ~SpaceReservation; put the descriptor back so the
  // caller's handle matches the restored on-disk state.
  if (d != nullptr) *d = before;
  return s;
}

// ----- lifecycle -------------------------------------------------------------

StatusOr<LobDescriptor> LobManager::CreateFrom(ByteView data) {
  obs::ScopedOp span("lob.create_from", 0, device());
  LobDescriptor out;
  Status s = RunGuarded(nullptr, "lob.create_from", [&]() -> Status {
    EOS_ASSIGN_OR_RETURN(out, CreateFromImpl(data));
    return Status::OK();
  });
  span.set_ok(s.ok());
  if (!s.ok()) return s;
  return out;
}

StatusOr<LobDescriptor> LobManager::CreateFromImpl(ByteView data) {
  LobDescriptor d = CreateEmpty();
  LobAppender app(this, &d, data.size());
  EOS_RETURN_IF_ERROR(app.Append(data));
  EOS_RETURN_IF_ERROR(app.Finish());
  return d;
}

Status LobManager::FreeSubtree(const LobEntry& entry, uint16_t level,
                               PageId keep_a, PageId keep_b) {
  return store_.FreeSubtree(
      entry, level, [this](const LobEntry& e) { return LeafOf(e).extent; },
      keep_a, keep_b);
}

Status LobManager::Destroy(LobDescriptor* d) {
  obs::ScopedOp span("lob.destroy", 0, device());
  return span.Close(
      RunGuarded(d, "lob.destroy", [&] { return DestroyImpl(d); }));
}

Status LobManager::DestroyImpl(LobDescriptor* d) {
  if (log_ != nullptr) {
    // The undo image must be captured before the segments are freed.
    EOS_ASSIGN_OR_RETURN(Bytes old, ReadAll(*d));
    EOS_RETURN_IF_ERROR(log_->LogDestroy(d, old));
  }
  for (const LobEntry& e : d->root.entries) {
    EOS_RETURN_IF_ERROR(FreeSubtree(e, d->root.level));
  }
  d->root = LobNode{};
  return Status::OK();
}

// ----- reads -----------------------------------------------------------------

Status LobManager::Read(const LobDescriptor& d, uint64_t offset, uint64_t n,
                        Bytes* out) {
  obs::ScopedOp span("lob.read", 0, device());
  EOS_RETURN_IF_ERROR(span.Close(ScopedOpContext::CheckCurrent("lob.read")));
  span.set_expected_cost(obs::CostOp::kRead,
                         obs::ExpectedReadCost(CostFacts(d), offset, n));
  return span.Close(ReadImpl(d, offset, n, out));
}

Status LobManager::ReadImpl(const LobDescriptor& d, uint64_t offset,
                            uint64_t n, Bytes* out) {
  if (offset > d.size()) {
    return Status::OutOfRange("read offset beyond object size");
  }
  n = std::min(n, d.size() - offset);
  out->resize(n);
  if (n == 0) return Status::OK();
  LeafWalker walker(this, d);
  EOS_RETURN_IF_ERROR(walker.Seek(offset));
  uint64_t done = 0;
  uint64_t local = walker.local();
  if (exec_ != nullptr) {
    // Parallel plan: first walk the index collecting every leaf chunk the
    // range touches (pager-cached descent, cheap), then fan the device
    // transfers out to the executor workers and join. Each chunk lands in
    // its own disjoint slice of *out, so the tasks share nothing.
    struct LeafChunk {
      LeafRef leaf;
      uint64_t lo, hi, out_off;
    };
    std::vector<LeafChunk> chunks;
    while (done < n) {
      uint64_t chunk = std::min(n - done, walker.leaf_bytes() - local);
      chunks.push_back(LeafChunk{walker.leaf_, local, local + chunk, done});
      done += chunk;
      local = 0;
      if (done < n) {
        EOS_ASSIGN_OR_RETURN(bool more, walker.Next());
        if (!more) return Status::Corruption("object ended before its size");
      }
    }
    if (chunks.size() < 2) {
      for (const LeafChunk& c : chunks) {
        EOS_RETURN_IF_ERROR(
            ReadLeafBytes(c.leaf, c.lo, c.hi, out->data() + c.out_off));
      }
      return Status::OK();
    }
    std::vector<std::function<Status()>> tasks;
    tasks.reserve(chunks.size());
    uint8_t* base = out->data();
    // The cache binding is thread-local; copy it by value so the executor
    // workers see the submitting operation's (cache, object, vseq).
    ScopedExtentCacheRef::Binding cache_ref;
    if (const auto* b = ScopedExtentCacheRef::Current()) cache_ref = *b;
    for (const LeafChunk& c : chunks) {
      tasks.push_back([this, &c, base, cache_ref] {
        ScopedExtentCacheRef cache_scope(cache_ref);
        return ReadLeafBytes(c.leaf, c.lo, c.hi, base + c.out_off);
      });
    }
    return exec_->RunBatch(std::move(tasks));
  }
  while (done < n) {
    EOS_RETURN_IF_ERROR(ScopedOpContext::CheckCurrent("lob.read"));
    uint64_t chunk = std::min(n - done, walker.leaf_bytes() - local);
    EOS_RETURN_IF_ERROR(
        walker.ReadLeafBytes(local, local + chunk, out->data() + done));
    done += chunk;
    local = 0;
    if (done < n) {
      EOS_ASSIGN_OR_RETURN(bool more, walker.Next());
      if (!more) return Status::Corruption("object ended before its size");
    }
  }
  return Status::OK();
}

StatusOr<Bytes> LobManager::ReadAll(const LobDescriptor& d) {
  Bytes out;
  EOS_RETURN_IF_ERROR(Read(d, 0, d.size(), &out));
  return out;
}

// ----- replace ---------------------------------------------------------------

Status LobManager::Replace(LobDescriptor* d, uint64_t offset, ByteView data) {
  obs::ScopedOp span("lob.replace", 0, device());
  if (cow_replace_) {
    // MVCC mode: affected segments are rewritten into fresh extents and the
    // spine republished, so a snapshot of the old version keeps reading its
    // own leaf pages; a mid-op failure is repaired by reservation unwind.
    return span.Close(RunGuarded(
        d, "lob.replace", [&] { return ReplaceCowImpl(d, offset, data); }));
  }
  // Replace mutates leaf pages in place under write-ahead logging, so a
  // partial run is repaired by recovery, not by unwind — only the entry
  // deadline gate applies (a mid-loop expiry would leave half-new bytes).
  EOS_RETURN_IF_ERROR(
      span.Close(ScopedOpContext::CheckCurrent("lob.replace")));
  return span.Close(ReplaceImpl(d, offset, data));
}

Status LobManager::ReplaceImpl(LobDescriptor* d, uint64_t offset,
                               ByteView data) {
  if (offset + data.size() > d->size()) {
    return Status::OutOfRange("replace range beyond object size");
  }
  if (data.empty()) return Status::OK();
  if (log_ != nullptr) {
    Bytes old;
    EOS_RETURN_IF_ERROR(Read(*d, offset, data.size(), &old));
    EOS_RETURN_IF_ERROR(log_->LogReplace(d, offset, old, data));
  }
  uint32_t ps = page_size();
  LeafWalker walker(this, *d);
  EOS_RETURN_IF_ERROR(walker.Seek(offset));
  uint64_t done = 0;
  uint64_t local = walker.local();
  while (done < data.size()) {
    uint64_t chunk = std::min<uint64_t>(data.size() - done,
                                        walker.leaf_bytes() - local);
    uint64_t p0 = local / ps;
    uint64_t p1 = (local + chunk - 1) / ps;
    uint32_t npages = static_cast<uint32_t>(p1 - p0 + 1);
    BufferPool::Buffer buf =
        BufferPool::Default()->Acquire(size_t{npages} * ps);
    // Replace updates leaf pages in place (the only operation that does;
    // it is protected by logging rather than shadowing, Section 4.5).
    EOS_RETURN_IF_ERROR(
        device()->ReadPages(walker.extent().first + p0, npages, buf.data()));
    std::memcpy(buf.data() + (local - p0 * ps), data.data() + done, chunk);
    EOS_RETURN_IF_ERROR(
        device()->WritePages(walker.extent().first + p0, npages,
                             buf.data()));
    done += chunk;
    local = 0;
    if (done < data.size()) {
      EOS_ASSIGN_OR_RETURN(bool more, walker.Next());
      if (!more) return Status::Corruption("object ended before its size");
    }
  }
  return Status::OK();
}

Status LobManager::ReplaceCowImpl(LobDescriptor* d, uint64_t offset,
                                  ByteView data) {
  if (offset + data.size() > d->size()) {
    return Status::OutOfRange("replace range beyond object size");
  }
  if (data.empty()) return Status::OK();
  if (log_ != nullptr) {
    Bytes old;
    EOS_RETURN_IF_ERROR(Read(*d, offset, data.size(), &old));
    EOS_RETURN_IF_ERROR(log_->LogReplace(d, offset, old, data));
  }
  // One segment per round: read the whole old segment, overlay the new
  // bytes, write the merged content into a fresh extent of the same page
  // count, splice it into the spine (shadowed), and free the old extent —
  // the free is parked by the enclosing reservation until commit, so a
  // snapshot pinning the old version keeps its bytes.
  uint64_t done = 0;
  while (done < data.size()) {
    EOS_RETURN_IF_ERROR(ScopedOpContext::CheckCurrent("lob.replace"));
    std::vector<PathLevel> path;
    LobEntry e;
    uint64_t local = 0;
    EOS_RETURN_IF_ERROR(
        store_.DescendToLeaf(*d, offset + done, &path, &e, &local));
    const LeafRef leaf = LeafOf(e);
    uint64_t chunk =
        std::min<uint64_t>(data.size() - done, leaf.bytes - local);
    Bytes merged(leaf.bytes);
    EOS_RETURN_IF_ERROR(ReadLeafBytes(leaf, 0, leaf.bytes, merged.data()));
    std::memcpy(merged.data() + local, data.data() + done, chunk);
    EOS_ASSIGN_OR_RETURN(Extent fresh,
                         allocator()->Allocate(leaf.extent.pages));
    EOS_RETURN_IF_ERROR(WriteLeafPages(
        fresh.first, ByteView(merged.data(), merged.size())));
    EOS_RETURN_IF_ERROR(allocator()->Free(leaf.extent));
    EOS_RETURN_IF_ERROR(
        Splice(d, &path, {LobEntry{leaf.bytes, fresh.first}}));
    done += chunk;
  }
  return Status::OK();
}

Status LobManager::Reorganize(LobDescriptor* d) {
  obs::ScopedOp span("lob.reorganize", 0, device());
  return span.Close(
      RunGuarded(d, "lob.reorganize", [&] { return ReorganizeImpl(d); }));
}

Status LobManager::ReorganizeImpl(LobDescriptor* d) {
  if (d->empty()) return Status::OK();
  // Stream the old object into a freshly allocated one, then swap. The
  // copy is chunked, so memory stays bounded for huge objects.
  LobDescriptor fresh = CreateEmpty();
  fresh.lsn = d->lsn;
  {
    LobAppender app(this, &fresh, d->size());
    LobReader reader(this, *d);
    const uint64_t kChunk = uint64_t{4} << 20;
    Bytes buf(std::min(kChunk, d->size()));
    while (!reader.AtEnd()) {
      EOS_ASSIGN_OR_RETURN(uint64_t got, reader.Read(buf.size(), buf.data()));
      if (got == 0) break;
      EOS_RETURN_IF_ERROR(app.Append(ByteView(buf.data(), got)));
    }
    EOS_RETURN_IF_ERROR(app.Finish());
  }
  if (fresh.size() != d->size()) {
    return Status::Corruption("reorganize produced a different size");
  }
  {
    ScopedLogSuspend suspend(this);  // content-neutral: nothing to log
    EOS_RETURN_IF_ERROR(Destroy(d));
  }
  *d = std::move(fresh);
  return Status::OK();
}

Status LobManager::Write(LobDescriptor* d, uint64_t offset, ByteView data) {
  obs::ScopedOp span("lob.write", 0, device());
  if (offset > d->size()) {
    return span.Close(Status::OutOfRange("write offset beyond object size"));
  }
  uint64_t overlap = std::min<uint64_t>(data.size(), d->size() - offset);
  if (overlap > 0) {
    Status s = Replace(d, offset, data.Slice(0, overlap));
    if (!s.ok()) return span.Close(std::move(s));
  }
  if (overlap < data.size()) {
    Status s = Append(d, data.Slice(overlap, data.size() - overlap));
    if (!s.ok()) return span.Close(std::move(s));
  }
  return span.Close(Status::OK());
}

Status LobManager::Truncate(LobDescriptor* d, uint64_t new_size) {
  obs::ScopedOp span("lob.truncate", 0, device());
  if (new_size > d->size()) {
    return span.Close(Status::OutOfRange("truncate beyond object size"));
  }
  return span.Close(Delete(d, new_size, d->size() - new_size));
}

// ----- stats & invariants ----------------------------------------------------

void LobStats::AddSegment(uint64_t pages) {
  ++num_segments;
  leaf_pages += pages;
  min_segment_pages =
      num_segments == 1 ? pages : std::min(min_segment_pages, pages);
  max_segment_pages = std::max(max_segment_pages, pages);
}

void LobStats::Finish(uint32_t page_size) {
  if (num_segments > 0) {
    avg_segment_pages = static_cast<double>(leaf_pages) / num_segments;
  }
  if (leaf_pages > 0) {
    leaf_utilization = static_cast<double>(size_bytes) /
                       (static_cast<double>(leaf_pages) * page_size);
    total_utilization =
        static_cast<double>(size_bytes) /
        (static_cast<double>(leaf_pages + index_pages) * page_size);
  }
}

StatusOr<LobStats> LobManager::Stats(const LobDescriptor& d) {
  LobStats stats;
  stats.size_bytes = d.size();
  stats.depth = d.root.level;
  EOS_RETURN_IF_ERROR(WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t, uint64_t,
          LobNode* node) -> StatusOr<bool> {
        EOS_ASSIGN_OR_RETURN(*node, store_.Load(e.page));
        ++stats.index_pages;
        if (node->entries.size() < store_.min_entries()) {
          ++stats.underfull_nodes;
        }
        return true;
      },
      [&](const LobEntry& e, uint64_t) {
        uint64_t pages = LeafPages(e.count);
        stats.AddSegment(pages);
        if (pages < config_.threshold_pages) ++stats.unsafe_segments;
        return Status::OK();
      }));
  stats.Finish(page_size());
  return stats;
}

Status LobManager::CheckInvariants(const LobDescriptor& d) {
  if (d.root.entries.size() > root_capacity()) {
    return Status::Corruption("root exceeds its configured capacity");
  }
  if (d.root.level > 0 && d.root.entries.size() == 1) {
    // Transient single-child roots are collapsed by every update; finding
    // one at rest means CollapseRoot was skipped.
    EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(d.root.entries[0].page));
    if (child.entries.size() <= root_capacity()) {
      return Status::Corruption("uncollapsed single-child root");
    }
  }
  return WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t level, uint64_t,
          LobNode* node) -> StatusOr<bool> {
        if (e.count == 0) return Status::Corruption("zero-count entry");
        EOS_ASSIGN_OR_RETURN(bool node_live,
                             allocator()->IsAllocated(Extent{e.page, 1}));
        if (!node_live) {
          return Status::Corruption("index node page " +
                                    std::to_string(e.page) +
                                    " references unallocated storage");
        }
        EOS_ASSIGN_OR_RETURN(*node, store_.Load(e.page));
        if (node->level != level) {
          return Status::Corruption("child node level mismatch");
        }
        if (node->Total() != e.count) {
          return Status::Corruption("child subtree total does not match "
                                    "parent entry count");
        }
        if (node->entries.empty() ||
            node->entries.size() > store_.capacity()) {
          return Status::Corruption("index node entry count out of range");
        }
        // Non-root nodes normally hold >= 2 entries; children of a small
        // client root are exempt (see DESIGN.md).
        if (level + 1 != d.root.level && node->entries.size() < 2) {
          return Status::Corruption("internal node with a single entry");
        }
        return true;
      },
      [&](const LobEntry& e, uint64_t) -> Status {
        if (e.count == 0) return Status::Corruption("zero-count entry");
        if (e.page == kInvalidPage) {
          return Status::Corruption("leaf entry without segment address");
        }
        // Cross-check against the buddy system: the segment's pages must be
        // live allocations (a dangling reference would read freed storage).
        EOS_ASSIGN_OR_RETURN(bool live,
                             allocator()->IsAllocated(LeafOf(e).extent));
        if (!live) {
          return Status::Corruption("leaf segment at page " +
                                    std::to_string(e.page) +
                                    " references unallocated storage");
        }
        return Status::OK();
      });
}

Status LobManager::CollectExtents(const LobDescriptor& d,
                                  std::vector<Extent>* out) {
  return WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t, uint64_t,
          LobNode* node) -> StatusOr<bool> {
        out->push_back(Extent{e.page, 1});
        EOS_ASSIGN_OR_RETURN(*node, store_.Load(e.page));
        return true;
      },
      [&](const LobEntry& e, uint64_t) {
        out->push_back(LeafOf(e).extent);
        return Status::OK();
      });
}

}  // namespace eos
