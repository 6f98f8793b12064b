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
      store_(pager, allocator, allocator->geometry().page_size) {
  uint32_t buddy_max = allocator->geometry().max_segment_pages();
  max_segment_pages_ =
      config.max_segment_pages == 0
          ? buddy_max
          : std::min(config.max_segment_pages, buddy_max);
  uint32_t root_bytes =
      config.max_root_bytes == 0 ? page_size() : config.max_root_bytes;
  root_capacity_ = std::max<uint32_t>(
      2, std::min(LobDescriptor::MaxEntriesFor(root_bytes),
                  NodeFormat::Capacity(page_size())));
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

// ----- descent ---------------------------------------------------------------

Status LobManager::DescendToLeaf(const LobDescriptor& d, uint64_t offset,
                                 std::vector<PathLevel>* path, LeafRef* leaf,
                                 uint64_t* local) const {
  if (offset >= d.size()) {
    return Status::OutOfRange("offset beyond object size");
  }
  path->clear();
  PathLevel level;
  level.page = kInvalidPage;
  level.node = d.root;
  uint64_t off = offset;
  for (;;) {
    level.child_idx = level.node.FindChild(&off);
    const LobEntry& e = level.node.entries[level.child_idx];
    uint16_t child_level = level.node.level;
    path->push_back(level);
    if (child_level == 0) {
      leaf->extent = Extent{e.page, LeafPages(e.count)};
      leaf->bytes = e.count;
      *local = off;
      return Status::OK();
    }
    PathLevel next;
    next.page = e.page;
    auto node = const_cast<NodeStore&>(store_).Load(e.page);
    if (!node.ok()) return node.status();
    next.node = std::move(node).value();
    if (next.node.level != child_level - 1) {
      return Status::Corruption("index node level mismatch");
    }
    level = std::move(next);
  }
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
    // segment hits. A partial-range miss would amplify the fill into a
    // whole-extent over-read, so it pays that only when the admission
    // sketch says the extent would actually enter the cache — a one-touch
    // cold scan takes the direct read below at no amplification — and
    // never under a bounded operation (deadline pressure must not pay for
    // speculative bytes) or during emergency-reserve work.
    bool whole = lo == 0 && hi == leaf.bytes;
    const OpContext* op = ScopedOpContext::Current();
    bool skip_fill =
        SegmentAllocator::EmergencyScope::active() ||
        (!whole &&
         ((op != nullptr && op->bounded()) ||
          !cache->cache->WouldAdmit(cache->object_id, cache->vseq,
                                    leaf.extent.first, leaf.bytes)));
    if (!skip_fill) {
      static obs::Counter* fill_fail =
          obs::MetricsRegistry::Default().counter(obs::kCacheFillFail);
      uint32_t npages = LeafPages(leaf.bytes);
      BufferPool::Buffer buf =
          BufferPool::Default()->Acquire(size_t{npages} * page_size());
      Status s = device()->ReadPages(leaf.extent.first, npages, buf.data());
      if (s.ok()) {
        std::memcpy(out, buf.data() + lo, hi - lo);
        cache->cache->Insert(cache->object_id, cache->vseq,
                             leaf.extent.first, buf.data(), leaf.bytes);
        return Status::OK();
      }
      // A failed fill (injected fault, transient error) degrades to the
      // direct read below, which carries the authoritative retry/report
      // semantics.
      fill_fail->Inc();
    }
  }
  uint32_t ps = page_size();
  uint64_t p0 = lo / ps;
  uint64_t p1 = (hi - 1) / ps;
  uint32_t n = static_cast<uint32_t>(p1 - p0 + 1);
  if (lo % ps == 0 && (hi - lo) % ps == 0) {
    // Page-aligned range: transfer straight into the caller's buffer,
    // no staging copy at all.
    return device()->ReadPages(leaf.extent.first + p0, n, out);
  }
  BufferPool::Buffer buf = BufferPool::Default()->Acquire(size_t{n} * ps);
  EOS_RETURN_IF_ERROR(
      device()->ReadPages(leaf.extent.first + p0, n, buf.data()));
  std::memcpy(out, buf.data() + (lo - p0 * ps), hi - lo);
  return Status::OK();
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

StatusOr<std::vector<LobEntry>> LobManager::WriteNodeMaybeSplit(
    PageId orig_page, LobNode&& node) {
  uint32_t cap = store_.capacity();
  std::vector<LobEntry> out;
  if (node.entries.size() <= cap) {
    if (node.entries.empty()) {
      if (orig_page != kInvalidPage) {
        EOS_RETURN_IF_ERROR(store_.FreePage(orig_page));
      }
      return out;
    }
    PageId page = orig_page;
    if (page == kInvalidPage) {
      EOS_ASSIGN_OR_RETURN(page, store_.WriteNew(node));
    } else {
      EOS_RETURN_IF_ERROR(store_.Write(&page, node));
    }
    out.push_back(LobEntry{node.Total(), page});
    return out;
  }
  // Split into evenly sized chunks, each at least half full.
  size_t n = node.entries.size();
  size_t q = CeilDiv(n, cap);
  size_t base = n / q;
  size_t extra = n % q;
  size_t pos = 0;
  for (size_t i = 0; i < q; ++i) {
    size_t len = base + (i < extra ? 1 : 0);
    LobNode chunk;
    chunk.level = node.level;
    chunk.entries.assign(node.entries.begin() + pos,
                         node.entries.begin() + pos + len);
    pos += len;
    PageId page;
    if (i == 0 && orig_page != kInvalidPage) {
      page = orig_page;
      EOS_RETURN_IF_ERROR(store_.Write(&page, chunk));
    } else {
      EOS_ASSIGN_OR_RETURN(page, store_.WriteNew(chunk));
    }
    out.push_back(LobEntry{chunk.Total(), page});
  }
  return out;
}

Status LobManager::ReplaceInPath(LobDescriptor* d,
                                 std::vector<PathLevel>* path,
                                 std::vector<LobEntry> repl) {
  for (size_t i = path->size(); i-- > 1;) {
    PathLevel& lvl = (*path)[i];
    lvl.node.entries.erase(lvl.node.entries.begin() + lvl.child_idx);
    lvl.node.entries.insert(lvl.node.entries.begin() + lvl.child_idx,
                            repl.begin(), repl.end());
    if (config_.adaptive_threshold && lvl.node.level == 0 &&
        lvl.node.entries.size() > store_.capacity()) {
      EOS_RETURN_IF_ERROR(CompactUnsafeRuns(&lvl.node));
    }
    EOS_ASSIGN_OR_RETURN(repl,
                         WriteNodeMaybeSplit(lvl.page, std::move(lvl.node)));
  }
  PathLevel& top = path->front();
  assert(top.page == kInvalidPage);
  top.node.entries.erase(top.node.entries.begin() + top.child_idx);
  top.node.entries.insert(top.node.entries.begin() + top.child_idx,
                          repl.begin(), repl.end());
  d->root = std::move(top.node);
  EOS_RETURN_IF_ERROR(FitRoot(d));
  EOS_RETURN_IF_ERROR(CollapseRoot(d));
  static obs::Gauge* tree_level =
      obs::MetricsRegistry::Default().gauge(obs::kLobTreeLevel);
  tree_level->Set(d->root.level);
  return Status::OK();
}

Status LobManager::FitRoot(LobDescriptor* d) {
  uint32_t cap = store_.capacity();
  while (d->root.entries.size() > root_capacity_) {
    size_t n = d->root.entries.size();
    // q == 1 yields the stable single-child root (CollapseRoot will not
    // re-pull a child larger than the root capacity); q >= 2 chunks are
    // each at least two entries because node capacity is at least 3.
    size_t q = CeilDiv(n, cap);
    size_t base = n / q;
    size_t extra = n % q;
    LobNode new_root;
    new_root.level = d->root.level + 1;
    size_t pos = 0;
    for (size_t i = 0; i < q; ++i) {
      size_t len = base + (i < extra ? 1 : 0);
      LobNode child;
      child.level = d->root.level;
      child.entries.assign(d->root.entries.begin() + pos,
                           d->root.entries.begin() + pos + len);
      pos += len;
      EOS_ASSIGN_OR_RETURN(PageId page, store_.WriteNew(child));
      new_root.entries.push_back(LobEntry{child.Total(), page});
    }
    d->root = std::move(new_root);
  }
  return Status::OK();
}

Status LobManager::CollapseRoot(LobDescriptor* d) {
  while (d->root.level > 0 && d->root.entries.size() == 1) {
    PageId child_page = d->root.entries[0].page;
    EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(child_page));
    if (child.entries.size() > root_capacity_) break;
    EOS_RETURN_IF_ERROR(store_.FreePage(child_page));
    d->root = std::move(child);
  }
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

Status LobManager::FreeSubtree(const LobEntry& entry, uint16_t level) {
  if (level == 0) {
    return allocator()->Free(Extent{entry.page, LeafPages(entry.count)});
  }
  EOS_ASSIGN_OR_RETURN(LobNode node, store_.Load(entry.page));
  for (const LobEntry& e : node.entries) {
    EOS_RETURN_IF_ERROR(FreeSubtree(e, level - 1));
  }
  return store_.FreePage(entry.page);
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
  obs::CostScope cost(obs::CostOp::kRead,
                      obs::ExpectedReadCost(CostFacts(d), offset, n),
                      device());
  Status s = ReadImpl(d, offset, n, out);
  cost.set_ok(s.ok());
  return span.Close(std::move(s));
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
    LeafRef leaf;
    uint64_t local = 0;
    EOS_RETURN_IF_ERROR(
        DescendToLeaf(*d, offset + done, &path, &leaf, &local));
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
        ReplaceInPath(d, &path, {LobEntry{leaf.bytes, fresh.first}}));
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

Status LobManager::WalkStats(const LobEntry& entry, uint16_t level,
                             LobStats* stats) {
  if (level == 0) {
    uint64_t pages = LeafPages(entry.count);
    ++stats->num_segments;
    stats->leaf_pages += pages;
    stats->min_segment_pages = stats->num_segments == 1
                                   ? pages
                                   : std::min(stats->min_segment_pages, pages);
    stats->max_segment_pages = std::max(stats->max_segment_pages, pages);
    if (pages < config_.threshold_pages) ++stats->unsafe_segments;
    return Status::OK();
  }
  EOS_ASSIGN_OR_RETURN(LobNode node, store_.Load(entry.page));
  ++stats->index_pages;
  if (node.entries.size() < store_.min_entries()) ++stats->underfull_nodes;
  for (const LobEntry& e : node.entries) {
    EOS_RETURN_IF_ERROR(WalkStats(e, level - 1, stats));
  }
  return Status::OK();
}

StatusOr<LobStats> LobManager::Stats(const LobDescriptor& d) {
  LobStats stats;
  stats.size_bytes = d.size();
  stats.depth = d.root.level;
  for (const LobEntry& e : d.root.entries) {
    EOS_RETURN_IF_ERROR(WalkStats(e, d.root.level, &stats));
  }
  if (stats.num_segments > 0) {
    stats.avg_segment_pages =
        static_cast<double>(stats.leaf_pages) / stats.num_segments;
  }
  if (stats.leaf_pages > 0) {
    stats.leaf_utilization = static_cast<double>(stats.size_bytes) /
                             (static_cast<double>(stats.leaf_pages) *
                              page_size());
    stats.total_utilization =
        static_cast<double>(stats.size_bytes) /
        (static_cast<double>(stats.leaf_pages + stats.index_pages) *
         page_size());
  }
  return stats;
}

Status LobManager::WalkCheck(const LobEntry& entry, uint16_t level,
                             bool is_root_child) {
  if (entry.count == 0) {
    return Status::Corruption("zero-count entry");
  }
  if (level == 0) {
    if (entry.page == kInvalidPage) {
      return Status::Corruption("leaf entry without segment address");
    }
    // Cross-check against the buddy system: the segment's pages must be
    // live allocations (a dangling reference would read freed storage).
    EOS_ASSIGN_OR_RETURN(
        bool live,
        allocator()->IsAllocated(Extent{entry.page, LeafPages(entry.count)}));
    if (!live) {
      return Status::Corruption("leaf segment at page " +
                                std::to_string(entry.page) +
                                " references unallocated storage");
    }
    return Status::OK();
  }
  EOS_ASSIGN_OR_RETURN(bool node_live,
                       allocator()->IsAllocated(Extent{entry.page, 1}));
  if (!node_live) {
    return Status::Corruption("index node page " +
                              std::to_string(entry.page) +
                              " references unallocated storage");
  }
  EOS_ASSIGN_OR_RETURN(LobNode node, store_.Load(entry.page));
  if (node.level != level - 1) {
    return Status::Corruption("child node level mismatch");
  }
  if (node.Total() != entry.count) {
    return Status::Corruption("child subtree total does not match parent "
                              "entry count");
  }
  if (node.entries.empty() || node.entries.size() > store_.capacity()) {
    return Status::Corruption("index node entry count out of range");
  }
  // Non-root nodes normally hold >= 2 entries; children of a small client
  // root are exempt (see DESIGN.md).
  if (!is_root_child && node.entries.size() < 2) {
    return Status::Corruption("internal node with a single entry");
  }
  for (const LobEntry& e : node.entries) {
    EOS_RETURN_IF_ERROR(WalkCheck(e, level - 1, false));
  }
  return Status::OK();
}

Status LobManager::CheckInvariants(const LobDescriptor& d) {
  if (d.root.entries.size() > root_capacity_) {
    return Status::Corruption("root exceeds its configured capacity");
  }
  if (d.root.level > 0 && d.root.entries.size() == 1) {
    // Transient single-child roots are collapsed by every update; finding
    // one at rest means CollapseRoot was skipped.
    EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(d.root.entries[0].page));
    if (child.entries.size() <= root_capacity_) {
      return Status::Corruption("uncollapsed single-child root");
    }
  }
  for (const LobEntry& e : d.root.entries) {
    EOS_RETURN_IF_ERROR(WalkCheck(e, d.root.level, true));
  }
  return Status::OK();
}

Status LobManager::WalkCollect(const LobEntry& entry, uint16_t level,
                               std::vector<Extent>* out) {
  if (level == 0) {
    out->push_back(Extent{entry.page, LeafPages(entry.count)});
    return Status::OK();
  }
  out->push_back(Extent{entry.page, 1});
  EOS_ASSIGN_OR_RETURN(LobNode node, store_.Load(entry.page));
  for (const LobEntry& e : node.entries) {
    EOS_RETURN_IF_ERROR(WalkCollect(e, level - 1, out));
  }
  return Status::OK();
}

Status LobManager::CollectExtents(const LobDescriptor& d,
                                  std::vector<Extent>* out) {
  for (const LobEntry& e : d.root.entries) {
    EOS_RETURN_IF_ERROR(WalkCollect(e, d.root.level, out));
  }
  return Status::OK();
}

}  // namespace eos
