#include "baselines/exodus/exodus_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/math.h"

namespace eos {

ExodusManager::ExodusManager(Pager* pager, SegmentAllocator* allocator,
                             const ExodusConfig& config)
    : config_(config),
      store_(pager, allocator, allocator->geometry().page_size,
             config.max_root_bytes) {
  if (config_.leaf_pages == 0) config_.leaf_pages = 1;
}

// ----- leaf I/O --------------------------------------------------------------

StatusOr<Bytes> ExodusManager::ReadLeaf(const LobEntry& leaf) {
  // A leaf always occupies leaf_pages blocks; only ceil(count/PS) carry
  // data, and those are the ones transferred.
  Bytes buf(leaf.count);
  EOS_RETURN_IF_ERROR(device()->ReadRange(leaf.page, 0, leaf.count,
                                          buf.data()));
  return buf;
}

Status ExodusManager::WriteLeaf(PageId page, ByteView bytes) {
  assert(bytes.size() <= leaf_capacity());
  uint32_t used = static_cast<uint32_t>(CeilDiv(bytes.size(), page_size()));
  Bytes buf(size_t{used} * page_size(), 0);
  std::memcpy(buf.data(), bytes.data(), bytes.size());
  return device()->WritePages(page, used, buf.data());
}

StatusOr<PageId> ExodusManager::NewLeaf(ByteView bytes) {
  EOS_ASSIGN_OR_RETURN(Extent e, allocator()->Allocate(config_.leaf_pages));
  EOS_RETURN_IF_ERROR(WriteLeaf(e.first, bytes));
  return e.first;
}

Status ExodusManager::FreeLeaf(PageId page) {
  return allocator()->Free(Extent{page, config_.leaf_pages});
}

StatusOr<std::vector<LobEntry>> ExodusManager::WriteLeaves(
    ByteView bytes, PageId reuse_page) {
  std::vector<LobEntry> out;
  if (bytes.empty()) {
    if (reuse_page != kInvalidPage) EOS_RETURN_IF_ERROR(FreeLeaf(reuse_page));
    return out;
  }
  uint64_t cap = leaf_capacity();
  uint64_t q = CeilDiv(bytes.size(), cap);
  uint64_t base = bytes.size() / q;
  uint64_t extra = bytes.size() % q;
  uint64_t pos = 0;
  for (uint64_t i = 0; i < q; ++i) {
    uint64_t len = base + (i < extra ? 1 : 0);
    ByteView chunk = bytes.Slice(pos, len);
    pos += len;
    PageId page;
    if (i == 0 && reuse_page != kInvalidPage) {
      page = reuse_page;
      EOS_RETURN_IF_ERROR(WriteLeaf(page, chunk));
    } else {
      EOS_ASSIGN_OR_RETURN(page, NewLeaf(chunk));
    }
    out.push_back(LobEntry{len, page});
  }
  return out;
}

Status ExodusManager::FreeSubtree(const LobEntry& entry, uint16_t level,
                                  PageId keep_a, PageId keep_b) {
  return store_.FreeSubtree(
      entry, level,
      [this](const LobEntry& e) { return Extent{e.page, config_.leaf_pages}; },
      keep_a, keep_b);
}

// ----- operations ------------------------------------------------------------

StatusOr<LobDescriptor> ExodusManager::CreateFrom(ByteView data) {
  LobDescriptor d = CreateEmpty();
  EOS_RETURN_IF_ERROR(Append(&d, data));
  return d;
}

Status ExodusManager::Append(LobDescriptor* d, ByteView data) {
  if (data.empty()) return Status::OK();
  if (d->empty()) {
    EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> leaves,
                         WriteLeaves(data, kInvalidPage));
    d->root.level = 0;
    d->root.entries = std::move(leaves);
    return store_.FitRoot(d);
  }
  std::vector<PathLevel> path;
  LobEntry leaf;
  uint64_t local = 0;
  EOS_RETURN_IF_ERROR(
      store_.DescendToLeaf(*d, d->size() - 1, &path, &leaf, &local));
  // Fill the last leaf in place; overflow spills into fresh leaves.
  EOS_ASSIGN_OR_RETURN(Bytes tail, ReadLeaf(leaf));
  tail.insert(tail.end(), data.data(), data.data() + data.size());
  EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> repl,
                       WriteLeaves(tail, leaf.page));
  return store_.ReplaceInPath(d, &path, std::move(repl));
}

Status ExodusManager::Read(const LobDescriptor& d, uint64_t offset,
                           uint64_t n, Bytes* out) {
  if (offset > d.size()) {
    return Status::OutOfRange("read offset beyond object size");
  }
  n = std::min(n, d.size() - offset);
  out->clear();
  out->reserve(n);
  uint64_t pos = offset;
  while (out->size() < n) {
    std::vector<PathLevel> path;
    LobEntry leaf;
    uint64_t local = 0;
    EOS_RETURN_IF_ERROR(store_.DescendToLeaf(d, pos, &path, &leaf, &local));
    uint64_t want = std::min(n - out->size(), leaf.count - local);
    size_t at = out->size();
    out->resize(at + want);
    EOS_RETURN_IF_ERROR(device()->ReadRange(leaf.page, local, local + want,
                                            out->data() + at));
    pos += want;
  }
  return Status::OK();
}

StatusOr<Bytes> ExodusManager::ReadAll(const LobDescriptor& d) {
  Bytes out;
  EOS_RETURN_IF_ERROR(Read(d, 0, d.size(), &out));
  return out;
}

Status ExodusManager::Replace(LobDescriptor* d, uint64_t offset,
                              ByteView data) {
  if (offset + data.size() > d->size()) {
    return Status::OutOfRange("replace range beyond object size");
  }
  uint64_t pos = 0;
  while (pos < data.size()) {
    std::vector<PathLevel> path;
    LobEntry leaf;
    uint64_t local = 0;
    EOS_RETURN_IF_ERROR(
        store_.DescendToLeaf(*d, offset + pos, &path, &leaf, &local));
    uint64_t chunk = std::min<uint64_t>(data.size() - pos,
                                        leaf.count - local);
    EOS_ASSIGN_OR_RETURN(Bytes bytes, ReadLeaf(leaf));
    std::memcpy(bytes.data() + local, data.data() + pos, chunk);
    EOS_RETURN_IF_ERROR(WriteLeaf(leaf.page, bytes));
    pos += chunk;
  }
  return Status::OK();
}

Status ExodusManager::Insert(LobDescriptor* d, uint64_t offset,
                             ByteView data) {
  if (offset > d->size()) {
    return Status::OutOfRange("insert offset beyond object size");
  }
  if (data.empty()) return Status::OK();
  if (offset == d->size()) return Append(d, data);
  std::vector<PathLevel> path;
  LobEntry leaf;
  uint64_t local = 0;
  EOS_RETURN_IF_ERROR(store_.DescendToLeaf(*d, offset, &path, &leaf, &local));
  EOS_ASSIGN_OR_RETURN(Bytes bytes, ReadLeaf(leaf));
  bytes.insert(bytes.begin() + local, data.data(),
               data.data() + data.size());
  // In place if it still fits, otherwise split into balanced leaves.
  EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> repl,
                       WriteLeaves(bytes, leaf.page));
  return store_.ReplaceInPath(d, &path, std::move(repl));
}

// ----- delete ---------------------------------------------------------------

struct ExodusManager::LeafSubst {
  PageId s_page = kInvalidPage;
  PageId s2_page = kInvalidPage;
  std::vector<LobEntry> left;
  std::vector<LobEntry> right;
};

StatusOr<LobNode> ExodusManager::DeleteInNode(LobNode node, uint64_t lo,
                                              uint64_t hi,
                                              const LeafSubst& subst) {
  uint64_t off_l = lo;
  int il = node.FindChild(&off_l);
  uint64_t off_r = hi - 1;
  int ir = node.FindChild(&off_r);
  const uint32_t min_entries = std::max<uint32_t>(2, store_.min_entries());

  if (node.level == 0) {
    std::vector<LobEntry> spliced(node.entries.begin(),
                                  node.entries.begin() + il);
    for (int j = il; j <= ir; ++j) {
      const LobEntry& e = node.entries[j];
      if (e.page == subst.s_page) {
        spliced.insert(spliced.end(), subst.left.begin(), subst.left.end());
        if (subst.s2_page == subst.s_page) {
          spliced.insert(spliced.end(), subst.right.begin(),
                         subst.right.end());
        }
      } else if (e.page == subst.s2_page) {
        spliced.insert(spliced.end(), subst.right.begin(),
                       subst.right.end());
      } else {
        EOS_RETURN_IF_ERROR(FreeSubtree(e, 0, subst.s_page, subst.s2_page));
      }
    }
    spliced.insert(spliced.end(), node.entries.begin() + ir + 1,
                   node.entries.end());
    node.entries = std::move(spliced);
    return node;
  }

  for (int j = il + 1; j < ir; ++j) {
    EOS_RETURN_IF_ERROR(FreeSubtree(node.entries[j], node.level, subst.s_page,
                                    subst.s2_page));
  }
  const LobEntry el = node.entries[il];
  const LobEntry er = node.entries[ir];
  std::vector<LobEntry> repl;
  if (il == ir) {
    uint64_t lo_c = off_l;
    uint64_t hi_c = hi - (lo - off_l);
    if (lo_c == 0 && hi_c == el.count) {
      EOS_RETURN_IF_ERROR(
          FreeSubtree(el, node.level, subst.s_page, subst.s2_page));
    } else {
      EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(el.page));
      EOS_ASSIGN_OR_RETURN(LobNode res,
                           DeleteInNode(std::move(child), lo_c, hi_c, subst));
      EOS_ASSIGN_OR_RETURN(
          repl, store_.WriteNodeMaybeSplit(el.page, std::move(res)));
    }
  } else {
    bool have_l = off_l > 0;
    bool have_r = off_r + 1 < er.count;
    LobNode lres, rres;
    if (have_l) {
      EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(el.page));
      EOS_ASSIGN_OR_RETURN(
          lres, DeleteInNode(std::move(child), off_l, el.count, subst));
    } else {
      EOS_RETURN_IF_ERROR(
          FreeSubtree(el, node.level, subst.s_page, subst.s2_page));
    }
    if (have_r) {
      EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(er.page));
      EOS_ASSIGN_OR_RETURN(
          rres, DeleteInNode(std::move(child), 0, off_r + 1, subst));
    } else {
      EOS_RETURN_IF_ERROR(
          FreeSubtree(er, node.level, subst.s_page, subst.s2_page));
    }
    if (have_l && have_r &&
        lres.entries.size() + rres.entries.size() <= store_.capacity()) {
      lres.entries.insert(lres.entries.end(), rres.entries.begin(),
                          rres.entries.end());
      PageId page = el.page;
      EOS_RETURN_IF_ERROR(store_.Write(&page, lres));
      EOS_RETURN_IF_ERROR(store_.FreePage(er.page));
      repl.push_back(LobEntry{lres.Total(), page});
    } else {
      if (have_l) {
        if (have_r && (lres.entries.size() < min_entries ||
                       rres.entries.size() < min_entries)) {
          std::vector<LobEntry> all(std::move(lres.entries));
          all.insert(all.end(), rres.entries.begin(), rres.entries.end());
          size_t half = all.size() / 2;
          lres.entries.assign(all.begin(), all.begin() + half);
          rres.entries.assign(all.begin() + half, all.end());
        }
        EOS_ASSIGN_OR_RETURN(
            std::vector<LobEntry> e1,
            store_.WriteNodeMaybeSplit(el.page, std::move(lres)));
        repl.insert(repl.end(), e1.begin(), e1.end());
      }
      if (have_r) {
        EOS_ASSIGN_OR_RETURN(
            std::vector<LobEntry> e2,
            store_.WriteNodeMaybeSplit(er.page, std::move(rres)));
        repl.insert(repl.end(), e2.begin(), e2.end());
      }
    }
  }
  node.entries.erase(node.entries.begin() + il,
                     node.entries.begin() + ir + 1);
  node.entries.insert(node.entries.begin() + il, repl.begin(), repl.end());
  return node;
}

Status ExodusManager::Delete(LobDescriptor* d, uint64_t offset, uint64_t n) {
  if (offset > d->size()) {
    return Status::OutOfRange("delete offset beyond object size");
  }
  n = std::min(n, d->size() - offset);
  if (n == 0) return Status::OK();
  uint64_t start = offset;
  uint64_t end = offset + n;
  if (start == 0 && end == d->size()) return Destroy(d);

  std::vector<PathLevel> path_l, path_r;
  LobEntry leaf_l, leaf_r;
  uint64_t local_l = 0, local_r = 0;
  EOS_RETURN_IF_ERROR(
      store_.DescendToLeaf(*d, start, &path_l, &leaf_l, &local_l));
  EOS_RETURN_IF_ERROR(
      store_.DescendToLeaf(*d, end - 1, &path_r, &leaf_r, &local_r));
  bool same = leaf_l.page == leaf_r.page;

  LeafSubst subst;
  subst.s_page = leaf_l.page;
  subst.s2_page = leaf_r.page;
  if (same) {
    EOS_ASSIGN_OR_RETURN(Bytes bytes, ReadLeaf(leaf_l));
    bytes.erase(bytes.begin() + local_l, bytes.begin() + local_r + 1);
    EOS_ASSIGN_OR_RETURN(subst.left, WriteLeaves(bytes, leaf_l.page));
  } else {
    EOS_ASSIGN_OR_RETURN(Bytes lbytes, ReadLeaf(leaf_l));
    lbytes.resize(local_l);
    EOS_ASSIGN_OR_RETURN(Bytes rbytes, ReadLeaf(leaf_r));
    rbytes.erase(rbytes.begin(), rbytes.begin() + local_r + 1);
    // Merge the boundary remains into one leaf if they fit (the Exodus
    // delete keeps leaves at least half full by merging with a neighbor).
    if (lbytes.size() + rbytes.size() <= leaf_capacity()) {
      lbytes.insert(lbytes.end(), rbytes.begin(), rbytes.end());
      EOS_ASSIGN_OR_RETURN(subst.left, WriteLeaves(lbytes, leaf_l.page));
      EOS_RETURN_IF_ERROR(FreeLeaf(leaf_r.page));
    } else {
      EOS_ASSIGN_OR_RETURN(subst.left, WriteLeaves(lbytes, leaf_l.page));
      EOS_ASSIGN_OR_RETURN(subst.right, WriteLeaves(rbytes, leaf_r.page));
    }
  }

  EOS_ASSIGN_OR_RETURN(LobNode new_root,
                       DeleteInNode(std::move(d->root), start, end, subst));
  d->root = std::move(new_root);
  EOS_RETURN_IF_ERROR(store_.FitRoot(d));
  return store_.CollapseRoot(d);
}

Status ExodusManager::Destroy(LobDescriptor* d) {
  for (const LobEntry& e : d->root.entries) {
    EOS_RETURN_IF_ERROR(FreeSubtree(e, d->root.level));
  }
  d->root = LobNode{};
  return Status::OK();
}

// ----- stats -----------------------------------------------------------------

StatusOr<LobStats> ExodusManager::Stats(const LobDescriptor& d) {
  LobStats stats;
  stats.size_bytes = d.size();
  stats.depth = d.root.level;
  EOS_RETURN_IF_ERROR(WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t, uint64_t,
          LobNode* node) -> StatusOr<bool> {
        EOS_ASSIGN_OR_RETURN(*node, store_.Load(e.page));
        ++stats.index_pages;
        return true;
      },
      [&](const LobEntry&, uint64_t) {
        stats.AddSegment(config_.leaf_pages);  // fixed allocation, slack incl.
        return Status::OK();
      }));
  stats.Finish(page_size());
  return stats;
}

Status ExodusManager::CheckInvariants(const LobDescriptor& d) {
  return WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t level, uint64_t,
          LobNode* node) -> StatusOr<bool> {
        if (e.count == 0) return Status::Corruption("zero-count entry");
        EOS_ASSIGN_OR_RETURN(*node, store_.Load(e.page));
        if (node->level != level) {
          return Status::Corruption("child node level mismatch");
        }
        if (node->Total() != e.count) {
          return Status::Corruption("child total does not match parent count");
        }
        return true;
      },
      [&](const LobEntry& e, uint64_t) -> Status {
        if (e.count == 0) return Status::Corruption("zero-count entry");
        if (e.count > leaf_capacity()) {
          return Status::Corruption("leaf byte count exceeds leaf capacity");
        }
        return Status::OK();
      });
}

}  // namespace eos
