#include "lob/node.h"

#include <algorithm>
#include <cassert>

#include "common/bytes.h"
#include "common/math.h"
#include "lob/descriptor.h"

namespace eos {

int LobNode::FindChild(uint64_t* offset) const {
  assert(!entries.empty());
  // Binary search over cumulative counts: smallest i with cum(i) > offset.
  // Cumulative counts are reconstructed on the fly from totals.
  uint64_t off = *offset;
  uint64_t cum = 0;
  // Entries are few (<= page/16); linear scan is cache-friendly and avoids
  // materializing the cumulative array. The on-disk search (Section 4.2)
  // binary-searches the serialized cumulative form.
  for (size_t i = 0; i < entries.size(); ++i) {
    if (off < cum + entries[i].count) {
      *offset = off - cum;
      return static_cast<int>(i);
    }
    cum += entries[i].count;
  }
  assert(false && "offset beyond subtree total");
  return static_cast<int>(entries.size()) - 1;
}

void NodeFormat::Serialize(const LobNode& node, uint8_t* page,
                           uint32_t page_size) {
  (void)page_size;
  assert(node.entries.size() <= Capacity(page_size));
  EncodeU16(page, kMagic);
  EncodeU16(page + 2, static_cast<uint16_t>(node.entries.size()));
  EncodeU16(page + 4, node.level);
  EncodeU16(page + 6, 0);
  uint64_t cum = 0;
  uint8_t* p = page + kHeaderBytes;
  for (const LobEntry& e : node.entries) {
    cum += e.count;
    EncodeU64(p, cum);
    EncodeU64(p + 8, e.page);
    p += kEntryBytes;
  }
}

Status NodeFormat::Deserialize(const uint8_t* page, uint32_t page_size,
                               LobNode* node) {
  if (DecodeU16(page) != kMagic) {
    return Status::Corruption("large-object index node magic mismatch");
  }
  uint16_t n = DecodeU16(page + 2);
  if (n > Capacity(page_size)) {
    return Status::Corruption("index node entry count exceeds capacity");
  }
  node->level = DecodeU16(page + 4);
  node->entries.clear();
  node->entries.reserve(n);
  uint64_t prev = 0;
  const uint8_t* p = page + kHeaderBytes;
  for (uint16_t i = 0; i < n; ++i) {
    uint64_t cum = DecodeU64(p);
    if (cum <= prev) {
      return Status::Corruption("index node counts not strictly increasing");
    }
    node->entries.push_back(LobEntry{cum - prev, DecodeU64(p + 8)});
    prev = cum;
    p += kEntryBytes;
  }
  return Status::OK();
}

NodeStore::NodeStore(Pager* pager, SegmentAllocator* allocator,
                     uint32_t page_size, uint32_t max_root_bytes)
    : pager_(pager), allocator_(allocator), page_size_(page_size) {
  uint32_t root_bytes = max_root_bytes == 0 ? page_size : max_root_bytes;
  root_capacity_ = std::max<uint32_t>(
      2, std::min(LobDescriptor::MaxEntriesFor(root_bytes),
                  NodeFormat::Capacity(page_size)));
}

StatusOr<LobNode> NodeStore::Load(PageId page) {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
  LobNode node;
  EOS_RETURN_IF_ERROR(NodeFormat::Deserialize(h.data(), page_size_, &node));
  return node;
}

Status NodeStore::Write(PageId* page, const LobNode& node) {
  if (shadowing_) {
    EOS_ASSIGN_OR_RETURN(PageId fresh, WriteNew(node));
    EOS_RETURN_IF_ERROR(FreePage(*page));
    *page = fresh;
    return Status::OK();
  }
  // In-place overwrite: under a reservation, save the pre-op image first so
  // a mid-operation failure can put the spine back exactly.
  if (SpaceReservation* res = SpaceReservation::ActiveFor(allocator_)) {
    EOS_ASSIGN_OR_RETURN(PageHandle old, pager_->Fetch(*page));
    res->RecordPageImage(*page, old.data(), page_size_);
  }
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Zeroed(*page));
  NodeFormat::Serialize(node, h.data(), page_size_);
  h.MarkDirty();
  return Status::OK();
}

StatusOr<PageId> NodeStore::WriteNew(const LobNode& node) {
  EOS_ASSIGN_OR_RETURN(Extent e, allocator_->Allocate(1));
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Zeroed(e.first));
  NodeFormat::Serialize(node, h.data(), page_size_);
  h.MarkDirty();
  return e.first;
}

Status NodeStore::FreePage(PageId page) {
  // The page's cached frame stays: the free may only be parked (by a
  // reservation, or as a superseded version's retired storage), and the
  // frame can be the only good copy of the page. The allocator drops it
  // once the page is really free.
  return allocator_->Free(Extent{page, 1});
}

// ----- descent ---------------------------------------------------------------

Status NodeStore::DescendToLeaf(const LobDescriptor& d, uint64_t offset,
                                std::vector<PathLevel>* path, LobEntry* leaf,
                                uint64_t* local) {
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
      *leaf = e;
      *local = off;
      return Status::OK();
    }
    PathLevel next;
    next.page = e.page;
    EOS_ASSIGN_OR_RETURN(next.node, Load(e.page));
    if (next.node.level != child_level - 1) {
      return Status::Corruption("index node level mismatch");
    }
    level = std::move(next);
  }
}

StatusOr<bool> NodeStore::NextLeaf(std::vector<PathLevel>* path,
                                   LobEntry* leaf) {
  // Pop exhausted levels, then advance and descend leftmost.
  while (!path->empty() &&
         path->back().child_idx + 1 >=
             static_cast<int>(path->back().node.entries.size())) {
    path->pop_back();
  }
  if (path->empty()) return false;
  ++path->back().child_idx;
  for (;;) {
    PathLevel& top = path->back();
    const LobEntry& e = top.node.entries[top.child_idx];
    if (top.node.level == 0) {
      *leaf = e;
      return true;
    }
    PathLevel next;
    next.page = e.page;
    EOS_ASSIGN_OR_RETURN(next.node, Load(e.page));
    next.child_idx = 0;
    path->push_back(std::move(next));
  }
}

// ----- write-back ------------------------------------------------------------

StatusOr<std::vector<LobEntry>> NodeStore::WriteNodeMaybeSplit(
    PageId orig_page, LobNode&& node) {
  uint32_t cap = capacity();
  std::vector<LobEntry> out;
  if (node.entries.size() <= cap) {
    if (node.entries.empty()) {
      if (orig_page != kInvalidPage) {
        EOS_RETURN_IF_ERROR(FreePage(orig_page));
      }
      return out;
    }
    PageId page = orig_page;
    if (page == kInvalidPage) {
      EOS_ASSIGN_OR_RETURN(page, WriteNew(node));
    } else {
      EOS_RETURN_IF_ERROR(Write(&page, node));
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
      EOS_RETURN_IF_ERROR(Write(&page, chunk));
    } else {
      EOS_ASSIGN_OR_RETURN(page, WriteNew(chunk));
    }
    out.push_back(LobEntry{chunk.Total(), page});
  }
  return out;
}

Status NodeStore::ReplaceInPath(
    LobDescriptor* d, std::vector<PathLevel>* path,
    std::vector<LobEntry> repl,
    const std::function<Status(LobNode*)>& before_split) {
  for (size_t i = path->size(); i-- > 1;) {
    PathLevel& lvl = (*path)[i];
    lvl.node.entries.erase(lvl.node.entries.begin() + lvl.child_idx);
    lvl.node.entries.insert(lvl.node.entries.begin() + lvl.child_idx,
                            repl.begin(), repl.end());
    if (before_split && lvl.node.level == 0 &&
        lvl.node.entries.size() > capacity()) {
      EOS_RETURN_IF_ERROR(before_split(&lvl.node));
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
  return CollapseRoot(d);
}

Status NodeStore::FitRoot(LobDescriptor* d) {
  uint32_t cap = capacity();
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
      EOS_ASSIGN_OR_RETURN(PageId page, WriteNew(child));
      new_root.entries.push_back(LobEntry{child.Total(), page});
    }
    d->root = std::move(new_root);
  }
  return Status::OK();
}

Status NodeStore::CollapseRoot(LobDescriptor* d) {
  while (d->root.level > 0 && d->root.entries.size() == 1) {
    PageId child_page = d->root.entries[0].page;
    EOS_ASSIGN_OR_RETURN(LobNode child, Load(child_page));
    if (child.entries.size() > root_capacity_) break;
    EOS_RETURN_IF_ERROR(FreePage(child_page));
    d->root = std::move(child);
  }
  return Status::OK();
}

}  // namespace eos
