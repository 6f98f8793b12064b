#include "lob/node.h"

#include <cassert>

#include "common/bytes.h"

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

}  // namespace eos
