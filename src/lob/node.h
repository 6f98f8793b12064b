#ifndef EOS_LOB_NODE_H_
#define EOS_LOB_NODE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "buddy/segment_allocator.h"
#include "common/status.h"
#include "io/pager.h"

namespace eos {

// One (count, page) pair of a positional-tree node. On disk, counts are
// cumulative within the node (the paper's c[i]); in memory we keep each
// child's *total* byte count, which makes splicing entries trivial.
struct LobEntry {
  uint64_t count = 0;  // bytes stored in the child subtree / leaf segment
  PageId page = kInvalidPage;
};

inline bool operator==(const LobEntry& a, const LobEntry& b) {
  return a.count == b.count && a.page == b.page;
}

// An in-memory positional-tree node.
//
// level == 0: entries point to leaf segments. A leaf segment holding C
// bytes occupies exactly ceil(C / page_size) physically contiguous pages
// (segments have no holes; only the last page may be partial), so no
// separate size field is needed — precisely the paper's representation.
//
// level >= 1: entries point to index nodes of level - 1.
struct LobNode {
  uint16_t level = 0;
  std::vector<LobEntry> entries;

  uint64_t Total() const {
    uint64_t t = 0;
    for (const LobEntry& e : entries) t += e.count;
    return t;
  }

  // Smallest index i with cumulative_count(i) > offset, i.e. the child
  // holding byte `offset`; also rebases *offset to be child-relative.
  // offset must be < Total().
  int FindChild(uint64_t* offset) const;
};

// On-page node image:
//   [magic u16][nentries u16][level u16][reserved u16]
//   [cumulative_count u64][page u64] x nentries
class NodeFormat {
 public:
  static constexpr uint16_t kMagic = 0x10B1;
  static constexpr uint32_t kHeaderBytes = 8;
  static constexpr uint32_t kEntryBytes = 16;

  // Entries that fit in one page of `page_size` bytes.
  static uint32_t Capacity(uint32_t page_size) {
    return (page_size - kHeaderBytes) / kEntryBytes;
  }
  // Minimum entries of a non-root node ("half full to completely full").
  static uint32_t MinEntries(uint32_t page_size) {
    return Capacity(page_size) / 2;
  }

  static void Serialize(const LobNode& node, uint8_t* page,
                        uint32_t page_size);
  static Status Deserialize(const uint8_t* page, uint32_t page_size,
                            LobNode* node);
};

// One level of a root-to-leaf path (the ancestor stack of Section 4.2):
// a copy of the node and the child the path takes. The root level holds
// the descriptor's root, which lives in no page.
struct PathLevel {
  PageId page = kInvalidPage;  // kInvalidPage for the root level
  LobNode node;
  int child_idx = -1;
};

struct LobDescriptor;

// Loads, writes, allocates and frees index-node pages, and runs the
// positional tree's spine on them: descent, write-back with splits, and
// the root fit. EOS and the Exodus baseline share all of it; they differ
// only in their leaves. Node pages are 1-page segments from the buddy
// system and go through the pager (they are hot and revisited); leaf
// segment data never does.
//
// When `shadow` is on, WriteExisting allocates a fresh page and returns its
// id instead of overwriting — the shadow-paging mode of Section 4.5 for
// index pages (leaf pages are never overwritten by insert/delete/append by
// construction).
class NodeStore {
 public:
  // `max_root_bytes` bounds the client-placed root (0 = one page).
  NodeStore(Pager* pager, SegmentAllocator* allocator, uint32_t page_size,
            uint32_t max_root_bytes);

  uint32_t capacity() const { return NodeFormat::Capacity(page_size_); }
  uint32_t min_entries() const { return NodeFormat::MinEntries(page_size_); }
  uint32_t page_size() const { return page_size_; }
  // Entries the root may hold: what max_root_bytes admits, at most one
  // node's capacity and at least 2.
  uint32_t root_capacity() const { return root_capacity_; }

  StatusOr<LobNode> Load(PageId page);

  // Writes `node` to `page`; if shadowing is enabled, writes to a newly
  // allocated page, frees the old one, and stores the new id in *page.
  Status Write(PageId* page, const LobNode& node);

  // Writes `node` to a freshly allocated page.
  StatusOr<PageId> WriteNew(const LobNode& node);

  Status FreePage(PageId page);

  void set_shadowing(bool on) { shadowing_ = on; }
  bool shadowing() const { return shadowing_; }

  Pager* pager() { return pager_; }
  SegmentAllocator* allocator() { return allocator_; }

  // ----- the spine -----------------------------------------------------------

  // Descends to the leaf entry holding byte `offset` (offset < size),
  // filling the path (root first) and the leaf-local offset.
  Status DescendToLeaf(const LobDescriptor& d, uint64_t offset,
                       std::vector<PathLevel>* path, LobEntry* leaf,
                       uint64_t* local);

  // Moves a path that points at a leaf entry on to the next leaf entry to
  // its right and fills *leaf; false (with the path emptied) at the end of
  // the object.
  StatusOr<bool> NextLeaf(std::vector<PathLevel>* path, LobEntry* leaf);

  // Splits an oversized entry list into chunks and writes each as a node,
  // reusing `orig_page` for the first chunk when valid. Returns the parent
  // entries describing the written nodes.
  StatusOr<std::vector<LobEntry>> WriteNodeMaybeSplit(PageId orig_page,
                                                      LobNode&& node);

  // Replaces the child entry recorded in path.back() with `repl`, then
  // writes the spine back bottom-up, splitting nodes as needed and growing
  // the root level on root overflow. `before_split`, when set, may rewrite
  // a non-root leaf-parent that is about to split.
  Status ReplaceInPath(
      LobDescriptor* d, std::vector<PathLevel>* path,
      std::vector<LobEntry> repl,
      const std::function<Status(LobNode*)>& before_split = nullptr);

  // Pushes root entries down into fresh nodes until they fit the root.
  Status FitRoot(LobDescriptor* d);

  // Collapses single-child roots (Section 4.3.2 step 6).
  Status CollapseRoot(LobDescriptor* d);

  // Frees every leaf (`extent_of` maps a leaf entry to the extent it
  // occupies) and every index page under entry `e` of a node at `level`,
  // each index page after its children. Leaves starting at `keep_a` or
  // `keep_b` are skipped: a delete has already disposed of its two
  // boundary leaves.
  template <typename ExtentOf>
  Status FreeSubtree(const LobEntry& e, uint16_t level,
                     const ExtentOf& extent_of,
                     PageId keep_a = kInvalidPage,
                     PageId keep_b = kInvalidPage);

 private:
  Pager* pager_;
  SegmentAllocator* allocator_;
  uint32_t page_size_;
  uint32_t root_capacity_;
  bool shadowing_ = false;
};

// ----- the subtree walk ------------------------------------------------------
//
// One depth-first, left-to-right walk over a positional tree, in the shape
// of RethinkDB's btree_traversal_helper_t. The caller supplies
//
//   load(entry, level, offset, &node) -> StatusOr<bool>
//       fills `node`, the index node of `level` behind `entry`: through the
//       pager, or straight from the device. false skips the subtree (the
//       loader has recorded why); an error stops the walk.
//   leaf(entry, offset) -> Status            ("process_a_leaf")
//   post(entry) -> Status                    ("postprocess_internal_node")
//       runs after all children of the index node behind `entry`.
//
// `offset` is the byte offset of the entry's first byte in the object. All
// state lives in the call, so walks of different trees may run
// concurrently.

struct NoPostNode {
  Status operator()(const LobEntry&) const { return Status::OK(); }
};

// Walks the subtree under entry `e` of a node at `level`.
template <typename Load, typename Leaf, typename Post>
Status WalkSubtree(const LobEntry& e, uint16_t level, uint64_t offset,
                   Load&& load, Leaf&& leaf, Post&& post) {
  if (level == 0) return leaf(e, offset);
  LobNode node;
  EOS_ASSIGN_OR_RETURN(bool descend, load(e, level - 1, offset, &node));
  if (!descend) return Status::OK();
  for (const LobEntry& c : node.entries) {
    EOS_RETURN_IF_ERROR(WalkSubtree(c, level - 1, offset, load, leaf, post));
    offset += c.count;
  }
  return post(e);
}

// Walks every subtree under `root`.
template <typename Load, typename Leaf, typename Post = NoPostNode>
Status WalkTree(const LobNode& root, Load&& load, Leaf&& leaf,
                Post&& post = Post{}) {
  uint64_t offset = 0;
  for (const LobEntry& e : root.entries) {
    EOS_RETURN_IF_ERROR(WalkSubtree(e, root.level, offset, load, leaf, post));
    offset += e.count;
  }
  return Status::OK();
}

template <typename ExtentOf>
Status NodeStore::FreeSubtree(const LobEntry& e, uint16_t level,
                              const ExtentOf& extent_of, PageId keep_a,
                              PageId keep_b) {
  return WalkSubtree(
      e, level, 0,
      [this](const LobEntry& node_entry, uint16_t, uint64_t,
             LobNode* node) -> StatusOr<bool> {
        EOS_ASSIGN_OR_RETURN(*node, Load(node_entry.page));
        return true;
      },
      [&](const LobEntry& leaf, uint64_t) {
        if (leaf.page == keep_a || leaf.page == keep_b) return Status::OK();
        return allocator_->Free(extent_of(leaf));
      },
      [this](const LobEntry& node) { return FreePage(node.page); });
}

}  // namespace eos

#endif  // EOS_LOB_NODE_H_
