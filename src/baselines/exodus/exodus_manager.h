#ifndef EOS_BASELINES_EXODUS_EXODUS_MANAGER_H_
#define EOS_BASELINES_EXODUS_EXODUS_MANAGER_H_

#include <cstdint>
#include <vector>

#include "buddy/segment_allocator.h"
#include "common/bytes.h"
#include "common/status.h"
#include "io/pager.h"
#include "lob/descriptor.h"
#include "lob/lob_manager.h"
#include "lob/node.h"

namespace eos {

// Clean-room reimplementation of the Exodus large object manager
// [Care86], the design EOS borrows its positional tree from and is
// evaluated against (Section 2). The tree itself — descent, write-back
// with splits, the root fit and the subtree walk — is EOS's own NodeStore
// spine; only the leaves and the delete merge below are Exodus's.
//
// Differences from EOS, faithfully reproduced:
//  * Leaf data pages are FIXED SIZE (leaf_pages blocks each, configurable
//    per file) and may be anywhere from half full to full. A large leaf
//    size gives fast scans but wastes space at partially full leaves; a
//    small one stores tightly but scatters the object over the disk — the
//    dilemma Section 2 describes and bench E10 measures.
//  * Updates rewrite the affected leaf in place; inserts split a leaf into
//    balanced halves when it overflows; deletes merge boundary leaves when
//    their remains fit into one.
//  * Leaves are allocated individually from the buddy system, so logically
//    adjacent leaves are generally not physically adjacent.
struct ExodusConfig {
  // Disk blocks per leaf data page ("clients can set the size of data
  // pages of all large objects within a file", Section 2).
  uint32_t leaf_pages = 1;
  uint32_t max_root_bytes = 0;  // 0 = one page
};

class ExodusManager {
 public:
  ExodusManager(Pager* pager, SegmentAllocator* allocator,
                const ExodusConfig& config);

  LobDescriptor CreateEmpty() const { return LobDescriptor{}; }
  StatusOr<LobDescriptor> CreateFrom(ByteView data);

  Status Append(LobDescriptor* d, ByteView data);
  Status Read(const LobDescriptor& d, uint64_t offset, uint64_t n,
              Bytes* out);
  StatusOr<Bytes> ReadAll(const LobDescriptor& d);
  Status Replace(LobDescriptor* d, uint64_t offset, ByteView data);
  Status Insert(LobDescriptor* d, uint64_t offset, ByteView data);
  Status Delete(LobDescriptor* d, uint64_t offset, uint64_t n);
  Status Destroy(LobDescriptor* d);

  StatusOr<LobStats> Stats(const LobDescriptor& d);
  Status CheckInvariants(const LobDescriptor& d);

  uint32_t page_size() const { return store_.page_size(); }
  uint64_t leaf_capacity() const {
    return uint64_t{config_.leaf_pages} * page_size();
  }
  PageDevice* device() { return store_.pager()->device(); }
  SegmentAllocator* allocator() { return store_.allocator(); }

 private:
  StatusOr<Bytes> ReadLeaf(const LobEntry& leaf);
  Status WriteLeaf(PageId page, ByteView bytes);
  StatusOr<PageId> NewLeaf(ByteView bytes);
  Status FreeLeaf(PageId page);

  // Writes `bytes` into one or more balanced leaves, each at least half
  // full where possible.
  StatusOr<std::vector<LobEntry>> WriteLeaves(ByteView bytes,
                                              PageId reuse_page);

  // NodeStore::FreeSubtree over Exodus leaves.
  Status FreeSubtree(const LobEntry& entry, uint16_t level,
                     PageId keep_a = kInvalidPage,
                     PageId keep_b = kInvalidPage);

  struct LeafSubst;
  StatusOr<LobNode> DeleteInNode(LobNode node, uint64_t lo, uint64_t hi,
                                 const LeafSubst& subst);

  ExodusConfig config_;
  NodeStore store_;
};

}  // namespace eos

#endif  // EOS_BASELINES_EXODUS_EXODUS_MANAGER_H_
