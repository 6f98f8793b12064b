#ifndef EOS_LOB_LOB_MANAGER_H_
#define EOS_LOB_LOB_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "buddy/segment_allocator.h"
#include "buddy/space_reservation.h"
#include "common/deadline.h"
#include "common/bytes.h"
#include "common/status.h"
#include "io/buffer_pool.h"
#include "io/io_executor.h"
#include "io/pager.h"
#include "lob/descriptor.h"
#include "lob/lob_config.h"
#include "lob/node.h"
#include "obs/cost_model.h"

namespace eos {

class LogManager;

// Aggregate shape/utilization statistics of one large object.
struct LobStats {
  uint64_t size_bytes = 0;
  uint64_t num_segments = 0;
  uint64_t leaf_pages = 0;
  uint64_t index_pages = 0;  // internal nodes, excluding the root
  uint32_t depth = 0;        // 0: root entries point directly at segments
  uint64_t min_segment_pages = 0;
  uint64_t max_segment_pages = 0;
  double avg_segment_pages = 0.0;
  // Segments smaller than the threshold T (the clustering-decay metric of
  // Section 4.4).
  uint64_t unsafe_segments = 0;
  // Nodes (excluding root) below half-full; normal splits never produce
  // them, but boundary cases of range deletion may (see DESIGN.md).
  uint64_t underfull_nodes = 0;

  // size / (leaf_pages * page_size): the paper's storage utilization.
  double leaf_utilization = 0.0;
  // size / ((leaf_pages + index_pages) * page_size): utilization including
  // index overhead.
  double total_utilization = 0.0;

  // Counts one leaf segment of `pages` pages.
  void AddSegment(uint64_t pages);
  // Derives the averages and utilizations from the counts, for pages of
  // `page_size` bytes.
  void Finish(uint32_t page_size);
};

// Byte range of an object that repair could not recover. Reads of a
// repaired object return zeroes for these bytes; the Database layer
// persists the ranges alongside the object's root so clients can tell
// degraded data from real zeroes.
struct HoleRange {
  uint64_t offset = 0;
  uint64_t length = 0;
};

inline bool operator==(const HoleRange& a, const HoleRange& b) {
  return a.offset == b.offset && a.length == b.length;
}

// What a scrubbed page was serving as when it failed verification.
enum class PageRole : uint8_t {
  kUnknown = 0,
  kSuperblock,
  kAllocatorMap,  // a buddy space's directory page
  kDirectory,     // index or leaf page of the object directory
  kIndexNode,     // index node of a user object
  kLeaf,          // leaf segment page of a user object
  kLog,           // write-ahead log storage
};

const char* PageRoleName(PageRole role);

// One page scrub could not read back clean.
struct ScrubIssue {
  uint64_t object_id = 0;  // 0: not object-scoped (superblock, amap, dir)
  PageRole role = PageRole::kUnknown;
  PageId page = kInvalidPage;
  std::string message;
};

struct ScrubReport {
  uint64_t pages_verified = 0;
  // Pages rewritten from their mirror copy during this pass (volume sets
  // only): the scrub read found one copy bad and healed it in place, so
  // the page does not appear in `issues`.
  uint64_t repaired_from_replica = 0;
  std::vector<ScrubIssue> issues;

  bool clean() const { return issues.empty(); }
};

// The EOS large object manager (Section 4).
//
// A large object is an uninterpreted byte string stored in a sequence of
// variable-size segments of physically contiguous pages, indexed by a
// positional B-tree whose root (the LobDescriptor) is placed by the client.
// Operations: append, read, replace, insert, delete — each touching I/O
// proportional to the bytes involved, not the object size.
//
// Leaf data deliberately bypasses the page cache and is transferred with
// one multi-page access per physically contiguous run, so the device's
// IoStats reflect the paper's seek/transfer cost model.
//
// Not thread-safe per object: callers serialize operations on one
// descriptor (lock the root, Section 4.5).
class LobManager {
 public:
  LobManager(Pager* pager, SegmentAllocator* allocator,
             const LobConfig& config);

  // ----- lifecycle ---------------------------------------------------------

  // A fresh zero-length object. No storage is allocated until data arrives.
  LobDescriptor CreateEmpty() const { return LobDescriptor{}; }

  // Convenience: creates an object holding `data`, sized exactly (the
  // "size known in advance" path of Section 4.1).
  StatusOr<LobDescriptor> CreateFrom(ByteView data);

  // Frees every segment and index page of the object; descriptor becomes
  // a valid empty object.
  Status Destroy(LobDescriptor* d);

  // ----- reads -------------------------------------------------------------

  // Reads min(n, size - offset) bytes starting at `offset` into *out
  // (replacing its contents). offset > size is OutOfRange.
  Status Read(const LobDescriptor& d, uint64_t offset, uint64_t n,
              Bytes* out);

  StatusOr<Bytes> ReadAll(const LobDescriptor& d);

  // ----- updates -----------------------------------------------------------

  // Overwrites data.size() bytes in place starting at `offset`; the range
  // must lie within the object (replace never grows it, Section 4.2).
  Status Replace(LobDescriptor* d, uint64_t offset, ByteView data);

  // Inserts `data` so that its first byte lands at byte `offset`
  // (0 <= offset <= size; offset == size appends). Section 4.3.1 / 4.4.
  Status Insert(LobDescriptor* d, uint64_t offset, ByteView data);

  // Deletes n bytes starting at `offset` (clamped to the object end).
  // Section 4.3.2 / 4.4.
  Status Delete(LobDescriptor* d, uint64_t offset, uint64_t n);

  // Appends at the end (one-shot; for multi-append building use
  // LobAppender, which applies the doubling growth scheme + final trim).
  Status Append(LobDescriptor* d, ByteView data);

  // pwrite-style convenience: overwrites in place within the current size
  // and appends whatever extends past the end (offset <= size). Composed
  // from Replace and Append, so the same logging/shadowing rules apply to
  // each part.
  Status Write(LobDescriptor* d, uint64_t offset, ByteView data);

  // Deletes every byte from new_size to the end. Touches no leaf pages
  // (Section 4.3.2's special case).
  Status Truncate(LobDescriptor* d, uint64_t new_size);

  // Rewrites the object into its optimal layout — a minimal sequence of
  // maximal segments, utilization back to ~100% — as if it had been
  // created with its size known in advance. Useful once an often-edited
  // object becomes read-mostly ("for more static objects the larger the
  // segment size the better", Section 4.4). Content is unchanged; the
  // operation is not logged.
  Status Reorganize(LobDescriptor* d);

  // ----- introspection -----------------------------------------------------

  StatusOr<LobStats> Stats(const LobDescriptor& d);

  // Structural validation: counts consistent, levels monotone, entries in
  // [1, capacity] ([2, cap] for internal nodes), segment page counts equal
  // ceil(bytes/page_size) by construction of the traversal.
  Status CheckInvariants(const LobDescriptor& d);

  // Appends every extent the object occupies — index-node pages and leaf
  // segments — to *out. Crash recovery's reachability scan rebuilds the
  // allocation maps from the union of these over all recovered roots.
  Status CollectExtents(const LobDescriptor& d, std::vector<Extent>* out);

  // ----- scrub / salvage (integrity layer) ---------------------------------

  // Verifies every page the object occupies by reading it back through the
  // *device* — deliberately bypassing the pager, whose cached copies would
  // mask on-media rot (callers flush first). On a verified device each read
  // is checksum-checked; structurally invalid index nodes are reported even
  // when the checksum passes. Every unreadable page becomes one issue
  // tagged `object_id` (roles kIndexNode/kLeaf); intact subtrees keep being
  // scanned, so the report names exactly the corrupt pages.
  Status ScrubObject(const LobDescriptor& d, uint64_t object_id,
                     ScrubReport* report);

  // Best-effort device-direct extraction of the object's content for
  // repair: unreadable leaf pages are zero-filled and recorded in *holes;
  // an unreadable index node drops its whole byte range (the parent entry
  // says how long it is) into one hole. The result is always exactly
  // d.size() bytes, with *holes sorted and coalesced.
  StatusOr<Bytes> Salvage(const LobDescriptor& d,
                          std::vector<HoleRange>* holes);

  // -------------------------------------------------------------------------

  uint32_t page_size() const { return store_.page_size(); }
  uint32_t max_segment_pages() const { return max_segment_pages_; }
  uint32_t root_capacity() const { return store_.root_capacity(); }
  const LobConfig& config() const { return config_; }

  // The cheap shape facts the paper's cost formulas consume, for the
  // spans' conformance probes in the public wrappers and the
  // aging/defrag tooling. Utilization is left at 1.0 (the fresh ideal) so
  // a ratio against these inputs measures layout drift, not expectations
  // about it.
  obs::CostInputs CostFacts(const LobDescriptor& d) const;
  NodeStore* node_store() { return &store_; }
  SegmentAllocator* allocator() { return store_.allocator(); }
  PageDevice* device() { return store_.pager()->device(); }

  // Section 4.5 hooks: logical logging and index-page shadowing.
  void set_log_manager(LogManager* log) { log_ = log; }
  LogManager* log_manager() const { return log_; }
  void set_shadowing(bool on) { store_.set_shadowing(on); }

  // Detaches the log manager for the scope's lifetime. Work that is not a
  // logical update of its own — directory maintenance, salvage rewrites,
  // recovery replay, the inner steps of an already-logged op — must not
  // append to the log.
  class ScopedLogSuspend {
   public:
    explicit ScopedLogSuspend(LobManager* mgr)
        : mgr_(mgr), saved_(mgr->log_manager()) {
      mgr_->set_log_manager(nullptr);
    }
    ~ScopedLogSuspend() { mgr_->set_log_manager(saved_); }

    ScopedLogSuspend(const ScopedLogSuspend&) = delete;
    ScopedLogSuspend& operator=(const ScopedLogSuspend&) = delete;

   private:
    LobManager* mgr_;
    LogManager* saved_;
  };

  // Copy-on-write Replace (MVCC mode, DESIGN.md §13). Replace is the one
  // operation that normally overwrites leaf pages in place; with CoW on,
  // every affected segment is instead rewritten into a fresh extent and
  // spliced into the spine through the ordinary shadowed path, so a
  // concurrent snapshot reader of the superseded version never observes
  // half-replaced bytes. The rewrite runs under RunGuarded: a mid-op
  // failure unwinds to the exact pre-op tree.
  void set_cow_replace(bool on) { cow_replace_ = on; }
  bool cow_replace() const { return cow_replace_; }

  // True when the ambient ScopedExtentCacheRef binding (if any) already
  // holds this leaf extent's image; read-ahead skips prefetching it.
  bool CacheHasExtent(const Extent& extent) const;

  // Parallel leaf I/O: with a non-null executor, multi-segment reads fan
  // their device transfers out to the executor's workers and join before
  // returning. Off (nullptr, the default) every transfer is issued inline
  // in tree order, which keeps the device's seek accounting deterministic —
  // the cost-model tests rely on that. The executor must outlive the
  // manager.
  void set_io_executor(IoExecutor* exec) { exec_ = exec; }
  IoExecutor* io_executor() const { return exec_; }

 private:
  friend class LobAppender;
  friend class LeafWalker;

  // Runs `body` under a SpaceReservation so a mid-operation failure —
  // injected NoSpace, I/O error, expired deadline — unwinds every page the
  // operation touched and restores *d to its pre-op value. On success the
  // extents the body freed go to SegmentAllocator::FreeAll(). Nested calls
  // (Insert delegating to Append, Write composing Replace+Append, any op
  // under a Database mutation's reservation) are pass-throughs: the
  // outermost scope owns the unwind and the frees. `d` may be null
  // (CreateFrom has no prior descriptor to restore).
  Status RunGuarded(LobDescriptor* d, const char* what,
                    const std::function<Status()>& body);

  // The public operations above are thin obs::ScopedOp span wrappers (see
  // src/obs/op_tracer.h) around these bodies.
  StatusOr<LobDescriptor> CreateFromImpl(ByteView data);
  Status DestroyImpl(LobDescriptor* d);
  Status ReadImpl(const LobDescriptor& d, uint64_t offset, uint64_t n,
                  Bytes* out);
  Status ReplaceImpl(LobDescriptor* d, uint64_t offset, ByteView data);
  Status ReplaceCowImpl(LobDescriptor* d, uint64_t offset, ByteView data);
  Status InsertImpl(LobDescriptor* d, uint64_t offset, ByteView data);
  Status DeleteImpl(LobDescriptor* d, uint64_t offset, uint64_t n);
  Status AppendImpl(LobDescriptor* d, ByteView data);
  Status ReorganizeImpl(LobDescriptor* d);

  // A leaf segment as seen from its parent entry.
  struct LeafRef {
    Extent extent;
    uint64_t bytes = 0;
  };

  uint32_t LeafPages(uint64_t bytes) const;

  // An EOS leaf entry of C bytes is a segment of ceil(C / page_size)
  // physically contiguous pages.
  LeafRef LeafOf(const LobEntry& e) const {
    return LeafRef{Extent{e.page, LeafPages(e.count)}, e.count};
  }

  // NodeStore::ReplaceInPath with the [Bili91a] compaction hook, then
  // publishes the tree level.
  Status Splice(LobDescriptor* d, std::vector<PathLevel>* path,
                std::vector<LobEntry> repl);

  // Allocates segments for `data` (sequence of maximal segments, last one
  // exactly sized) and writes it; returns the leaf entries.
  StatusOr<std::vector<LobEntry>> WriteSegments(ByteView data);

  // Direct leaf I/O, bypassing the pager.
  Status ReadLeafBytes(const LeafRef& leaf, uint64_t lo, uint64_t hi,
                       uint8_t* out);
  Status WriteLeafPages(PageId first, ByteView data);

  // NodeStore::FreeSubtree over EOS leaves.
  Status FreeSubtree(const LobEntry& entry, uint16_t level,
                     PageId keep_a = kInvalidPage,
                     PageId keep_b = kInvalidPage);

  // Dissolves underfull (single-entry) nodes left on the path to `offset`
  // when a splice could not find siblings at its own level; iterating
  // top-down gives lower levels new siblings, so chains unravel within
  // depth rounds. See delete.cc.
  Status RepairUnderflow(LobDescriptor* d, uint64_t offset);

  // Delete recursion over an in-memory node; see delete.cc.
  struct LeafSubst;
  StatusOr<LobNode> DeleteInNode(LobNode node, uint64_t lo, uint64_t hi,
                                 const LeafSubst& subst);
  Status FixUnderfullChild(LobNode* parent, size_t idx);

  // After two sibling nodes' entry lists are joined inside `node` at
  // position `junction`, the adjacent child nodes may be single-entry
  // chains inherited from a side that had no siblings of its own; now that
  // they do, merge/rotate them (recursively down the chain).
  Status RepairJunction(LobNode* node, size_t junction);

  // Effective threshold for an update on `d` whose leaf-parent currently
  // holds `parent_entries` entries: the object's hint (or the manager
  // default), scaled by the [Bili91a] adaptive policy when enabled.
  uint32_t EffectiveThreshold(const LobDescriptor& d,
                              size_t parent_entries) const;

  // [Bili91a]: when the leaf-parent is about to split, coalesce runs of
  // adjacent unsafe segments into single larger segments.
  Status CompactUnsafeRuns(LobNode* leaf_parent);

  LobConfig config_;
  NodeStore store_;
  uint32_t max_segment_pages_;
  LogManager* log_ = nullptr;
  IoExecutor* exec_ = nullptr;
  bool cow_replace_ = false;
};

// Multi-append session (Section 4.1): when the eventual size is unknown,
// successively allocated segments double in size until the maximum; a final
// Finish() trims the last segment's unused pages back to the buddy system
// with one-page precision. With a size hint, segments are allocated exactly.
//
//   LobAppender app(&mgr, &desc);          // or (&mgr, &desc, total_hint)
//   app.Append(chunk1); app.Append(chunk2);
//   app.Finish();
class LobAppender {
 public:
  LobAppender(LobManager* mgr, LobDescriptor* d, uint64_t size_hint = 0);
  ~LobAppender();  // Finish() if the caller forgot (errors are dropped)

  LobAppender(const LobAppender&) = delete;
  LobAppender& operator=(const LobAppender&) = delete;

  Status Append(ByteView data);
  Status Finish();

 private:
  // Session state snapshot for per-call unwind: a failed Append() puts the
  // appender (and, via the enclosing SpaceReservation, the tree and the
  // allocation maps) back exactly as they were before the call.
  struct SessionState {
    uint64_t appended;
    Extent cur;
    uint64_t cur_bytes;
    uint32_t cur_pages_used;
    uint32_t next_pages;
    Bytes page_buf;
  };
  SessionState SaveState() const;
  void RestoreState(SessionState&& s);

  Status AppendBody(ByteView data);  // Append() minus the guard

  Status OpenSegment(uint64_t want_bytes);
  Status CloseSegment();  // trim + attach entry to the tree
  Status FlushPageBuffer();
  // Hands the queued page runs to the device as one vectored batch. Runs
  // into the open segment are queued rather than written immediately, so a
  // page-buffer flush followed by a bulk append lands in a single
  // scatter-gather submit; every Append/CloseSegment drains the queue
  // before returning because bulk runs alias the caller's data.
  Status SubmitPending();

  LobManager* mgr_;
  LobDescriptor* d_;
  uint64_t size_hint_;
  uint64_t appended_ = 0;
  bool finished_ = false;

  Extent cur_;                 // open segment (invalid if none)
  uint64_t cur_bytes_ = 0;     // bytes logically in the open segment
  uint32_t cur_pages_used_ = 0;  // full pages already written
  uint32_t next_pages_ = 1;    // doubling growth state
  Bytes page_buf_;             // partial trailing page
  std::vector<ConstPageRun> pending_runs_;
  std::vector<BufferPool::Buffer> pending_bufs_;  // staging for padded pages
};

}  // namespace eos

#endif  // EOS_LOB_LOB_MANAGER_H_
