#ifndef EOS_EOS_DATABASE_H_
#define EOS_EOS_DATABASE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buddy/segment_allocator.h"
#include "cache/extent_cache.h"
#include "common/bytes.h"
#include "common/latch.h"
#include "common/retry.h"
#include "common/status.h"
#include "io/page_device.h"
#include "io/pager.h"
#include "io/volume_set.h"
#include "lob/defrag.h"
#include "lob/lob_manager.h"
#include "obs/snapshot.h"
#include "txn/log_manager.h"

namespace eos {

class VerifiedPageDevice;

// Top-level EOS storage facade: one volume (file-backed or in-memory)
// containing a superblock, a sequence of buddy segment spaces, and a
// persistent object directory mapping object ids to their large-object
// roots. The paper leaves root placement to the client; Database is one
// such client — it keeps all roots in a directory that is itself a large
// object whose root lives in the superblock.
struct DatabaseOptions {
  uint32_t page_size = 4096;
  uint32_t space_pages = 0;  // 0 = as many as one directory page can map
  uint32_t initial_spaces = 1;
  size_t pager_frames = 256;
  LobConfig lob;

  // Crash-safe configuration (Section 4.5 + DESIGN.md "Testing & fault
  // model"): the pager runs write-through so pages are durable before any
  // page referencing them is written, index nodes are shadowed, and every
  // freed segment is parked until the next Checkpoint() so no page a
  // durable root can reach is ever reused early. Costs extra writes;
  // recovery via Recover() then restores exactly the committed state after
  // a crash at any write boundary.
  bool crash_safe = false;

  // Integrity layer (DESIGN.md "Integrity & degraded operation"): the
  // device is wrapped in a VerifiedPageDevice, so every page carries a
  // 16-byte CRC32C trailer sealed on write and verified on read — the
  // usable page size becomes page_size - 16. Implied by crash_safe: a torn
  // or rotted page must fail closed, never read back as silent garbage.
  // Volumes remember the choice via the superblock's format epoch, so
  // Open()/OpenOnDevice() stack the layer automatically.
  bool checksums = false;

  // Bounds re-reads of transiently failing transfers (and re-tries of
  // failing writes) under the verified device. Defaults retry immediately;
  // set base_backoff_us for real hardware.
  RetryPolicy io_retry;

  // Degraded operation (DESIGN.md "Degraded operation under resource
  // exhaustion"): pages held back from user allocations so directory
  // saves, WAL appends and Checkpoint() still complete on a full volume.
  // New mutations are refused with typed NoSpace once the free-page count
  // can no longer stay above this floor; reads and deletes are always
  // admitted. 0 disables admission control.
  uint32_t emergency_reserve_pages = 0;

  // Parallel I/O (DESIGN.md "Parallel I/O and zero-copy paths"): attach
  // the process-wide IoExecutor so multi-segment reads fan their device
  // transfers out to worker threads. Off by default — inline transfers
  // keep the device's seek/transfer accounting deterministic, which the
  // cost-model benches and tests measure. The pool size follows
  // EOS_IO_THREADS (default min(4, hardware concurrency)).
  bool parallel_io = false;

  // Periodic observability export (DESIGN.md "Observability"): a non-zero
  // interval starts a background obs::SnapshotWriter that rewrites the
  // volume's "<path>.obs.json" sidecar every interval (plus once at open
  // and once at close), so `eos_inspect top` can watch a live process.
  // File-backed volumes only — in-memory volumes have no sidecar path.
  uint64_t obs_snapshot_interval_ms = 0;

  // Online defragmentation (DESIGN.md §12): `defrag.enabled` starts a
  // background thread that periodically migrates cold, scattered objects
  // back to their ideal layout. DefragTick() drives single deterministic
  // passes regardless of the flag.
  DefragOptions defrag;

  // Multi-version concurrency (DESIGN.md §13): every committed mutation
  // publishes the object's new root into an in-memory version chain, and
  // BeginSnapshot()/SnapshotRead() traverse a pinned version without
  // touching the directory latch — readers never wait on writers. Implies
  // index-node shadowing and copy-on-write Replace so no page a pinned
  // version references is ever overwritten in place; superseded storage is
  // reclaimed only once no snapshot pins it (through the CheckpointFreeList
  // when combined with crash_safe). Mutations additionally group-commit
  // their WAL markers (LogManager::LogCommitDurable) when a log is
  // attached.
  bool mvcc = false;

  // Hot-object DRAM cache tier (DESIGN.md §14): a non-zero byte budget
  // attaches an ExtentCache above the leaf-read path. Read()/SnapshotRead()
  // hits are served as a zero-I/O memcpy off the cached immutable extent
  // image; misses fill through the ordinary read machinery. Entries are
  // keyed by (object id, version sequence, extent), so a published version's
  // cached bytes can never be stale; superseded versions are invalidated as
  // version GC retires them (per-object generations without mvcc).
  size_t cache_bytes = 0;
  // Compress probation-resident cache entries (common/compress.h): the cold
  // tail of the cache packs 2-4x more logical bytes per DRAM byte, while
  // promoted hot entries stay raw (hits remain a pure memcpy).
  bool cache_compression = true;
};

// FreeInterceptor that parks every freed extent until the next
// Checkpoint() drains it: in crash-safe mode nothing a durable root can
// reach may be reused before a newer root is durable ([Lehm89] release
// locks at volume scope).
class CheckpointFreeList final : public FreeInterceptor {
 public:
  bool InterceptFree(const Extent& e) override {
    parked_.push_back(e);
    return true;
  }
  std::vector<Extent> TakeAll() {
    std::vector<Extent> out;
    out.swap(parked_);
    return out;
  }
  size_t parked() const { return parked_.size(); }
  // Read-only view for the leak checker: parked extents are allocated but
  // intentionally unreachable until the next checkpoint.
  const std::vector<Extent>& parked_extents() const { return parked_; }

 private:
  std::vector<Extent> parked_;
};

class Database;

// A pinned, immutable view of one object at a committed version (MVCC,
// DESIGN.md §13). While the snapshot is open, version GC keeps every page
// its root can reach allocated, so Database::SnapshotRead() traverses it
// without taking the directory latch — concurrent writers publish newer
// versions without ever blocking or being blocked by this reader.
// Move-only; destruction (or Release()) unpins the version, making its
// superseded storage reclaimable. Must not outlive the Database.
class Snapshot {
 public:
  Snapshot() = default;
  ~Snapshot() { Release(); }
  Snapshot(Snapshot&& o) noexcept { *this = std::move(o); }
  Snapshot& operator=(Snapshot&& o) noexcept;

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  bool valid() const { return db_ != nullptr; }
  uint64_t object_id() const { return object_id_; }
  // Position in the object's version chain (monotone per object).
  uint64_t vseq() const { return vseq_; }
  // LSN of the mutation that published this version.
  uint64_t lsn() const { return lsn_; }
  uint64_t size() const { return root_.size(); }
  const LobDescriptor& root() const { return root_; }

  // Unpins early; the snapshot becomes invalid.
  void Release();

 private:
  friend class Database;

  Database* db_ = nullptr;
  uint64_t object_id_ = 0;
  uint64_t vseq_ = 0;
  uint64_t lsn_ = 0;
  LobDescriptor root_;
};

// Result of Database::LeakCheck — the allocation maps cross-checked
// against object reachability.
struct LeakCheckReport {
  uint64_t allocated_pages = 0;  // pages the buddy maps consider live
  uint64_t reachable_pages = 0;  // pages some root (or parked free) covers
  // Allocated but referenced by nothing: storage lost to a bug.
  std::vector<Extent> leaked;
  // Covered by more than one reference: two trees claim the same storage.
  std::vector<Extent> doubly_referenced;
};

// Concurrency: a reader/writer latch serializes the object directory and
// every public operation — reads and stats run shared, mutations (and
// checkpoint/recovery/repair) run exclusive. That is what lets the online
// defragmenter migrate objects from a background thread while foreground
// readers keep running; per-page consistency below the latch is the
// pager's and allocator's own short-duration latches.
class Database : private DefragHost {
 public:
  static constexpr uint32_t kMagic = 0x454F5356;  // "EOSV"
  // v2 adds the format epoch to the superblock and hole maps to the
  // directory; v1 volumes (epoch 0, no checksums) still open.
  static constexpr uint32_t kVersion = 2;
  // Epoch stamped into every page trailer of a checksummed volume. 0 in
  // the superblock means the volume predates checksums (or opted out) and
  // the device is used unwrapped.
  static constexpr uint16_t kFormatEpoch = 1;
  static constexpr PageId kSuperblockPage = 0;
  static constexpr PageId kFirstSpacePage = 1;
  // MVCC version chains are split into this many independently latched
  // shards by object id (DESIGN.md §13), so pinning or publishing one
  // object never waits on another object's chain.
  static constexpr size_t kVersionShards = 64;
  static size_t VersionShardOf(uint64_t id) { return id % kVersionShards; }

  // Creates a new volume file (truncating any existing one).
  static StatusOr<std::unique_ptr<Database>> Create(
      const std::string& path, const DatabaseOptions& options);

  // Opens an existing volume; geometry comes from the superblock, runtime
  // knobs (pager size, LOB config) from `options`.
  static StatusOr<std::unique_ptr<Database>> Open(
      const std::string& path, const DatabaseOptions& options);

  // Volatile volume for tests, examples and benches.
  static StatusOr<std::unique_ptr<Database>> CreateInMemory(
      const DatabaseOptions& options);

  // Formats a volume on a caller-supplied device (e.g. a ChaosPageDevice
  // wrapping the real backend); the device is grown as needed.
  static StatusOr<std::unique_ptr<Database>> CreateOnDevice(
      std::unique_ptr<PageDevice> device, const DatabaseOptions& options);

  // Opens a previously formatted volume on a caller-supplied device (e.g.
  // the cloned image of a crashed chaos device).
  static StatusOr<std::unique_ptr<Database>> OpenOnDevice(
      std::unique_ptr<PageDevice> device, const DatabaseOptions& options);

  // Formats a database across N member volumes (DESIGN.md §15): each
  // member gets its own verified stack, and the logical page space is
  // placed chunk-by-chunk across them — one buddy space per chunk when
  // set_options.chunk_pages is 0 (the default), so extents never straddle
  // members. With set_options.mirrored every chunk has a replica on a
  // second member: reads fail over, writes degrade typed, and
  // Scrub/RepairObject reconstruct bad pages from the replica.
  static StatusOr<std::unique_ptr<Database>> CreateOnVolumeSet(
      std::vector<std::unique_ptr<PageDevice>> members,
      VolumeSetOptions set_options, const DatabaseOptions& options);

  // Opens a previously formatted volume set. Members must come in their
  // formatted order; placement geometry is read from the member headers.
  static StatusOr<std::unique_ptr<Database>> OpenOnVolumeSet(
      std::vector<std::unique_ptr<PageDevice>> members,
      VolumeSetOptions set_options, const DatabaseOptions& options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ----- object directory --------------------------------------------------

  // Creates an empty large object and returns its id.
  StatusOr<uint64_t> CreateObject();
  StatusOr<uint64_t> CreateObjectFrom(ByteView data);

  // Destroys the object's storage and removes it from the directory.
  Status DropObject(uint64_t id);

  StatusOr<LobDescriptor> GetRoot(uint64_t id);
  Status PutRoot(uint64_t id, const LobDescriptor& d);
  StatusOr<std::vector<uint64_t>> ListObjects();

  // Per-object segment size threshold hint (Section 4.4); applies to all
  // subsequent operations on `id` through this Database handle. 0 resets
  // to the manager default.
  void SetObjectThreshold(uint64_t id, uint32_t threshold_pages);

  // Rewrites the object into its optimal layout (LobManager::Reorganize).
  Status ReorganizeObject(uint64_t id);

  // ----- online defragmentation (DESIGN.md §12) ------------------------------

  // One scan-and-migrate pass of the online defragmenter: scores every
  // object's scatter, migrates the worst cold offenders within the
  // configured per-tick budget. Runs whether or not the background thread
  // is enabled; safe concurrently with any other operation.
  Status DefragTick(DefragReport* report = nullptr);

  Defragmenter* defragmenter() { return defrag_.get(); }

  // ----- convenience object operations --------------------------------------

  // ----- snapshot MVCC (DESIGN.md §13) ---------------------------------------

  // Pins the object's current committed version and returns a Snapshot
  // that reads it. Requires options.mvcc. Never blocks on writers: only
  // the (short, uncontended) version-chain latch is taken.
  StatusOr<Snapshot> BeginSnapshot(uint64_t id);

  // Reads min(n, snap.size() - offset) bytes at `offset` from the pinned
  // version, latch-free with respect to the directory: concurrent
  // mutations of the same object do not block this and are never observed
  // by it.
  StatusOr<Bytes> SnapshotRead(const Snapshot& snap, uint64_t offset,
                               uint64_t n);

  // One entry of an object's version chain, for eos_inspect and tests.
  struct VersionInfo {
    uint64_t vseq = 0;
    uint64_t lsn = 0;
    uint64_t size = 0;
    uint64_t pins = 0;
    PageId root_page = kInvalidPage;  // first child page; invalid if none
    uint32_t retired_extents = 0;     // extents parked until this version GCs
    bool current = false;
    bool dead = false;  // drop marker (object destroyed)
  };

  // The object's version chain, oldest first. Without options.mvcc the
  // directory root is reported as a single unpinned current version, so
  // `eos_inspect versions` works on any volume.
  StatusOr<std::vector<VersionInfo>> ListVersions(uint64_t id);

  StatusOr<uint64_t> Size(uint64_t id);
  StatusOr<Bytes> Read(uint64_t id, uint64_t offset, uint64_t n);
  Status Append(uint64_t id, ByteView data);
  Status Insert(uint64_t id, uint64_t offset, ByteView data);
  Status Delete(uint64_t id, uint64_t offset, uint64_t n);
  Status Replace(uint64_t id, uint64_t offset, ByteView data);
  StatusOr<LobStats> ObjectStats(uint64_t id);

  // ----- plumbing ------------------------------------------------------------

  // Flushes the pager, rewrites the superblock, syncs the device.
  Status Flush();

  // Flush(), then (crash-safe mode) returns the segments freed since the
  // last checkpoint to the buddy system — they can no longer be reached
  // from any durable root, so reuse is safe from here on.
  Status Checkpoint();

  // Crash recovery on a freshly opened volume whose superblock may lag the
  // log and whose allocation maps may be stale:
  //   1. rebuilds every space's allocation map from reachability (the
  //      directory object plus every directory root);
  //   2. per object — including ids only the log knows — redoes committed
  //      records and removes in-flight effects (Recovery::RecoverObject);
  //   3. drops objects whose last committed record is a destroy, saves the
  //      recovered directory, and checkpoints.
  // `log` is the surviving write-ahead log, in emit order.
  Status Recover(const std::vector<LogRecord>& log);

  // Buddy invariants of every space plus tree invariants of every object.
  Status CheckIntegrity();

  // Read-only audit: walks every reachable extent (directory object, all
  // object trees, checkpoint-parked frees) and compares the union against
  // the buddy allocation maps, reporting leaked and doubly-referenced
  // storage. OK with an empty report on a healthy volume; Corruption if
  // anything leaks or overlaps.
  Status LeakCheck(LeakCheckReport* report);

  // ----- scrub / quarantine / repair ----------------------------------------

  // Flushes, then verifies every reachable page by reading it back through
  // the device: superblock, each space's allocation map, the directory
  // object, and every object tree. Appends one issue per unreadable page;
  // on a verified device those pages end up quarantined as a side effect.
  Status Scrub(ScrubReport* report);

  // Rebuilds a damaged object from whatever Salvage can still read: the
  // unrecoverable byte ranges are zero-filled and recorded as the object's
  // hole map (persisted in the directory), the content is rewritten into
  // fresh storage, and the allocation maps are rebuilt from reachability —
  // the corrupt subtrees cannot be freed through, so the old pages are
  // reclaimed by rebuilding instead. Reads of the repaired object work
  // normally; GetHoles() says which bytes are fabricated zeroes.
  Status RepairObject(uint64_t id);

  // The object's persisted hole map (empty if never repaired, or repaired
  // losslessly). Ranges are advisory: they describe the bytes at repair
  // time and are not maintained through later updates.
  std::vector<HoleRange> GetHoles(uint64_t id) const;

  // Non-null iff the volume runs with the integrity layer stacked.
  VerifiedPageDevice* verified_device() { return verified_; }

  // Non-null iff the database runs on a multi-volume set (each member
  // carries its own integrity layer; verified_device() is null then).
  VolumeSetDevice* volume_set() { return volume_set_; }

  const LobDescriptor& dir_object() const { return dir_object_; }

  LobManager* lob() { return lob_.get(); }
  // Non-null iff options.cache_bytes > 0.
  ExtentCache* extent_cache() { return cache_.get(); }
  SegmentAllocator* allocator() { return allocator_.get(); }
  Pager* pager() { return pager_.get(); }
  PageDevice* device() { return device_.get(); }

  // Attaches a log manager; subsequent object operations are logged with
  // the object id (Section 4.5).
  void AttachLog(LogManager* log);

 private:
  friend class Snapshot;

  Database() = default;

  static StatusOr<std::unique_ptr<Database>> Init(
      std::unique_ptr<PageDevice> device, const DatabaseOptions& options,
      bool fresh);

  Status WriteSuperblock();
  Status ReadSuperblock(uint32_t* space_pages, uint32_t* num_spaces);

  // Recover() minus the fatal-path post-mortem dump.
  Status RecoverImpl(const std::vector<LogRecord>& log);

  // Begins periodic "<path>.obs.json" exports when the options ask for
  // them (no-op otherwise); Create/Open call this, in-memory volumes don't.
  void StartSnapshotWriter(const std::string& volume_path);

  // Largest directory root the superblock can hold.
  uint32_t DirRootSlotBytes() const;

  // v2 directory streams open with an 8-byte sentinel no v1 entry can
  // produce (object ids are monotone from 1), then a format version:
  // [sentinel u64 = ~0][version u32]
  // [id u64][root_len u32][hole_count u32][root][(off u64, len u64)...]...
  // v1 streams ([id u64][len u32][root]...) still parse.
  Status LoadDirectory();
  Status SaveDirectory();

  // ----- latch-free internals (caller holds dir_latch_) ---------------------

  StatusOr<uint64_t> CreateObjectLocked();
  // Also reports the entry's cache tag when `cache_tag` is non-null.
  StatusOr<LobDescriptor> GetRootLocked(uint64_t id,
                                        uint64_t* cache_tag = nullptr);
  Status PutRootLocked(uint64_t id, const LobDescriptor& d);
  Status FlushLocked();
  Status CheckpointLocked();
  // Per-object leg of Scrub(); fans out across threads on a multi-member
  // volume set with parallel_io.
  Status ScrubObjectsLocked(ScrubReport* report);
  // Records a foreground mutation of `id` on the heat clock, so the
  // defragmenter can tell cold objects from ones still being written.
  void TouchLocked(uint64_t id);

  // ----- version chains (MVCC, DESIGN.md §13) --------------------------------

  // One committed version of one object. `retired` is the storage that
  // died when this version was superseded — the frees the successor's
  // commit replayed — parked here until pins reaches zero.
  struct ObjectVersion {
    uint64_t vseq = 0;
    Bytes root;  // serialized LobDescriptor; empty for a drop marker
    uint64_t lsn = 0;
    uint64_t pins = 0;
    bool dead = false;
    std::vector<Extent> retired;
  };
  using VersionChain = std::deque<ObjectVersion>;

  // One shard of the version chains: a leaf latch over the chains of the
  // ids that hash to it (VersionShardOf). Aligned so neighbouring shard
  // latches do not share a cache line.
  struct alignas(64) VersionShard {
    Latch latch;
    std::map<uint64_t, VersionChain> chains;
  };
  VersionShard& ShardFor(uint64_t id) {
    return version_shards_[VersionShardOf(id)];
  }

  // Rebuilds every chain from directory_ (open, recovery): one unpinned
  // current version per object, whose vseq becomes the entry's cache tag.
  // Clears gc staging and stale capture state.
  void SeedVersionChains();
  // Forgets every chain and all staged GC without freeing anything: the
  // storage they describe is about to be reclaimed by an allocation-map
  // rebuild (Recover, RepairObject).
  void DropVersionChains();
  // Appends a new current version for `id` under dir_latch_ exclusive,
  // attaching pending_retired_ to the superseded version, then stages
  // whatever became collectable into gc_ready_. Returns the new vseq.
  uint64_t PublishVersion(uint64_t id, const Bytes& root, uint64_t lsn,
                          bool dead);
  // FIFO-drains the chain front (collectable = unpinned and superseded, or
  // an unpinned drop marker), staging retire batches into gc_ready_. When
  // the front advances, cached extents of the collected versions — which no
  // reader can pin anymore — are dropped from the extent cache. Caller
  // holds the chain's shard latch (gc_latch_ and the cache's shard latches
  // are leaves below it).
  void CollectChainLocked(uint64_t id, VersionChain* chain);
  // Appends to gc_ready_ under gc_latch_.
  void StageGc(const std::vector<Extent>& extents);
  // Unpin from Snapshot teardown: may run on any thread, takes only the
  // object's shard latch (and gc_latch_), never calls into the allocator
  // (a writer may have a capturing interceptor installed) — collectable
  // storage waits in gc_ready_ for the next exclusive-latched drain.
  void ReleaseSnapshotPin(uint64_t id, uint64_t vseq);
  // Frees gc_ready_ through the normal allocator path (landing in the
  // CheckpointFreeList in crash-safe mode). Caller holds dir_latch_
  // exclusive with no capture scope installed. No chain is swept here:
  // a chain only becomes collectable by a publish or a pin release, and
  // both collect the chain they changed.
  Status DrainVersionGcLocked();
  // True if any snapshot pin is open (mvcc only).
  bool HasOpenPins();
  // Emits the WAL commit marker for a successful mvcc mutation — under
  // dir_latch_, so the marker is ordered after the mutation's own records.
  // No-op (commit_lsn stays 0) without mvcc or an attached log.
  Status CommitMutationLocked(uint64_t id, uint64_t* commit_lsn);
  // Waits until a log sync covers `commit_lsn` (0 = nothing to wait for).
  // Called *after* releasing dir_latch_: the fsync wait is where group
  // commit batches, and holding the latch through it would serialize the
  // very committers it should batch.
  Status SyncCommit(uint64_t commit_lsn);

  // ----- DefragHost (the defragmenter's view of this database) --------------

  StatusOr<std::vector<DefragHost::ObjectFacts>> CollectObjectFacts() override;
  uint64_t MutationClock() override;
  Status MigrateObject(uint64_t id, uint64_t horizon,
                       uint32_t headroom_pages) override;
  Status ReleaseMigratedStorage() override;
  void RefreshFragGauges() override;

  DatabaseOptions options_;
  std::unique_ptr<obs::SnapshotWriter> snapshot_writer_;
  std::unique_ptr<PageDevice> device_;
  VerifiedPageDevice* verified_ = nullptr;  // aliases device_ when stacked
  VolumeSetDevice* volume_set_ = nullptr;   // aliases device_ when multi-volume
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<SegmentAllocator> allocator_;
  std::unique_ptr<LobManager> lob_;
  std::unique_ptr<ExtentCache> cache_;  // options.cache_bytes > 0 only
  std::unique_ptr<CheckpointFreeList> deferred_frees_;  // crash-safe only
  LogManager* log_ = nullptr;

  uint64_t next_object_id_ = 1;
  std::map<uint64_t, uint32_t> threshold_hints_;
  LobDescriptor dir_object_;  // the directory's own root

  // One live object. `cache_tag` is the version tag Read() binds into the
  // extent cache: the chain-current vseq under mvcc, otherwise a mutation
  // generation bumped on every root publication so stale cache keys die
  // with their generation. Either way it is maintained under dir_latch_
  // exclusive, so a reader holding it shared needs no other latch.
  struct DirEntry {
    Bytes root;  // serialized LobDescriptor
    uint64_t cache_tag = 1;
  };
  // Id-ordered, which is also SaveDirectory's serialization order.
  std::map<uint64_t, DirEntry> directory_;
  std::map<uint64_t, std::vector<HoleRange>> holes_;  // id -> hole map

  // Reader/writer latch over the directory and all object state above;
  // shared for reads/stats, exclusive for mutations. Mutable so const
  // accessors (GetHoles) can latch.
  mutable SharedLatch dir_latch_;
  // Heat tracking for defrag cold/hot classification: every foreground
  // mutation bumps the clock and stamps its object (map guarded by
  // dir_latch_ exclusive; clock is atomic so the defragmenter can read it
  // latch-free).
  std::atomic<uint64_t> mutation_clock_{0};
  std::map<uint64_t, uint64_t> last_mutation_;
  std::unique_ptr<Defragmenter> defrag_;

  // MVCC state. Latch order: dir_latch_ -> one version shard -> gc_latch_
  // -> extent-cache shard. Writers hold dir_latch_ exclusive and then the
  // one shard of the object they publish; BeginSnapshot and pin release
  // take only that shard, which is what keeps readers off the directory
  // latch and off each other. Whole-table walkers take the shards one at
  // a time, never two at once. gc_ready_ (storage staged for the next
  // drain) is guarded by gc_latch_; pending_retired_ is a writer-side
  // staging slot guarded by dir_latch_ exclusive alone.
  std::array<VersionShard, kVersionShards> version_shards_;
  Latch gc_latch_;
  std::vector<Extent> gc_ready_;
  std::vector<Extent> pending_retired_;
};

}  // namespace eos

#endif  // EOS_EOS_DATABASE_H_
