#include "eos/database.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "buddy/geometry.h"
#include "common/math.h"
#include "io/verified_device.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"
#include "obs/op_tracer.h"
#include "txn/recovery.h"

namespace eos {

namespace {

// The directory object's root lives inside the superblock page; keep it
// comfortably small.
constexpr uint32_t kDirRootBytes = 256;
constexpr uint32_t kSuperHeaderBytes = 32;

// Opens the v2 directory serialization; no v1 entry can start with it
// (object ids are monotone from 1).
constexpr uint64_t kDirSentinel = ~uint64_t{0};
constexpr uint32_t kDirFormatV2 = 2;

// Reads the format epoch from the raw (unwrapped) superblock page, so the
// caller knows whether to stack the integrity layer before anything else
// touches the device. A non-EOS or empty volume reads as epoch 0 and the
// regular superblock validation reports it.
StatusOr<uint16_t> PeekEpoch(PageDevice* dev) {
  if (dev->page_count() == 0) return uint16_t{0};
  Bytes page(dev->page_size());
  EOS_RETURN_IF_ERROR(dev->ReadPages(Database::kSuperblockPage, 1,
                                     page.data()));
  if (DecodeU32(page.data()) != Database::kMagic) return uint16_t{0};
  return DecodeU16(page.data() + 30);
}

// Exclusive hold of dir_latch_. An uncontended acquisition is one
// try_lock; only when that fails is the wait timed into
// db.dir_latch_wait_us, so the histogram counts contended waits alone.
class DirLatchExclusiveGuard {
 public:
  explicit DirLatchExclusiveGuard(SharedLatch& latch) : latch_(latch) {
    if (latch_.TryAcquireExclusive()) return;
    static obs::Histogram* wait_us =
        obs::MetricsRegistry::Default().histogram(obs::kDbDirLatchWaitUs);
    obs::TimeLatchWait(wait_us, [&] { latch_.AcquireExclusive(); });
  }
  ~DirLatchExclusiveGuard() { latch_.ReleaseExclusive(); }

  DirLatchExclusiveGuard(const DirLatchExclusiveGuard&) = delete;
  DirLatchExclusiveGuard& operator=(const DirLatchExclusiveGuard&) = delete;

 private:
  SharedLatch& latch_;
};

// The version-shard latch as the read path takes it (pin and unpin): a
// contended acquisition is timed into db.version_latch_wait_us.
obs::Histogram* VersionLatchWait() {
  static obs::Histogram* wait_us =
      obs::MetricsRegistry::Default().histogram(obs::kDbVersionLatchWaitUs);
  return wait_us;
}

// Holds the MVCC pin gate closed for one storage rebuild. It lives inside
// the rebuild's dir_latch_ exclusive section, so a pinner that finds the
// gate closed and waits on dir_latch_ shared finds it open again.
class ScopedPinGate {
 public:
  explicit ScopedPinGate(std::atomic<bool>* closed) : closed_(closed) {
    closed_->store(true);
  }
  ~ScopedPinGate() { closed_->store(false); }

  ScopedPinGate(const ScopedPinGate&) = delete;
  ScopedPinGate& operator=(const ScopedPinGate&) = delete;

 private:
  std::atomic<bool>* closed_;
};

}  // namespace

Database::~Database() {
  // The defrag thread calls back into this object; it must be gone before
  // any member is torn down (and before the final flush, so the flush sees
  // a quiesced volume).
  if (defrag_ != nullptr) defrag_->Stop();
  if (options_.mvcc && allocator_ != nullptr) {
    // Snapshots must not outlive the database; collapse every chain and
    // reclaim the retired storage so a cleanly closed volume reopens
    // leak-free (the allocation maps are durable even without crash_safe).
    DirLatchExclusiveGuard guard(dir_latch_);
    for (VersionShard& shard : version_shards_) {
      LatchGuard sg(shard.latch);
      for (auto& [id, chain] : shard.chains) {
        for (ObjectVersion& v : chain) StageGc(v.retired);
      }
      shard.chains.clear();
    }
    (void)DrainVersionGcLocked();
    // Crash-safe: the drain parked the frees; checkpoint them out.
    (void)CheckpointLocked();
  }
  (void)Flush();
  // Stop after the flush so the final sidecar snapshot sees its I/O.
  if (snapshot_writer_ != nullptr) snapshot_writer_->Stop();
}

void Database::StartSnapshotWriter(const std::string& volume_path) {
  if (options_.obs_snapshot_interval_ms == 0 || !obs::Enabled()) return;
  snapshot_writer_ = std::make_unique<obs::SnapshotWriter>();
  snapshot_writer_->Start(obs::SnapshotPathFor(volume_path),
                          options_.obs_snapshot_interval_ms);
}

StatusOr<std::unique_ptr<Database>> Database::Create(
    const std::string& path, const DatabaseOptions& options) {
  // Only the superblock page is preallocated: the usable page size (and
  // with it the space geometry) depends on whether the integrity layer is
  // stacked, so Init decides and grows the volume from there.
  EOS_ASSIGN_OR_RETURN(
      std::unique_ptr<FilePageDevice> dev,
      FilePageDevice::Create(path, options.page_size, /*page_count=*/1));
  EOS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                       Init(std::move(dev), options, /*fresh=*/true));
  db->StartSnapshotWriter(path);
  return db;
}

StatusOr<std::unique_ptr<Database>> Database::Open(
    const std::string& path, const DatabaseOptions& options) {
  EOS_ASSIGN_OR_RETURN(std::unique_ptr<FilePageDevice> dev,
                       FilePageDevice::Open(path, options.page_size));
  EOS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                       Init(std::move(dev), options, /*fresh=*/false));
  db->StartSnapshotWriter(path);
  return db;
}

StatusOr<std::unique_ptr<Database>> Database::CreateInMemory(
    const DatabaseOptions& options) {
  auto dev = std::make_unique<MemPageDevice>(options.page_size,
                                             /*page_count=*/1);
  return Init(std::move(dev), options, /*fresh=*/true);
}

StatusOr<std::unique_ptr<Database>> Database::CreateOnDevice(
    std::unique_ptr<PageDevice> device, const DatabaseOptions& options) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (device->page_size() != options.page_size) {
    return Status::InvalidArgument(
        "device page size differs from the configured page size");
  }
  if (device->page_count() < 1) {
    EOS_RETURN_IF_ERROR(device->Grow(1));
  }
  return Init(std::move(device), options, /*fresh=*/true);
}

StatusOr<std::unique_ptr<Database>> Database::OpenOnDevice(
    std::unique_ptr<PageDevice> device, const DatabaseOptions& options) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  return Init(std::move(device), options, /*fresh=*/false);
}

StatusOr<std::unique_ptr<Database>> Database::CreateOnVolumeSet(
    std::vector<std::unique_ptr<PageDevice>> members,
    VolumeSetOptions set_options, const DatabaseOptions& options) {
  for (const auto& m : members) {
    if (m != nullptr && m->page_size() != options.page_size) {
      return Status::InvalidArgument(
          "member page size differs from the configured page size");
    }
  }
  if (set_options.chunk_pages == 0) {
    // One buddy space footprint (directory page + data pages) per chunk:
    // extents never straddle members and spaces stripe across volumes.
    EOS_ASSIGN_OR_RETURN(
        BuddyGeometry geo,
        BuddyGeometry::Make(
            options.page_size - VerifiedPageDevice::kTrailerBytes,
            options.space_pages));
    set_options.chunk_pages = geo.space_pages + 1;
  }
  set_options.format_epoch = kFormatEpoch;
  EOS_ASSIGN_OR_RETURN(
      std::unique_ptr<VolumeSetDevice> set,
      VolumeSetDevice::Format(std::move(members), set_options));
  EOS_RETURN_IF_ERROR(set->Grow(1));  // the superblock chunk
  return Init(std::move(set), options, /*fresh=*/true);
}

StatusOr<std::unique_ptr<Database>> Database::OpenOnVolumeSet(
    std::vector<std::unique_ptr<PageDevice>> members,
    VolumeSetOptions set_options, const DatabaseOptions& options) {
  for (const auto& m : members) {
    if (m != nullptr && m->page_size() != options.page_size) {
      return Status::InvalidArgument(
          "member page size differs from the configured page size");
    }
  }
  set_options.format_epoch = kFormatEpoch;
  EOS_ASSIGN_OR_RETURN(
      std::unique_ptr<VolumeSetDevice> set,
      VolumeSetDevice::Open(std::move(members), set_options));
  return Init(std::move(set), options, /*fresh=*/false);
}

StatusOr<std::unique_ptr<Database>> Database::Init(
    std::unique_ptr<PageDevice> device, const DatabaseOptions& options,
    bool fresh) {
  std::unique_ptr<Database> db(new Database());
  db->options_ = options;
  // Stack the integrity layer under everything else. Fresh volumes opt in
  // via options (crash_safe implies it: a torn page must fail closed, not
  // read back as garbage); existing volumes declare it themselves via the
  // format epoch in the raw superblock.
  // A volume set already verifies per member (trailers and quarantine are
  // member-local); stacking another integrity layer on the logical space
  // would double-trailer every page.
  auto* vs = dynamic_cast<VolumeSetDevice*>(device.get());
  db->volume_set_ = vs;
  uint16_t epoch = 0;
  if (vs == nullptr) {
    if (fresh) {
      if (options.checksums || options.crash_safe) epoch = kFormatEpoch;
    } else {
      EOS_ASSIGN_OR_RETURN(epoch, PeekEpoch(device.get()));
    }
  }
  if (epoch != 0) {
    if (device->page_size() <= 2 * VerifiedPageDevice::kTrailerBytes) {
      return Status::InvalidArgument(
          "page size too small for checksummed pages");
    }
    auto verified = std::make_unique<VerifiedPageDevice>(
        std::move(device), epoch, options.io_retry);
    db->verified_ = verified.get();
    device = std::move(verified);
  }
  db->device_ = std::move(device);
  db->pager_ = std::make_unique<Pager>(db->device_.get(),
                                       std::max<size_t>(8,
                                                        options.pager_frames));
  // Write-through must be on before any page is formatted: a durable page
  // may only reference pages that are themselves already durable.
  if (options.crash_safe) db->pager_->set_write_through(true);
  uint32_t space_pages = options.space_pages;
  uint32_t num_spaces = std::max<uint32_t>(1, options.initial_spaces);
  if (!fresh) {
    EOS_RETURN_IF_ERROR(db->ReadSuperblock(&space_pages, &num_spaces));
  }
  EOS_ASSIGN_OR_RETURN(
      BuddyGeometry geo,
      BuddyGeometry::Make(db->device_->page_size(), space_pages));
  SegmentAllocator::Options aopt;
  aopt.initial_spaces = num_spaces;
  aopt.auto_grow = true;
  aopt.emergency_reserve_pages = options.emergency_reserve_pages;
  // Consecutive spaces live on different volume-set members; rotating the
  // scan start stripes objects across them instead of packing member 0.
  aopt.rotate_spaces = vs != nullptr;
  aopt.crash_safe = options.crash_safe;
  if (fresh) {
    EOS_ASSIGN_OR_RETURN(db->allocator_,
                         SegmentAllocator::Format(db->pager_.get(), geo,
                                                  kFirstSpacePage, aopt));
  } else {
    EOS_ASSIGN_OR_RETURN(
        db->allocator_,
        SegmentAllocator::Attach(db->pager_.get(), geo, kFirstSpacePage,
                                 num_spaces, aopt));
  }
  db->lob_ = std::make_unique<LobManager>(db->pager_.get(),
                                          db->allocator_.get(), options.lob);
  if (options.parallel_io) {
    db->lob_->set_io_executor(IoExecutor::Default());
  }
  if (options.crash_safe) db->lob_->set_shadowing(true);
  if (options.mvcc) {
    // Snapshot readers traverse superseded versions while writers publish
    // new ones; no page a pinned version references may ever be rewritten
    // in place, so shadowed index nodes and CoW Replace are mandatory.
    db->lob_->set_shadowing(true);
    db->lob_->set_cow_replace(true);
  }
  if (options.cache_bytes > 0) {
    db->cache_ = std::make_unique<ExtentCache>(options.cache_bytes);
  }
  if (fresh) {
    EOS_RETURN_IF_ERROR(db->WriteSuperblock());
  } else {
    EOS_RETURN_IF_ERROR(db->LoadDirectory());
  }
  if (options.mvcc) db->SeedVersionChains();
  db->defrag_ = std::make_unique<Defragmenter>(
      static_cast<DefragHost*>(db.get()), db->lob_.get(), options.defrag);
  if (options.defrag.enabled) db->defrag_->Start();
  return db;
}

uint32_t Database::DirRootSlotBytes() const {
  return std::min(kDirRootBytes, device_->page_size() - kSuperHeaderBytes);
}

Status Database::WriteSuperblock() {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Zeroed(kSuperblockPage));
  uint8_t* p = h.data();
  EncodeU32(p, kMagic);
  EncodeU32(p + 4, kVersion);
  EncodeU32(p + 8, device_->page_size());
  EncodeU32(p + 12, allocator_->geometry().space_pages);
  EncodeU32(p + 16, allocator_->num_spaces());
  EncodeU64(p + 20, next_object_id_);
  EncodeU16(p + 30, verified_ != nullptr
                        ? verified_->epoch()
                        : (volume_set_ != nullptr
                               ? volume_set_->options().format_epoch
                               : 0));
  Bytes root = dir_object_.Serialize();
  if (root.size() > DirRootSlotBytes()) {
    return Status::Corruption("directory root outgrew its superblock slot");
  }
  EncodeU16(p + 28, static_cast<uint16_t>(root.size()));
  std::memcpy(p + kSuperHeaderBytes, root.data(), root.size());
  h.MarkDirty();
  return Status::OK();
}

Status Database::ReadSuperblock(uint32_t* space_pages, uint32_t* num_spaces) {
  EOS_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(kSuperblockPage));
  const uint8_t* p = h.data();
  if (DecodeU32(p) != kMagic) {
    return Status::Corruption("not an EOS volume (superblock magic)");
  }
  uint32_t version = DecodeU32(p + 4);
  if (version < 1 || version > kVersion) {
    return Status::Corruption("unsupported EOS volume version " +
                              std::to_string(version));
  }
  if (DecodeU32(p + 8) != device_->page_size()) {
    return Status::InvalidArgument(
        "volume page size differs from the configured page size");
  }
  *space_pages = DecodeU32(p + 12);
  *num_spaces = DecodeU32(p + 16);
  next_object_id_ = DecodeU64(p + 20);
  uint16_t root_len = DecodeU16(p + 28);
  if (root_len > 0) {
    if (root_len > DirRootSlotBytes()) {
      return Status::Corruption("directory root overflows its slot");
    }
    EOS_ASSIGN_OR_RETURN(
        dir_object_,
        LobDescriptor::Deserialize(ByteView(p + kSuperHeaderBytes, root_len)));
  }
  return Status::OK();
}

Status Database::LoadDirectory() {
  directory_.clear();
  holes_.clear();
  if (dir_object_.empty()) return Status::OK();
  EOS_ASSIGN_OR_RETURN(Bytes all, lob_->ReadAll(dir_object_));
  size_t pos = 0;
  bool v2 = false;
  if (all.size() >= 12 && DecodeU64(all.data()) == kDirSentinel) {
    if (DecodeU32(all.data() + 8) != kDirFormatV2) {
      return Status::Corruption("unknown object directory format");
    }
    v2 = true;
    pos = 12;
  }
  while (pos < all.size()) {
    size_t header = v2 ? 16 : 12;
    if (pos + header > all.size()) {
      return Status::Corruption("truncated object directory entry");
    }
    uint64_t id = DecodeU64(all.data() + pos);
    uint32_t len = DecodeU32(all.data() + pos + 8);
    uint32_t hole_count = v2 ? DecodeU32(all.data() + pos + 12) : 0;
    if (pos + header + len + uint64_t{hole_count} * 16 > all.size()) {
      return Status::Corruption("truncated object directory root");
    }
    directory_[id].root.assign(all.begin() + pos + header,
                               all.begin() + pos + header + len);
    pos += header + len;
    if (hole_count > 0) {
      std::vector<HoleRange>& h = holes_[id];
      h.reserve(hole_count);
      for (uint32_t i = 0; i < hole_count; ++i) {
        h.push_back(HoleRange{DecodeU64(all.data() + pos),
                              DecodeU64(all.data() + pos + 8)});
        pos += 16;
      }
    }
  }
  return Status::OK();
}

Status Database::SaveDirectory() {
  // The directory rewrite is maintenance, not a user mutation: it must
  // complete even on a full volume (a refused delete could otherwise never
  // durably leave the directory), so it may consume the emergency reserve,
  // and its large-object writes must not appear in the operation log.
  SegmentAllocator::EmergencyScope emergency;
  LobManager::ScopedLogSuspend suspend(lob_.get());
  Bytes all;
  if (!directory_.empty()) {
    all.resize(12);
    EncodeU64(all.data(), kDirSentinel);
    EncodeU32(all.data() + 8, kDirFormatV2);
  }
  for (const auto& [id, entry] : directory_) {
    const Bytes& root = entry.root;
    auto hit = holes_.find(id);
    const std::vector<HoleRange>* h =
        hit == holes_.end() || hit->second.empty() ? nullptr : &hit->second;
    size_t nholes = h == nullptr ? 0 : h->size();
    size_t at = all.size();
    all.resize(at + 16 + root.size() + nholes * 16);
    EncodeU64(all.data() + at, id);
    EncodeU32(all.data() + at + 8, static_cast<uint32_t>(root.size()));
    EncodeU32(all.data() + at + 12, static_cast<uint32_t>(nholes));
    std::memcpy(all.data() + at + 16, root.data(), root.size());
    for (size_t i = 0; i < nholes; ++i) {
      size_t ho = at + 16 + root.size() + i * 16;
      EncodeU64(all.data() + ho, (*h)[i].offset);
      EncodeU64(all.data() + ho + 8, (*h)[i].length);
    }
  }
  // Rewrite the directory object wholesale. Its root must stay within the
  // superblock slot, so cap it explicitly.
  if (!dir_object_.empty()) {
    EOS_RETURN_IF_ERROR(lob_->Destroy(&dir_object_));
  }
  if (!all.empty()) {
    EOS_ASSIGN_OR_RETURN(dir_object_, lob_->CreateFrom(all));
    if (dir_object_.SerializedBytes() > DirRootSlotBytes()) {
      return Status::Corruption(
          "object directory root exceeds its superblock slot; lower "
          "max_root_bytes or raise kDirRootBytes");
    }
  }
  // No-force policy in crash-safe mode: the superblock is rewritten only at
  // Checkpoint()/Flush(), so the durable root always describes the last
  // checkpoint and the write-ahead log carries everything since. The old
  // directory object stays readable until then — its segments are parked,
  // not freed — which is what Recover() re-opens after a crash.
  if (options_.crash_safe) return Status::OK();
  return WriteSuperblock();
}

StatusOr<uint64_t> Database::CreateObjectLocked() {
  obs::ScopedOp span("db.create_object", 0, device_.get());
  Status adm = allocator_->AdmitMutation();
  if (!adm.ok()) return span.Close(std::move(adm));
  uint64_t id = next_object_id_++;
  LobDescriptor d = lob_->CreateEmpty();
  DirEntry& entry = directory_[id];
  entry.root = d.Serialize();
  if (options_.mvcc) {
    PublishVersion(id, entry.root, d.lsn, /*dead=*/false, /*retired=*/{});
  }
  TouchLocked(id);
  Status s = SaveDirectory();
  if (!s.ok()) return span.Close(std::move(s));
  return id;
}

StatusOr<uint64_t> Database::CreateObject() {
  DirLatchExclusiveGuard guard(dir_latch_);
  return CreateObjectLocked();
}

StatusOr<uint64_t> Database::CreateObjectFrom(ByteView data) {
  uint64_t id = 0;
  // Append (not CreateFrom) so the initial content is a logged operation;
  // a one-shot append of a known size produces the same exact layout.
  EOS_RETURN_IF_ERROR(Mutate("db.create_object_from", &id, {},
                             [&](LobDescriptor* d) {
                               return lob_->Append(d, data);
                             }));
  return id;
}

Status Database::Mutate(const char* span_name, uint64_t* id,
                        const MutationPolicy& policy, const MutationOp& op) {
  obs::ScopedOp span(span_name, *id, device_.get());
  uint64_t commit_lsn = 0;
  {
    DirLatchExclusiveGuard guard(dir_latch_);
    const bool create = *id == 0;
    if (create) {
      // CreateObjectLocked admits, touches and saves the new, empty object.
      StatusOr<uint64_t> created = CreateObjectLocked();
      if (!created.ok()) return span.Close(created.status());
      *id = *created;
    } else {
      auto heat = last_mutation_.find(*id);
      if (heat != last_mutation_.end() && heat->second > policy.cold_horizon) {
        return span.Close(Status::Busy("object went hot before migration"));
      }
      if (policy.headroom > 0) {
        Status adm = allocator_->AdmitMutation(policy.headroom);
        if (!adm.ok()) return span.Close(std::move(adm));
      }
    }
    StatusOr<LobDescriptor> root = GetRootLocked(*id);
    if (!root.ok()) return span.Close(root.status());
    LobDescriptor d = std::move(root).value();
    std::optional<SegmentAllocator::EmergencyScope> emergency;
    if (policy.headroom == 0) emergency.emplace();
    std::vector<Extent> freed;
    {
      // The outermost scope: a failed op unwinds here, and a committed one
      // hands back the storage only the old root reaches.
      SpaceReservation reservation(allocator_.get());
      Status s = op(&d);
      if (!s.ok()) return span.Close(std::move(s));
      freed = reservation.Commit();
    }
    // CreateObjectLocked has touched a new object already.
    if (policy.user && !create && !policy.drop) TouchLocked(*id);
    Status s = PublishRootLocked(*id, policy.drop ? nullptr : &d,
                                 std::move(freed));
    if (!s.ok()) return span.Close(std::move(s));
    if (policy.user) {
      s = CommitMutationLocked(*id, &commit_lsn);
      if (!s.ok()) return span.Close(std::move(s));
    }
  }
  return span.Close(SyncCommit(commit_lsn));
}

StatusOr<LobDescriptor> Database::GetRootLocked(uint64_t id,
                                                uint64_t* cache_tag) {
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  EOS_ASSIGN_OR_RETURN(LobDescriptor d,
                       LobDescriptor::Deserialize(it->second.root));
  d.object_id = id;
  auto hint = threshold_hints_.find(id);
  if (hint != threshold_hints_.end()) d.threshold_hint = hint->second;
  if (cache_tag != nullptr) *cache_tag = it->second.cache_tag;
  return d;
}

StatusOr<LobDescriptor> Database::GetRoot(uint64_t id) {
  SharedLatchGuard guard(dir_latch_);
  return GetRootLocked(id);
}

void Database::SetObjectThreshold(uint64_t id, uint32_t threshold_pages) {
  DirLatchExclusiveGuard guard(dir_latch_);
  if (threshold_pages == 0) {
    threshold_hints_.erase(id);
  } else {
    threshold_hints_[id] = threshold_pages;
  }
}

Status Database::ReorganizeObject(uint64_t id) {
  return Mutate("db.reorganize", &id, {.user = false},
                [&](LobDescriptor* d) { return lob_->Reorganize(d); });
}

Status Database::PublishRootLocked(uint64_t id, const LobDescriptor* d,
                                   std::vector<Extent> freed) {
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  const bool drop = d == nullptr;
  Bytes root = drop ? Bytes{} : d->Serialize();
  if (drop) {
    directory_.erase(it);
    holes_.erase(id);
    last_mutation_.erase(id);
  } else {
    it->second.root = root;
  }
  Status released;
  if (options_.mvcc) {
    // Publish before the directory save: the in-memory root above is the
    // current version from here on even if the save fails (the next
    // successful save persists it), and snapshot pins must track it. A
    // drop publishes a marker, so open snapshots keep reading the final
    // content version.
    PublishVersion(id, root, drop ? 0 : d->lsn, drop, std::move(freed));
  } else {
    // Without version chains the cache key is the per-object mutation
    // generation; bump it and drop the dead generation's entries (the new
    // root may reuse leaf extents the old one wrote in place).
    if (!drop) ++it->second.cache_tag;
    if (cache_ != nullptr) cache_->InvalidateObject(id);
    // Freed before the directory save, which may reuse the pages.
    released = allocator_->FreeAll(freed);
  }
  Status s = SaveDirectory();
  Status gc = DrainVersionGcLocked();
  if (!released.ok()) return released;
  return s.ok() ? gc : s;
}

Status Database::PutRoot(uint64_t id, const LobDescriptor& d) {
  DirLatchExclusiveGuard guard(dir_latch_);
  Status s = PublishRootLocked(id, &d, {});
  if (s.ok()) TouchLocked(id);
  return s;
}

void Database::TouchLocked(uint64_t id) {
  last_mutation_[id] = mutation_clock_.fetch_add(1) + 1;
}

StatusOr<std::vector<uint64_t>> Database::ListObjects() {
  SharedLatchGuard guard(dir_latch_);
  std::vector<uint64_t> ids;
  ids.reserve(directory_.size());
  for (const auto& [id, entry] : directory_) ids.push_back(id);
  return ids;
}

Status Database::DropObject(uint64_t id) {
  return Mutate("db.drop_object", &id, {.headroom = 0, .drop = true},
                [&](LobDescriptor* d) { return lob_->Destroy(d); });
}

StatusOr<uint64_t> Database::Size(uint64_t id) {
  if (options_.mvcc) {
    Snapshot pin;
    EOS_RETURN_IF_ERROR(PinCurrentVersion(id, /*read_pin=*/true, &pin));
    return pin.size();
  }
  SharedLatchGuard guard(dir_latch_);
  EOS_ASSIGN_OR_RETURN(LobDescriptor d, GetRootLocked(id));
  return d.size();
}

StatusOr<Bytes> Database::Read(uint64_t id, uint64_t offset, uint64_t n) {
  if (options_.mvcc) {
    // The pin keeps every page of the current version allocated and
    // unchanged until it is released on return, so no directory latch is
    // held across the device reads (DESIGN.md §13).
    Snapshot pin;
    EOS_RETURN_IF_ERROR(PinCurrentVersion(id, /*read_pin=*/true, &pin));
    return ReadRoot("db.read", id, pin.root(), pin.vseq(), offset, n);
  }
  // No version to pin, and Replace rewrites leaves in place: the shared
  // latch is what keeps the root's pages stable.
  SharedLatchGuard guard(dir_latch_);
  uint64_t cache_tag = 0;
  EOS_ASSIGN_OR_RETURN(LobDescriptor d, GetRootLocked(id, &cache_tag));
  return ReadRoot("db.read", id, d, cache_tag, offset, n);
}

StatusOr<Bytes> Database::ReadRoot(const char* span_name, uint64_t id,
                                   const LobDescriptor& root,
                                   uint64_t cache_tag, uint64_t offset,
                                   uint64_t n) {
  obs::ScopedOp span(span_name, id, device_.get());
  ScopedExtentCacheRef cache_scope(cache_.get(), id, cache_tag);
  Bytes out;
  Status s = lob_->Read(root, offset, n, &out);
  if (!s.ok()) return span.Close(std::move(s));
  return out;
}

Status Database::Append(uint64_t id, ByteView data) {
  return Mutate("db.append", &id, {},
                [&](LobDescriptor* d) { return lob_->Append(d, data); });
}

Status Database::Insert(uint64_t id, uint64_t offset, ByteView data) {
  return Mutate("db.insert", &id, {}, [&](LobDescriptor* d) {
    return lob_->Insert(d, offset, data);
  });
}

Status Database::Delete(uint64_t id, uint64_t offset, uint64_t n) {
  // Deletes net-free storage, so they are always admitted — and their
  // transient allocations (subtree rebuilds, node shadows) may draw on the
  // emergency reserve: refusing the one operation that reclaims space
  // would wedge a full volume.
  return Mutate("db.delete", &id, {.headroom = 0}, [&](LobDescriptor* d) {
    return lob_->Delete(d, offset, n);
  });
}

Status Database::Replace(uint64_t id, uint64_t offset, ByteView data) {
  // Replace rewrites bytes in place and allocates nothing, but it is still
  // a logged user mutation; only reads and deletes stay admitted when
  // full. (Under mvcc it *does* allocate: copy-on-write leaves.)
  return Mutate("db.replace", &id, {}, [&](LobDescriptor* d) {
    return lob_->Replace(d, offset, data);
  });
}

StatusOr<LobStats> Database::ObjectStats(uint64_t id) {
  if (options_.mvcc) {
    Snapshot pin;
    EOS_RETURN_IF_ERROR(PinCurrentVersion(id, /*read_pin=*/true, &pin));
    return lob_->Stats(pin.root());
  }
  SharedLatchGuard guard(dir_latch_);
  EOS_ASSIGN_OR_RETURN(LobDescriptor d, GetRootLocked(id));
  return lob_->Stats(d);
}

Status Database::FlushLocked() {
  // A half-initialized Database (failed Open) has nothing to flush.
  if (pager_ == nullptr || allocator_ == nullptr) return Status::OK();
  EOS_RETURN_IF_ERROR(WriteSuperblock());
  EOS_RETURN_IF_ERROR(pager_->FlushAll());
  return device_->Sync();
}

Status Database::Flush() {
  DirLatchExclusiveGuard guard(dir_latch_);
  return FlushLocked();
}

Status Database::CheckpointLocked() {
  // Checkpointing *releases* space; it must never be refused for lack of it.
  SegmentAllocator::EmergencyScope emergency;
  // Version GC first: extents whose last pinning snapshot closed reach
  // the allocator here, which parks them in crash-safe mode, so this very
  // checkpoint reclaims them.
  EOS_RETURN_IF_ERROR(DrainVersionGcLocked());
  EOS_RETURN_IF_ERROR(FlushLocked());
  // Every root that could reach the parked extents is durably superseded
  // now, so they may reach the buddy maps.
  return allocator_->ReleaseCheckpointFrees();
}

Status Database::Checkpoint() {
  DirLatchExclusiveGuard guard(dir_latch_);
  return CheckpointLocked();
}

Status Database::Recover(const std::vector<LogRecord>& log) {
  DirLatchExclusiveGuard guard(dir_latch_);
  Status s = RecoverImpl(log);
  if (!s.ok()) {
    // A failed recovery is as fatal as storage gets: the volume cannot be
    // brought to a consistent state. Leave the black box behind.
    obs::RecordEvent(obs::EventKind::kFatal, "db.recover", /*a=*/0, /*b=*/0,
                     /*c=*/0, /*ok=*/false);
    obs::DumpPostMortemBestEffort("recover_failed");
  }
  return s;
}

Status Database::RecoverImpl(const std::vector<LogRecord>& log) {
  obs::ScopedOp span("db.recover", 0, device_.get());
  // Pins requested from here on wait for the reseeded chains.
  ScopedPinGate gate(&pin_gate_closed_);
  if (options_.mvcc) {
    // Recovery rebuilds the allocation maps from durable reachability;
    // volatile version chains reference storage those maps would reclaim,
    // so a pin surviving across recovery would read freed pages.
    Status s = DrainPinsLocked("Recover()");
    if (!s.ok()) return span.Close(std::move(s));
    DropVersionChains();
  }
  if (cache_ != nullptr) {
    // Recovery may rewrite object content without advancing the in-memory
    // version tags (SeedVersionChains restarts every chain at vseq 1, and
    // the rebuilt directory restarts every generation); every cached image
    // is suspect, so drop them all.
    cache_->Clear();
  }
  // Deserialize every durable root. These are trustworthy: write-through
  // ordering guarantees a durable root only references durable pages.
  std::map<uint64_t, LobDescriptor> roots;
  for (const auto& [id, entry] : directory_) {
    EOS_ASSIGN_OR_RETURN(LobDescriptor d,
                         LobDescriptor::Deserialize(entry.root));
    roots[id] = d;
  }

  // Phase 1: the allocation maps themselves may lag or lead the roots
  // arbitrarily (their page writes raced the crash), so discard them and
  // rebuild from reachability.
  std::vector<Extent> live;
  if (!dir_object_.empty()) {
    Status s = lob_->CollectExtents(dir_object_, &live);
    if (!s.ok()) return span.Close(std::move(s));
  }
  for (auto& [id, d] : roots) {
    Status s = lob_->CollectExtents(d, &live);
    if (!s.ok()) return span.Close(std::move(s));
  }
  Status s = allocator_->WipeAndRebuild(live);
  if (!s.ok()) return span.Close(std::move(s));

  // Phase 2: objects only the log knows about (their creation never became
  // durable) start from an empty root; RecoverObject leaves them empty
  // unless the log carries a commit for them.
  for (const LogRecord& r : log) {
    if (r.object_id == 0) continue;
    if (roots.find(r.object_id) == roots.end()) {
      roots[r.object_id] = lob_->CreateEmpty();
    }
  }

  // Phase 3: per object, redo the committed tail and remove in-flight
  // effects.
  Recovery rec(lob_.get());
  for (auto& [id, d] : roots) {
    s = rec.RecoverObject(&d, id, log);
    if (!s.ok()) return span.Close(std::move(s));
  }

  // Phase 4: rebuild the directory. An object survives recovery if its
  // last committed record is not a destroy, or — when the log holds no
  // committed record for it — if the durable directory listed it (i.e. it
  // was untouched since the last checkpoint, or an uncommitted destroy had
  // already rewritten the directory).
  std::map<uint64_t, DirEntry> old_directory;
  old_directory.swap(directory_);
  for (auto& [id, d] : roots) {
    uint64_t commit_lsn = Recovery::LastCommitLsn(id, log);
    bool has_committed = false;
    bool destroyed = false;
    for (const LogRecord& r : log) {
      if (r.object_id != id || r.op == LogOp::kCommit) continue;
      if (r.lsn > commit_lsn) break;
      has_committed = true;
      destroyed = (r.op == LogOp::kDestroy);
    }
    bool keep;
    if (has_committed) {
      keep = !destroyed;
    } else {
      keep = old_directory.contains(id);
    }
    if (keep) directory_[id].root = d.Serialize();
    if (id >= next_object_id_) next_object_id_ = id + 1;
  }
  s = SaveDirectory();
  if (!s.ok()) return span.Close(std::move(s));
  s = CheckpointLocked();
  if (!s.ok()) return span.Close(std::move(s));
  // The recovered directory is the ground truth now; every chain restarts
  // from its durable root.
  if (options_.mvcc) SeedVersionChains();
  return span.Close(Status::OK());
}

Status Database::CheckIntegrity() {
  SharedLatchGuard guard(dir_latch_);
  EOS_RETURN_IF_ERROR(allocator_->CheckInvariants());
  for (const auto& [id, entry] : directory_) {
    EOS_ASSIGN_OR_RETURN(LobDescriptor d,
                         LobDescriptor::Deserialize(entry.root));
    EOS_RETURN_IF_ERROR(lob_->CheckInvariants(d));
  }
  if (!dir_object_.empty()) {
    EOS_RETURN_IF_ERROR(lob_->CheckInvariants(dir_object_));
  }
  return Status::OK();
}

Status Database::LeakCheck(LeakCheckReport* report) {
  // Exclusive: a mutation between the reference walk and the per-page
  // sweep would report its transient state as a leak.
  DirLatchExclusiveGuard guard(dir_latch_);
  *report = LeakCheckReport{};
  // 1. Everything a root can reach, plus the allocator's checkpoint list
  //    (allocated on purpose until the next Checkpoint drains it).
  std::vector<Extent> refs;
  if (!dir_object_.empty()) {
    EOS_RETURN_IF_ERROR(lob_->CollectExtents(dir_object_, &refs));
  }
  for (const auto& [id, entry] : directory_) {
    EOS_ASSIGN_OR_RETURN(LobDescriptor d,
                         LobDescriptor::Deserialize(entry.root));
    EOS_RETURN_IF_ERROR(lob_->CollectExtents(d, &refs));
  }
  for (const Extent& e : allocator_->checkpoint_frees()) refs.push_back(e);
  // 1b. Version-chain coverage (MVCC): superseded version roots, their
  //     retire batches, and extents staged for version GC are allocated on
  //     purpose while snapshots may still read them. Shadowing means a
  //     superseded tree shares its unchanged subtrees with the current
  //     root, so these join the sweep as a second, coverage-only class —
  //     folding them into `refs` would misreport that intentional sharing
  //     as doubly-referenced storage.
  std::vector<Extent> vrefs;
  if (options_.mvcc) {
    // Shards one at a time, then the GC staging: a pin released meanwhile
    // only moves retired storage from a chain into gc_ready_, which is
    // read last, so nothing slips between the two cursors.
    std::vector<Bytes> vroots;
    for (VersionShard& shard : version_shards_) {
      LatchGuard sg(shard.latch);
      for (const auto& [id, chain] : shard.chains) {
        for (const ObjectVersion& v : chain) {
          if (!v.dead) vroots.push_back(v.root);
          for (const Extent& e : v.retired) vrefs.push_back(e);
        }
      }
    }
    {
      LatchGuard gg(gc_latch_);
      for (const Extent& e : gc_ready_) vrefs.push_back(e);
    }
    for (const Bytes& root : vroots) {
      EOS_ASSIGN_OR_RETURN(LobDescriptor d, LobDescriptor::Deserialize(root));
      EOS_RETURN_IF_ERROR(lob_->CollectExtents(d, &vrefs));
    }
    std::sort(vrefs.begin(), vrefs.end(),
              [](const Extent& a, const Extent& b) {
                return a.first < b.first;
              });
  }
  // 2. Overlaps between references: two trees claiming the same storage.
  std::sort(refs.begin(), refs.end(), [](const Extent& a, const Extent& b) {
    return a.first < b.first;
  });
  for (size_t i = 0; i + 1 < refs.size(); ++i) {
    PageId end = refs[i].first + refs[i].pages;
    if (refs[i + 1].first < end) {
      PageId lo = refs[i + 1].first;
      PageId hi = std::min(end, refs[i + 1].first + refs[i + 1].pages);
      report->doubly_referenced.push_back(
          Extent{lo, static_cast<uint32_t>(hi - lo)});
    }
  }
  for (const Extent& e : refs) report->reachable_pages += e.pages;
  // 3. Per-page sweep of every space: a page the maps consider allocated
  //    must be covered by some reference, else it leaked. Runs of leaked
  //    pages coalesce into extents for readable reports.
  size_t ri = 0;  // refs cursor (sorted; extents never span spaces)
  size_t vi = 0;  // version-coverage cursor (sorted; overlaps allowed)
  Extent run{};
  for (uint32_t s = 0; s < allocator_->num_spaces(); ++s) {
    PageId first = allocator_->DirPage(s) + 1;
    for (PageId p = first; p < first + allocator_->geometry().space_pages;
         ++p) {
      EOS_ASSIGN_OR_RETURN(bool alloc, allocator_->IsAllocated(Extent{p, 1}));
      if (alloc) ++report->allocated_pages;
      while (ri < refs.size() && refs[ri].first + refs[ri].pages <= p) ++ri;
      bool referenced = ri < refs.size() && refs[ri].first <= p &&
                        p < refs[ri].first + refs[ri].pages;
      while (vi < vrefs.size() && vrefs[vi].first + vrefs[vi].pages <= p) ++vi;
      bool vref = vi < vrefs.size() && vrefs[vi].first <= p &&
                  p < vrefs[vi].first + vrefs[vi].pages;
      if (alloc && !referenced && !vref) {
        if (run.pages > 0 && run.first + run.pages == p) {
          ++run.pages;
        } else {
          if (run.pages > 0) report->leaked.push_back(run);
          run = Extent{p, 1};
        }
      }
    }
  }
  if (run.pages > 0) report->leaked.push_back(run);
  if (!report->leaked.empty() || !report->doubly_referenced.empty()) {
    return Status::Corruption(
        "leak check failed: " + std::to_string(report->leaked.size()) +
        " leaked extent run(s), " +
        std::to_string(report->doubly_referenced.size()) +
        " doubly-referenced extent(s)");
  }
  return Status::OK();
}

Status Database::Scrub(ScrubReport* report) {
  // Shared for the whole pass: concurrent readers keep running (the
  // integrity suite races them on purpose), while mutators — including
  // defrag migrations — wait rather than free pages mid-walk. The flush
  // below only touches the pager and superblock, which no reader does.
  SharedLatchGuard guard(dir_latch_);
  obs::ScopedOp span("db.scrub", 0, device_.get());
  // On a volume set, scrub reads consult both mirror copies and repair the
  // bad one from the good one instead of reporting an issue.
  VolumeRepairScope repair_scope(volume_set_);
  const uint64_t repaired_before =
      volume_set_ != nullptr ? volume_set_->repaired_pages() : 0;
  auto fill_repaired = [&] {
    if (volume_set_ != nullptr) {
      report->repaired_from_replica +=
          volume_set_->repaired_pages() - repaired_before;
    }
  };
  // Scrub reads the device directly; make it current first.
  Status s = FlushLocked();
  if (!s.ok()) return span.Close(std::move(s));
  static obs::Counter* verified_counter =
      obs::MetricsRegistry::Default().counter(obs::kScrubPagesVerified);
  static obs::Counter* corrupt_counter =
      obs::MetricsRegistry::Default().counter(obs::kScrubCorruptPages);
  Bytes buf(device_->page_size());
  auto probe = [&](PageId page, PageRole role) {
    Status ps = device_->ReadPages(page, 1, buf.data());
    if (ps.ok()) {
      ++report->pages_verified;
      verified_counter->Inc();
    } else {
      report->issues.push_back(
          ScrubIssue{0, role, page, ps.message()});
      corrupt_counter->Inc();
    }
  };
  probe(kSuperblockPage, PageRole::kSuperblock);
  for (uint32_t sp = 0; sp < allocator_->num_spaces(); ++sp) {
    probe(allocator_->DirPage(sp), PageRole::kAllocatorMap);
  }
  if (!dir_object_.empty()) {
    size_t before = report->issues.size();
    s = lob_->ScrubObject(dir_object_, 0, report);
    if (!s.ok()) {
      fill_repaired();
      return span.Close(std::move(s));
    }
    for (size_t i = before; i < report->issues.size(); ++i) {
      report->issues[i].role = PageRole::kDirectory;
    }
  }
  s = ScrubObjectsLocked(report);
  fill_repaired();
  return span.Close(std::move(s));
}

// The per-object leg of Scrub(). On a multi-member volume set the walk is
// read-only device traffic spread across independent spindles, so it fans
// out over a few worker threads (each with its own repair scope and
// report, merged afterward); otherwise it runs inline.
Status Database::ScrubObjectsLocked(ScrubReport* report) {
  std::vector<std::pair<uint64_t, Bytes>> work;
  work.reserve(directory_.size());
  for (const auto& [id, entry] : directory_) work.emplace_back(id, entry.root);
  size_t threads = 1;
  if (options_.parallel_io && volume_set_ != nullptr) {
    threads = std::min<size_t>({4, volume_set_->member_count(), work.size()});
  }
  if (threads <= 1) {
    for (const auto& [id, root] : work) {
      EOS_ASSIGN_OR_RETURN(LobDescriptor d, LobDescriptor::Deserialize(root));
      EOS_RETURN_IF_ERROR(lob_->ScrubObject(d, id, report));
    }
    return Status::OK();
  }
  std::vector<ScrubReport> parts(threads);
  std::vector<Status> results(threads, Status::OK());
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // The repair scope is thread-local; each worker installs its own.
      VolumeRepairScope scope(volume_set_);
      for (size_t i = t; i < work.size(); i += threads) {
        auto d = LobDescriptor::Deserialize(work[i].second);
        if (!d.ok()) {
          results[t] = d.status();
          return;
        }
        Status s = lob_->ScrubObject(*d, work[i].first, &parts[t]);
        if (!s.ok()) {
          results[t] = std::move(s);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t t = 0; t < threads; ++t) {
    report->pages_verified += parts[t].pages_verified;
    report->issues.insert(report->issues.end(), parts[t].issues.begin(),
                          parts[t].issues.end());
    EOS_RETURN_IF_ERROR(results[t]);
  }
  return Status::OK();
}

Status Database::RepairObject(uint64_t id) {
  DirLatchExclusiveGuard guard(dir_latch_);
  obs::ScopedOp span("db.repair_object", id, device_.get());
  // Salvage reads heal from the mirror copy where one exists, so holes are
  // zero-filled only when no replica survives either.
  VolumeRepairScope repair_scope(volume_set_);
  // Pins requested from here on wait for the reseeded chains.
  ScopedPinGate gate(&pin_gate_closed_);
  if (options_.mvcc) {
    // The rebuild below reclaims everything unreachable from current
    // roots, which includes whatever superseded versions still reference.
    Status s = DrainPinsLocked("RepairObject()");
    if (!s.ok()) return span.Close(std::move(s));
  }
  EOS_ASSIGN_OR_RETURN(LobDescriptor d, GetRootLocked(id));
  std::vector<HoleRange> holes;
  auto salvaged = lob_->Salvage(d, &holes);
  if (!salvaged.ok()) return span.Close(salvaged.status());
  Bytes content = std::move(salvaged).value();

  // Rewrite into fresh storage. Directory bookkeeping is internal, and so
  // is the salvage rewrite — neither belongs in the operation log.
  LobManager::ScopedLogSuspend suspend(lob_.get());
  EOS_ASSIGN_OR_RETURN(LobDescriptor repaired, lob_->CreateFrom(content));
  directory_[id].root = repaired.Serialize();
  if (holes.empty()) {
    holes_.erase(id);
  } else {
    holes_[id] = std::move(holes);
  }
  Status s = SaveDirectory();
  if (!s.ok()) return span.Close(std::move(s));

  // The old tree cannot be freed *through* — its corrupt pages are exactly
  // why we are here — so reclaim by rebuilding the allocation maps from
  // reachability, as crash recovery does. The rebuild also empties the
  // allocator's checkpoint list: those extents are unreachable too, and
  // the roots become durable at the Flush below, so early reuse is safe.
  // Version chains reference the same untrusted trees; with every pin
  // drained and the gate closed (above) they are dropped outright and
  // reseeded from the repaired directory once the rebuild is durable.
  if (options_.mvcc) DropVersionChains();
  if (cache_ != nullptr) {
    // SeedVersionChains below restarts every chain at vseq 1, so stale
    // images of *any* object could alias the reseeded tags.
    cache_->Clear();
  }
  std::vector<Extent> live;
  if (!dir_object_.empty()) {
    s = lob_->CollectExtents(dir_object_, &live);
    if (!s.ok()) return span.Close(std::move(s));
  }
  for (const auto& [oid, entry] : directory_) {
    EOS_ASSIGN_OR_RETURN(LobDescriptor od,
                         LobDescriptor::Deserialize(entry.root));
    s = lob_->CollectExtents(od, &live);
    if (!s.ok()) return span.Close(std::move(s));
  }
  s = allocator_->WipeAndRebuild(live);
  if (!s.ok()) return span.Close(std::move(s));
  s = FlushLocked();
  if (!s.ok()) return span.Close(std::move(s));
  if (options_.mvcc) SeedVersionChains();
  static obs::Counter* repaired_counter =
      obs::MetricsRegistry::Default().counter(obs::kScrubRepairedObjects);
  repaired_counter->Inc();
  return span.Close(Status::OK());
}

std::vector<HoleRange> Database::GetHoles(uint64_t id) const {
  SharedLatchGuard guard(dir_latch_);
  auto it = holes_.find(id);
  return it == holes_.end() ? std::vector<HoleRange>{} : it->second;
}

void Database::AttachLog(LogManager* log) {
  DirLatchExclusiveGuard guard(dir_latch_);
  log_ = log;
  lob_->set_log_manager(log);
}

// ----- snapshot MVCC (DESIGN.md §13) -----------------------------------------

Snapshot& Snapshot::operator=(Snapshot&& o) noexcept {
  if (this != &o) {
    Release();
    db_ = o.db_;
    object_id_ = o.object_id_;
    vseq_ = o.vseq_;
    lsn_ = o.lsn_;
    root_ = std::move(o.root_);
    read_pin_ = o.read_pin_;
    o.db_ = nullptr;
  }
  return *this;
}

void Snapshot::Release() {
  if (db_ == nullptr) return;
  db_->UnpinVersion(object_id_, vseq_, read_pin_);
  if (!read_pin_) {
    static obs::Gauge* open_gauge =
        obs::MetricsRegistry::Default().gauge(obs::kTxnSnapshotsOpen);
    open_gauge->Add(-1);
  }
  db_ = nullptr;
}

void Database::DropVersionChains() {
  for (VersionShard& shard : version_shards_) {
    LatchGuard sg(shard.latch);
    shard.chains.clear();
  }
  LatchGuard gg(gc_latch_);
  gc_ready_.clear();
}

void Database::SeedVersionChains() {
  DropVersionChains();
  for (const auto& [id, entry] : directory_) {
    ObjectVersion v;
    v.vseq = 1;
    v.root = entry.root;
    auto d = LobDescriptor::Deserialize(entry.root);
    if (d.ok()) v.lsn = d.value().lsn;
    VersionShard& shard = ShardFor(id);
    LatchGuard sg(shard.latch);
    shard.chains[id].push_back(std::move(v));
  }
}

void Database::StageGc(const std::vector<Extent>& extents) {
  if (extents.empty()) return;
  LatchGuard gg(gc_latch_);
  gc_ready_.insert(gc_ready_.end(), extents.begin(), extents.end());
}

void Database::PublishVersion(uint64_t id, const Bytes& root, uint64_t lsn,
                              bool dead, std::vector<Extent> retired) {
  static obs::Counter* published =
      obs::MetricsRegistry::Default().counter(obs::kTxnVersionsPublished);
  VersionShard& shard = ShardFor(id);
  LatchGuard sg(shard.latch);
  VersionChain& chain = shard.chains[id];
  ObjectVersion v;
  v.root = root;
  v.lsn = lsn;
  v.dead = dead;
  if (chain.empty()) {
    // First version (creation): nothing is superseded, so anything the
    // mutation freed was transient — collectable at the next drain.
    v.vseq = 1;
    StageGc(retired);
  } else {
    v.vseq = chain.back().vseq + 1;
    ObjectVersion& prev = chain.back();
    prev.retired.insert(prev.retired.end(), retired.begin(), retired.end());
  }
  chain.push_back(std::move(v));
  published->Inc();
  CollectChainLocked(id, &chain);
  if (chain.empty()) shard.chains.erase(id);
}

void Database::CollectChainLocked(uint64_t id, VersionChain* chain) {
  static obs::Counter* gcd =
      obs::MetricsRegistry::Default().counter(obs::kTxnVersionsGcd);
  bool advanced = false;
  while (!chain->empty() && !chain->front().pinned() &&
         (chain->size() > 1 || chain->front().dead)) {
    StageGc(chain->front().retired);
    chain->pop_front();
    gcd->Inc();
    advanced = true;
  }
  if (advanced && cache_ != nullptr) {
    // The collected versions can never be pinned again; their cached
    // extent images are unreachable and only waste budget — drop them.
    // Everything at or above the surviving front stays valid.
    cache_->InvalidateObjectBelow(
        id, chain->empty() ? ~uint64_t{0} : chain->front().vseq);
  }
}

void Database::UnpinVersion(uint64_t id, uint64_t vseq, bool read_pin) {
  VersionShard& shard = ShardFor(id);
  obs::TimedLatchGuard sg(shard.latch, VersionLatchWait());
  auto it = shard.chains.find(id);
  if (it == shard.chains.end()) return;
  for (ObjectVersion& v : it->second) {
    if (v.vseq == vseq) {
      uint64_t& pins = read_pin ? v.read_pins : v.pins;
      if (pins > 0) --pins;
      break;
    }
  }
  CollectChainLocked(id, &it->second);
  if (it->second.empty()) shard.chains.erase(it);
}

Status Database::DrainVersionGcLocked() {
  if (!options_.mvcc) return Status::OK();
  std::vector<Extent> ready;
  {
    LatchGuard gg(gc_latch_);
    ready.swap(gc_ready_);
  }
  if (ready.empty()) return Status::OK();
  // GC *is* the release path; it must never be refused for lack of space.
  SegmentAllocator::EmergencyScope emergency;
  for (size_t i = 0; i < ready.size(); ++i) {
    Status s = allocator_->Free(ready[i]);
    if (!s.ok()) {
      // Re-park the rest (this extent included): the storage stays
      // allocated — a leak-check finding at worst, never a dangling
      // reference.
      StageGc(std::vector<Extent>(ready.begin() + i, ready.end()));
      return s;
    }
  }
  return Status::OK();
}

Status Database::DrainPinsLocked(const char* who) {
  for (;;) {
    uint64_t snapshots = 0;
    uint64_t reads = 0;
    for (VersionShard& shard : version_shards_) {
      LatchGuard sg(shard.latch);
      for (const auto& [id, chain] : shard.chains) {
        for (const ObjectVersion& v : chain) {
          snapshots += v.pins;
          reads += v.read_pins;
        }
      }
    }
    if (snapshots > 0) {
      return Status::Busy(
          std::string("open snapshots pin versions whose storage the "
                      "rebuild reclaims; release all snapshots before ") +
          who);
    }
    if (reads == 0) return Status::OK();
    // Each read pin lasts one Read() call and no new one can start.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Status Database::CommitMutationLocked(uint64_t id, uint64_t* commit_lsn) {
  if (!options_.mvcc || log_ == nullptr) return Status::OK();
  return log_->LogCommitMarker(id, commit_lsn);
}

Status Database::SyncCommit(uint64_t commit_lsn) {
  if (commit_lsn == 0 || log_ == nullptr) return Status::OK();
  return log_->SyncToLsn(commit_lsn);
}

Status Database::PinCurrentVersion(uint64_t id, bool read_pin,
                                   Snapshot* pin) {
  VersionShard& shard = ShardFor(id);
  auto pin_locked = [&]() -> Status {
    auto it = shard.chains.find(id);
    if (it == shard.chains.end() || it->second.empty() ||
        it->second.back().dead) {
      return Status::NotFound("object " + std::to_string(id));
    }
    ObjectVersion& v = it->second.back();
    EOS_ASSIGN_OR_RETURN(pin->root_, LobDescriptor::Deserialize(v.root));
    ++(read_pin ? v.read_pins : v.pins);
    pin->db_ = this;
    pin->object_id_ = id;
    pin->vseq_ = v.vseq;
    pin->lsn_ = v.lsn;
    pin->read_pin_ = read_pin;
    return Status::OK();
  };
  {
    obs::TimedLatchGuard sg(shard.latch, VersionLatchWait());
    if (!pin_gate_closed_.load()) return pin_locked();
  }
  // A rebuild is about to drop (or has dropped) every chain. It holds
  // dir_latch_ exclusive until it has reseeded them and reopened the gate.
  SharedLatchGuard guard(dir_latch_);
  obs::TimedLatchGuard sg(shard.latch, VersionLatchWait());
  return pin_locked();
}

StatusOr<Snapshot> Database::BeginSnapshot(uint64_t id) {
  if (!options_.mvcc) {
    return Status::InvalidArgument("snapshots require DatabaseOptions::mvcc");
  }
  static obs::Gauge* open_gauge =
      obs::MetricsRegistry::Default().gauge(obs::kTxnSnapshotsOpen);
  Snapshot snap;
  EOS_RETURN_IF_ERROR(PinCurrentVersion(id, /*read_pin=*/false, &snap));
  open_gauge->Add(1);
  return snap;
}

StatusOr<Bytes> Database::SnapshotRead(const Snapshot& snap, uint64_t offset,
                                       uint64_t n) {
  if (!snap.valid()) {
    return Status::InvalidArgument("snapshot is released");
  }
  // No dir_latch_: the pinned root is immutable and version GC keeps every
  // page it references allocated, so concurrent mutators are invisible
  // here, and its cached extents can never be stale. Page-level
  // consistency is the pager's own latching.
  return ReadRoot("db.snapshot_read", snap.object_id(), snap.root(),
                  snap.vseq(), offset, n);
}

StatusOr<std::vector<Database::VersionInfo>> Database::ListVersions(
    uint64_t id) {
  if (!options_.mvcc) {
    SharedLatchGuard guard(dir_latch_);
    EOS_ASSIGN_OR_RETURN(LobDescriptor d, GetRootLocked(id));
    VersionInfo info;
    info.vseq = 1;
    info.lsn = d.lsn;
    info.size = d.size();
    if (!d.root.entries.empty()) info.root_page = d.root.entries[0].page;
    info.current = true;
    return std::vector<VersionInfo>{info};
  }
  VersionShard& shard = ShardFor(id);
  LatchGuard sg(shard.latch);
  auto it = shard.chains.find(id);
  if (it == shard.chains.end() || it->second.empty()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  std::vector<VersionInfo> out;
  out.reserve(it->second.size());
  for (const ObjectVersion& v : it->second) {
    VersionInfo info;
    info.vseq = v.vseq;
    info.lsn = v.lsn;
    info.pins = v.pins + v.read_pins;
    info.retired_extents = static_cast<uint32_t>(v.retired.size());
    info.current = (&v == &it->second.back());
    info.dead = v.dead;
    if (!v.dead) {
      EOS_ASSIGN_OR_RETURN(LobDescriptor d,
                           LobDescriptor::Deserialize(v.root));
      info.size = d.size();
      if (!d.root.entries.empty()) info.root_page = d.root.entries[0].page;
    }
    out.push_back(info);
  }
  return out;
}

// ----- online defragmentation (DESIGN.md §12) --------------------------------

Status Database::DefragTick(DefragReport* report) {
  if (defrag_ == nullptr) {
    return Status::InvalidArgument("database not initialized");
  }
  return defrag_->Tick(report);
}

StatusOr<std::vector<DefragHost::ObjectFacts>> Database::CollectObjectFacts() {
  SharedLatchGuard guard(dir_latch_);
  std::vector<DefragHost::ObjectFacts> facts;
  facts.reserve(directory_.size());
  for (const auto& [id, entry] : directory_) {
    EOS_ASSIGN_OR_RETURN(LobDescriptor d,
                         LobDescriptor::Deserialize(entry.root));
    EOS_ASSIGN_OR_RETURN(LobStats stats, lob_->Stats(d));
    DefragHost::ObjectFacts f;
    f.id = id;
    f.stats = stats;
    auto heat = last_mutation_.find(id);
    f.last_mutation = heat == last_mutation_.end() ? 0 : heat->second;
    facts.push_back(std::move(f));
  }
  return facts;
}

uint64_t Database::MutationClock() { return mutation_clock_.load(); }

Status Database::MigrateObject(uint64_t id, uint64_t horizon,
                               uint32_t headroom_pages) {
  // Reorganize is content-neutral and unlogged: it streams the bytes into
  // fresh maximal segments, keeps the root LSN, and frees (crash-safe:
  // parks) the old tree, so a crash mid-migration recovers from the old
  // root plus the unchanged WAL. Not a user mutation — a migration must not
  // make its object look hot — and refused if the object went hot since
  // the unlatched scan that scored it.
  return Mutate("db.defrag_migrate", &id,
                {.headroom = std::max<uint32_t>(1, headroom_pages),
                 .user = false,
                 .cold_horizon = horizon},
                [&](LobDescriptor* d) { return lob_->Reorganize(d); });
}

Status Database::ReleaseMigratedStorage() {
  // Without crash_safe the migration's frees reached the buddy system (or,
  // under mvcc, version GC) when it published its root; nothing is parked
  // until a checkpoint.
  if (!options_.crash_safe) return Status::OK();
  DirLatchExclusiveGuard guard(dir_latch_);
  return CheckpointLocked();
}

void Database::RefreshFragGauges() {
  if (allocator_ != nullptr) (void)allocator_->FragStats();
}

}  // namespace eos
