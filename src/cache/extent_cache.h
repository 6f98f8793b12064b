#ifndef EOS_CACHE_EXTENT_CACHE_H_
#define EOS_CACHE_EXTENT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/latch.h"
#include "io/page_device.h"
#include "obs/metrics.h"

namespace eos {

// Hot-object DRAM cache tier (DESIGN.md §14).
//
// Caches whole leaf-extent images above the pager/leaf-read path, keyed by
// (object id, version sequence, extent first page). Version sequences make
// coherence trivial the BlobSeer way: a published version is immutable, so
// a cached extent of version v can never be stale — new versions get new
// keys, and entries of versions no reader can pin anymore are dropped by
// the invalidation hooks (publish, snapshot release, defrag migration).
//
//   * Admission is frequency-based (TinyLFU-style counting sketch): under
//     byte pressure a block enters only by beating the eviction victim's
//     estimated frequency, so one cold scan cannot flush the hot set.
//   * Eviction is a segmented LRU per shard: new admits land in a
//     probation segment, a re-referenced entry is promoted into the
//     protected segment (bounded to kProtectedFraction of the budget,
//     overflow demotes back to probation), and victims come from the
//     probation tail first. Images are stored as read, so every hit is a
//     memcpy off the entry.
//   * The cache adopts the exact-size image a fill read into (Insert takes
//     ownership), so it holds exactly the bytes it charges and a fill
//     makes no copy of its own.
//   * Each shard indexes its entries by object, so dropping one object's
//     stale versions visits that object's entries, not the whole cache,
//     while Lookup stays one hash lookup.
//
// Thread-safe; the key/LRU state is sharded (kShards latches) and every
// latch here is a leaf — the cache never calls back into the engine — so
// lookups from latch-free snapshot readers stay off the directory latch
// entirely.
class ExtentCache {
 public:
  // Aggregated over shards; counts since construction.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;     // WouldAdmit probes frequency admission refused
    uint64_t evicted = 0;
    uint64_t invalidated = 0;
    uint64_t resident_bytes = 0;  // bytes of cached images
    uint64_t entries = 0;
  };

  // An extent image the cache adopts: `size` bytes, allocated without
  // zeroing, because the fill read writes every byte before the image is
  // offered.
  struct Image {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;

    static Image Allocate(size_t size) {
      return Image{std::make_unique_for_overwrite<uint8_t[]>(size), size};
    }
  };

  // `capacity_bytes` is the total resident budget over all shards; 0
  // disables the cache.
  explicit ExtentCache(size_t capacity_bytes);

  ExtentCache(const ExtentCache&) = delete;
  ExtentCache& operator=(const ExtentCache&) = delete;

  // Copies bytes [lo, hi) of the cached extent image into `out` and
  // touches the entry (LRU move, frequency bump, possible promotion).
  // False on miss; a miss also records the access in the admission sketch.
  bool Lookup(uint64_t object_id, uint64_t vseq, PageId first, uint64_t lo,
              uint64_t hi, uint8_t* out);

  // True when the extent image is resident. No LRU/frequency side effects;
  // the read-ahead path uses this to skip prefetching a cached extent.
  bool Contains(uint64_t object_id, uint64_t vseq, PageId first) const;

  // Admission probe for the fill policy: would offering a `len`-byte image
  // for this key pass frequency admission right now? The leaf-read path
  // asks this before every fill read, whole or partial: a one-touch cold
  // scan reads only the bytes it asked for, straight into its own buffer,
  // while an extent the sketch has seen beat the current victim and earns
  // the fill. A refusal by frequency counts as a rejection; otherwise
  // advisory (no LRU/sketch side effects, and Insert re-checks), and may go
  // stale by the time the fill lands, which merely wastes one over-read.
  bool WouldAdmit(uint64_t object_id, uint64_t vseq, PageId first,
                  size_t len) const;

  // Offers a whole extent image for admission and takes ownership of it.
  // Admission is checked again under the shard latch: the image may be
  // rejected (frequency too low under pressure, and then freed) or evict
  // others.
  void Insert(uint64_t object_id, uint64_t vseq, PageId first, Image image);

  // Drops every entry of the object whose vseq is below `floor` — the
  // invalidation hook: pass the oldest version a reader could still pin
  // (the chain front) after publish/GC, or ~0 to drop the whole object.
  // Visits only that object's entries, through each shard's object index.
  void InvalidateObjectBelow(uint64_t object_id, uint64_t floor);
  void InvalidateObject(uint64_t object_id) {
    InvalidateObjectBelow(object_id, ~uint64_t{0});
  }

  void Clear();

  Stats GetStats() const;
  size_t capacity_bytes() const { return capacity_; }

 private:
  static constexpr size_t kShards = 8;
  // Share of each shard's budget the protected (hot) segment may hold.
  static constexpr double kProtectedFraction = 0.8;
  static constexpr size_t kSketchSlots = 1u << 15;  // 32k 8-bit counters
  // Halve every counter once this many accesses were sketched; keeps the
  // frequency estimate a sliding window, not an all-time count. Each shard
  // counts its own lookups under its latch and triggers the halving after
  // its share of the period, so no lookup touches a process-wide counter.
  static constexpr uint64_t kSketchSamplePeriod = kSketchSlots * 8;
  static constexpr uint64_t kShardSamplePeriod = kSketchSamplePeriod / kShards;

  struct Key {
    uint64_t object_id = 0;
    uint64_t vseq = 0;
    PageId first = kInvalidPage;

    bool operator==(const Key& o) const {
      return object_id == o.object_id && vseq == o.vseq && first == o.first;
    }
  };

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  struct Entry {
    Key key;
    Image image;
    bool is_protected = false;
    std::list<Key>::iterator lru_it;     // position in its segment's list
    std::list<Key>::iterator object_it;  // position in its object's list
  };

  struct Shard {
    mutable Latch latch;
    std::unordered_map<Key, Entry, KeyHash> entries;
    // The keys of `entries`, by object; an object with none has no list.
    std::unordered_map<uint64_t, std::list<Key>> by_object;
    std::list<Key> probation;  // front = most recent
    std::list<Key> protect;
    size_t resident_bytes = 0;
    size_t protected_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t evicted = 0;
    uint64_t invalidated = 0;
    uint64_t sketch_samples = 0;  // lookups since this shard last aged
  };

  Shard& ShardFor(const Key& k) const;

  // Frequency sketch keyed on (object, extent) *without* the vseq, so a
  // hot extent keeps its history across republished versions.
  static uint64_t SketchPoint(const Key& k);
  void SketchTouch(uint64_t point);
  // Halves every sketch counter. Races with concurrent touches just halve
  // slightly early or late; the sketch is approximate by design.
  void AgeSketch();
  uint32_t SketchEstimate(uint64_t point) const;

  // The frequency-admission test: a `len`-byte image for `key` may enter
  // `shard` when it fits without eviction, or when the key's sketch
  // estimate beats the eviction victim's. Caller holds the shard latch.
  bool AdmitsLocked(const Shard& shard, const Key& key, size_t len) const;

  // Lookup's body once the shard latch is held.
  bool LookupLocked(Shard& shard, const Key& key, uint64_t lo, uint64_t hi,
                    uint8_t* out);

  // Removes `it`'s entry from `shard` (caller holds the shard latch).
  void RemoveLocked(Shard* shard,
                    std::unordered_map<Key, Entry, KeyHash>::iterator it,
                    bool count_evicted);
  // Evicts from the probation tail (then the protected tail) until the
  // shard fits `need` more resident bytes. Caller holds the shard latch.
  void EvictForLocked(Shard* shard, size_t need);
  // Moves the protected tail back to probation while over the hot budget.
  void BalanceProtectedLocked(Shard* shard);

  const size_t capacity_;
  const size_t shard_capacity_;
  const size_t shard_protected_cap_;

  mutable std::array<Shard, kShards> shards_;
  std::array<std::atomic<uint8_t>, kSketchSlots> sketch_{};

  obs::Counter* m_hit_;
  obs::Counter* m_miss_;
  obs::Counter* m_admit_;
  obs::Counter* m_reject_;
  obs::Counter* m_evict_;
  obs::Counter* m_invalidate_;
  obs::Gauge* m_resident_;
  obs::Histogram* m_shard_wait_;  // contended shard-latch waits, us
};

// Ambient (thread-local) cache binding. The Database installs one around a
// lob read — (cache, object id, version sequence) — so LobManager's
// leaf-read path and LobReader's read-ahead can consult the cache without
// threading identity through every signature, mirroring ScopedOpContext.
// A null cache leaves the previous binding visible (no-op scope). Parallel
// read plans copy the binding by value into their executor tasks.
class ScopedExtentCacheRef {
 public:
  struct Binding {
    ExtentCache* cache = nullptr;
    uint64_t object_id = 0;
    uint64_t vseq = 0;
  };

  ScopedExtentCacheRef(ExtentCache* cache, uint64_t object_id, uint64_t vseq)
      : ScopedExtentCacheRef(Binding{cache, object_id, vseq}) {}
  explicit ScopedExtentCacheRef(const Binding& b) : prev_(Slot()) {
    if (b.cache != nullptr) {
      owned_ = b;
      Slot() = &owned_;
    }
  }
  ~ScopedExtentCacheRef() { Slot() = prev_; }

  ScopedExtentCacheRef(const ScopedExtentCacheRef&) = delete;
  ScopedExtentCacheRef& operator=(const ScopedExtentCacheRef&) = delete;

  // The innermost binding on this thread, or nullptr.
  static const Binding* Current() { return Slot(); }

 private:
  static const Binding*& Slot() {
    thread_local const Binding* slot = nullptr;
    return slot;
  }

  Binding owned_;
  const Binding* prev_;
};

}  // namespace eos

#endif  // EOS_CACHE_EXTENT_CACHE_H_
