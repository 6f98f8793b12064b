#include "cache/extent_cache.h"

#include <algorithm>
#include <cstring>

#include "common/compress.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"

namespace eos {

namespace {

inline uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A compressed image must shrink by at least 1/8 to be worth the
// decompress on every probation hit.
inline size_t CompressCap(size_t len) { return len - len / 8; }

}  // namespace

size_t ExtentCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      Mix64(Mix64(k.object_id ^ (k.vseq * 0x9e3779b97f4a7c15ULL)) ^ k.first));
}

ExtentCache::ExtentCache(const Options& options)
    : capacity_(options.capacity_bytes),
      shard_capacity_(std::max<size_t>(1, options.capacity_bytes / kShards)),
      shard_protected_cap_(static_cast<size_t>(
          shard_capacity_ *
          std::min(1.0, std::max(0.0, options.protected_fraction)))),
      compress_(options.compress) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_hit_ = reg.counter(obs::kCacheHit);
  m_miss_ = reg.counter(obs::kCacheMiss);
  m_admit_ = reg.counter(obs::kCacheAdmit);
  m_reject_ = reg.counter(obs::kCacheReject);
  m_evict_ = reg.counter(obs::kCacheEvict);
  m_invalidate_ = reg.counter(obs::kCacheInvalidate);
  m_resident_ = reg.gauge(obs::kCacheResidentBytes);
  m_logical_ = reg.gauge(obs::kCacheLogicalBytes);
}

ExtentCache::Shard& ExtentCache::ShardFor(const Key& k) const {
  return shards_[KeyHash{}(k) % kShards];
}

uint64_t ExtentCache::SketchPoint(const Key& k) {
  // No vseq: the frequency history of a hot extent survives republication.
  return Mix64(k.object_id ^ Mix64(k.first));
}

void ExtentCache::SketchTouch(uint64_t point) {
  size_t a = point % kSketchSlots;
  size_t b = Mix64(point) % kSketchSlots;
  for (size_t slot : {a, b}) {
    uint8_t v = sketch_[slot].load(std::memory_order_relaxed);
    if (v < 255) {
      sketch_[slot].store(static_cast<uint8_t>(v + 1),
                          std::memory_order_relaxed);
    }
  }
}

void ExtentCache::AgeSketch() {
  for (auto& slot : sketch_) {
    slot.store(slot.load(std::memory_order_relaxed) >> 1,
               std::memory_order_relaxed);
  }
}

uint32_t ExtentCache::SketchEstimate(uint64_t point) const {
  size_t a = point % kSketchSlots;
  size_t b = Mix64(point) % kSketchSlots;
  return std::min(sketch_[a].load(std::memory_order_relaxed),
                  sketch_[b].load(std::memory_order_relaxed));
}

void ExtentCache::RemoveLocked(
    Shard* shard, std::unordered_map<Key, Entry, KeyHash>::iterator it,
    bool count_evicted) {
  Entry& e = it->second;
  if (e.is_protected) {
    shard->protected_bytes -= e.image.size();
    shard->protect.erase(e.lru_it);
  } else {
    shard->probation.erase(e.lru_it);
  }
  shard->resident_bytes -= e.image.size();
  shard->logical_bytes -= e.logical;
  if (e.compressed) --shard->compressed_entries;
  m_resident_->Add(-static_cast<int64_t>(e.image.size()));
  m_logical_->Add(-static_cast<int64_t>(e.logical));
  if (count_evicted) {
    ++shard->evicted;
    m_evict_->Inc();
  }
  shard->entries.erase(it);
}

void ExtentCache::EvictForLocked(Shard* shard, size_t need) {
  while (shard->resident_bytes + need > shard_capacity_ &&
         !shard->entries.empty()) {
    std::list<Key>& from =
        shard->probation.empty() ? shard->protect : shard->probation;
    auto it = shard->entries.find(from.back());
    obs::RecordEvent(obs::EventKind::kNote, "cache.evict",
                     it->second.key.object_id, it->second.key.first,
                     it->second.logical);
    RemoveLocked(shard, it, /*count_evicted=*/true);
  }
}

void ExtentCache::BalanceProtectedLocked(Shard* shard) {
  while (shard->protected_bytes > shard_protected_cap_ &&
         !shard->protect.empty()) {
    Key k = shard->protect.back();
    auto it = shard->entries.find(k);
    Entry& e = it->second;
    shard->protect.pop_back();
    shard->probation.push_front(k);
    e.lru_it = shard->probation.begin();
    e.is_protected = false;
    shard->protected_bytes -= e.image.size();
  }
}

bool ExtentCache::Lookup(uint64_t object_id, uint64_t vseq, PageId first,
                         uint64_t lo, uint64_t hi, uint8_t* out) {
  if (capacity_ == 0 || hi <= lo) return false;
  Key key{object_id, vseq, first};
  SketchTouch(SketchPoint(key));
  Shard& shard = ShardFor(key);
  bool hit;
  bool age = false;
  {
    LatchGuard g(shard.latch);
    if (++shard.sketch_samples == kShardSamplePeriod) {
      shard.sketch_samples = 0;
      age = true;
    }
    hit = LookupLocked(shard, key, lo, hi, out);
  }
  // Off-latch: the halving walks the whole sketch.
  if (age) AgeSketch();
  return hit;
}

bool ExtentCache::LookupLocked(Shard& shard, const Key& key, uint64_t lo,
                               uint64_t hi, uint8_t* out) {
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() || hi > it->second.logical) {
    ++shard.misses;
    m_miss_->Inc();
    return false;
  }
  Entry& e = it->second;
  if (e.compressed) {
    // Inflate the whole image; a probation hit is also the promotion that
    // keeps it raw from here on, so this decompress happens once.
    Bytes raw(e.logical);
    Status s = DecompressBlock(e.image.data(), e.image.size(), raw.data(),
                               raw.size());
    if (!s.ok()) {
      // Cannot happen for images we compressed ourselves; fail safe as a
      // miss and drop the entry rather than serve questionable bytes.
      RemoveLocked(&shard, it, /*count_evicted=*/false);
      ++shard.misses;
      m_miss_->Inc();
      return false;
    }
    std::memcpy(out, raw.data() + lo, hi - lo);
    int64_t delta = static_cast<int64_t>(raw.size()) -
                    static_cast<int64_t>(e.image.size());
    shard.resident_bytes += static_cast<size_t>(delta);
    m_resident_->Add(delta);
    e.image = std::move(raw);
    e.compressed = false;
    --shard.compressed_entries;
  } else {
    std::memcpy(out, e.image.data() + lo, hi - lo);
  }
  if (!e.is_protected) {
    shard.probation.erase(e.lru_it);
    shard.protect.push_front(key);
    e.lru_it = shard.protect.begin();
    e.is_protected = true;
    shard.protected_bytes += e.image.size();
    BalanceProtectedLocked(&shard);
  } else {
    shard.protect.splice(shard.protect.begin(), shard.protect, e.lru_it);
    e.lru_it = shard.protect.begin();
  }
  // Inflation may have pushed the shard over budget; rebalance now that
  // the caller's bytes are already copied out.
  EvictForLocked(&shard, 0);
  ++shard.hits;
  m_hit_->Inc();
  return true;
}

bool ExtentCache::Contains(uint64_t object_id, uint64_t vseq,
                           PageId first) const {
  if (capacity_ == 0) return false;
  Key key{object_id, vseq, first};
  Shard& shard = ShardFor(key);
  LatchGuard g(shard.latch);
  return shard.entries.find(key) != shard.entries.end();
}

bool ExtentCache::WouldAdmit(uint64_t object_id, uint64_t vseq, PageId first,
                             size_t len) const {
  if (capacity_ == 0 || len == 0 || len > shard_capacity_) return false;
  Key key{object_id, vseq, first};
  Shard& shard = ShardFor(key);
  LatchGuard g(shard.latch);
  if (shard.entries.find(key) != shard.entries.end()) return false;
  // `len` is the uncompressed length, so this is conservative when the
  // image would compress — matching Insert's own pre-check.
  if (shard.resident_bytes + len <= shard_capacity_) return true;
  const std::list<Key>& from =
      shard.probation.empty() ? shard.protect : shard.probation;
  if (from.empty()) return true;
  return SketchEstimate(SketchPoint(key)) >
         SketchEstimate(SketchPoint(from.back()));
}

void ExtentCache::Insert(uint64_t object_id, uint64_t vseq, PageId first,
                         const uint8_t* data, size_t len) {
  if (capacity_ == 0 || len == 0 || len > shard_capacity_) return;
  Key key{object_id, vseq, first};
  uint64_t point = SketchPoint(key);
  Shard& shard = ShardFor(key);

  // Frequency-based admission, pre-checked with the uncompressed length
  // BEFORE any compression work: a one-touch cold scan never displaces a
  // proven-hot entry, and rejecting it here keeps the miss path free of
  // compressor CPU (the cold-set regression budget).
  {
    LatchGuard g(shard.latch);
    if (shard.entries.find(key) != shard.entries.end()) return;
    if (shard.resident_bytes + len > shard_capacity_) {
      const std::list<Key>& from =
          shard.probation.empty() ? shard.protect : shard.probation;
      if (!from.empty() &&
          SketchEstimate(point) <= SketchEstimate(SketchPoint(from.back()))) {
        ++shard.rejected;
        m_reject_->Inc();
        return;
      }
    }
  }

  // Compress outside the shard latch; CPU work must not serialize readers.
  Bytes image;
  bool compressed = false;
  if (compress_) {
    Bytes packed(CompressCap(len));
    size_t n = CompressBlock(data, len, packed.data(), packed.size());
    if (n > 0) {
      packed.resize(n);
      packed.shrink_to_fit();
      image = std::move(packed);
      compressed = true;
    }
  }
  if (!compressed) image.assign(data, data + len);

  LatchGuard g(shard.latch);
  if (shard.entries.find(key) != shard.entries.end()) return;  // racing fill
  if (shard.resident_bytes + image.size() > shard_capacity_) {
    // Re-check against the victim: shard state may have moved while the
    // compressor ran off-latch.
    const std::list<Key>& from =
        shard.probation.empty() ? shard.protect : shard.probation;
    if (!from.empty() &&
        SketchEstimate(point) <= SketchEstimate(SketchPoint(from.back()))) {
      ++shard.rejected;
      m_reject_->Inc();
      return;
    }
    EvictForLocked(&shard, image.size());
    if (shard.resident_bytes + image.size() > shard_capacity_) return;
  }
  Entry e;
  e.key = key;
  e.logical = static_cast<uint32_t>(len);
  e.compressed = compressed;
  e.is_protected = false;
  shard.resident_bytes += image.size();
  shard.logical_bytes += len;
  if (compressed) ++shard.compressed_entries;
  m_resident_->Add(static_cast<int64_t>(image.size()));
  m_logical_->Add(static_cast<int64_t>(len));
  e.image = std::move(image);
  shard.probation.push_front(key);
  e.lru_it = shard.probation.begin();
  shard.entries.emplace(key, std::move(e));
  ++shard.admitted;
  m_admit_->Inc();
  obs::RecordEvent(obs::EventKind::kNote, "cache.admit", object_id, first,
                   len);
}

void ExtentCache::InvalidateObjectBelow(uint64_t object_id, uint64_t floor) {
  if (capacity_ == 0) return;
  uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    LatchGuard g(shard.latch);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.object_id == object_id && it->first.vseq < floor) {
        auto victim = it++;
        RemoveLocked(&shard, victim, /*count_evicted=*/false);
        ++shard.invalidated;
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    m_invalidate_->Inc(dropped);
    obs::RecordEvent(obs::EventKind::kNote, "cache.invalidate", object_id,
                     floor, dropped);
  }
}

void ExtentCache::Clear() {
  for (Shard& shard : shards_) {
    LatchGuard g(shard.latch);
    while (!shard.entries.empty()) {
      RemoveLocked(&shard, shard.entries.begin(), /*count_evicted=*/false);
    }
  }
}

ExtentCache::Stats ExtentCache::GetStats() const {
  Stats out;
  for (const Shard& shard : shards_) {
    LatchGuard g(shard.latch);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.admitted += shard.admitted;
    out.rejected += shard.rejected;
    out.evicted += shard.evicted;
    out.invalidated += shard.invalidated;
    out.resident_bytes += shard.resident_bytes;
    out.logical_bytes += shard.logical_bytes;
    out.entries += shard.entries.size();
    out.compressed_entries += shard.compressed_entries;
  }
  return out;
}

}  // namespace eos
