#include "cache/extent_cache.h"

#include <algorithm>
#include <cstring>

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

}  // namespace

size_t ExtentCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      Mix64(Mix64(k.object_id ^ (k.vseq * 0x9e3779b97f4a7c15ULL)) ^ k.first));
}

ExtentCache::ExtentCache(size_t capacity_bytes)
    : capacity_(capacity_bytes),
      shard_capacity_(std::max<size_t>(1, capacity_bytes / kShards)),
      shard_protected_cap_(
          static_cast<size_t>(shard_capacity_ * kProtectedFraction)) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_hit_ = reg.counter(obs::kCacheHit);
  m_miss_ = reg.counter(obs::kCacheMiss);
  m_admit_ = reg.counter(obs::kCacheAdmit);
  m_reject_ = reg.counter(obs::kCacheReject);
  m_evict_ = reg.counter(obs::kCacheEvict);
  m_invalidate_ = reg.counter(obs::kCacheInvalidate);
  m_resident_ = reg.gauge(obs::kCacheResidentBytes);
  m_shard_wait_ = reg.histogram(obs::kCacheShardLatchWaitUs);
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
    shard->protected_bytes -= e.image.size;
    shard->protect.erase(e.lru_it);
  } else {
    shard->probation.erase(e.lru_it);
  }
  auto object = shard->by_object.find(e.key.object_id);
  object->second.erase(e.object_it);
  if (object->second.empty()) shard->by_object.erase(object);
  shard->resident_bytes -= e.image.size;
  m_resident_->Add(-static_cast<int64_t>(e.image.size));
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
                     it->second.image.size);
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
    shard->protected_bytes -= e.image.size;
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
    obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
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
  if (it == shard.entries.end() || hi > it->second.image.size) {
    ++shard.misses;
    m_miss_->Inc();
    return false;
  }
  Entry& e = it->second;
  std::memcpy(out, e.image.data.get() + lo, hi - lo);
  if (!e.is_protected) {
    shard.probation.erase(e.lru_it);
    shard.protect.push_front(key);
    e.lru_it = shard.protect.begin();
    e.is_protected = true;
    shard.protected_bytes += e.image.size;
    BalanceProtectedLocked(&shard);
  } else {
    shard.protect.splice(shard.protect.begin(), shard.protect, e.lru_it);
    e.lru_it = shard.protect.begin();
  }
  ++shard.hits;
  m_hit_->Inc();
  return true;
}

bool ExtentCache::Contains(uint64_t object_id, uint64_t vseq,
                           PageId first) const {
  if (capacity_ == 0) return false;
  Key key{object_id, vseq, first};
  Shard& shard = ShardFor(key);
  obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
  return shard.entries.find(key) != shard.entries.end();
}

bool ExtentCache::AdmitsLocked(const Shard& shard, const Key& key,
                               size_t len) const {
  if (shard.resident_bytes + len <= shard_capacity_) return true;
  const std::list<Key>& from =
      shard.probation.empty() ? shard.protect : shard.probation;
  if (from.empty()) return true;
  return SketchEstimate(SketchPoint(key)) >
         SketchEstimate(SketchPoint(from.back()));
}

bool ExtentCache::WouldAdmit(uint64_t object_id, uint64_t vseq, PageId first,
                             size_t len) const {
  if (capacity_ == 0 || len == 0 || len > shard_capacity_) return false;
  Key key{object_id, vseq, first};
  Shard& shard = ShardFor(key);
  obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
  if (shard.entries.find(key) != shard.entries.end()) return false;
  if (AdmitsLocked(shard, key, len)) return true;
  ++shard.rejected;
  m_reject_->Inc();
  return false;
}

void ExtentCache::Insert(uint64_t object_id, uint64_t vseq, PageId first,
                         Image image) {
  const size_t len = image.size;
  if (capacity_ == 0 || len == 0 || len > shard_capacity_) return;
  Key key{object_id, vseq, first};
  Shard& shard = ShardFor(key);
  // Frequency-based admission: a one-touch cold scan never displaces a
  // proven-hot entry. The caller's WouldAdmit ran before the fill read,
  // with the latch dropped, so the shard may have moved since; that probe
  // counted the offer's rejection, and losing the race here is rare.
  obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
  if (shard.entries.find(key) != shard.entries.end()) return;
  if (!AdmitsLocked(shard, key, len)) return;
  EvictForLocked(&shard, len);
  if (shard.resident_bytes + len > shard_capacity_) return;
  std::list<Key>& object_keys = shard.by_object[object_id];
  object_keys.push_front(key);
  Entry e;
  e.key = key;
  e.is_protected = false;
  e.image = std::move(image);
  e.object_it = object_keys.begin();
  shard.resident_bytes += len;
  m_resident_->Add(static_cast<int64_t>(len));
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
    obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
    auto object = shard.by_object.find(object_id);
    if (object == shard.by_object.end()) continue;
    std::list<Key>& keys = object->second;
    for (auto k = keys.begin(); k != keys.end();) {
      const Key key = *k++;
      if (key.vseq >= floor) continue;
      // Removing the object's last entry in this shard erases `keys`.
      const bool last = keys.size() == 1;
      RemoveLocked(&shard, shard.entries.find(key), /*count_evicted=*/false);
      ++shard.invalidated;
      ++dropped;
      if (last) break;
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
    obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
    while (!shard.entries.empty()) {
      RemoveLocked(&shard, shard.entries.begin(), /*count_evicted=*/false);
    }
  }
}

ExtentCache::Stats ExtentCache::GetStats() const {
  Stats out;
  for (const Shard& shard : shards_) {
    obs::TimedLatchGuard g(shard.latch, m_shard_wait_);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.admitted += shard.admitted;
    out.rejected += shard.rejected;
    out.evicted += shard.evicted;
    out.invalidated += shard.invalidated;
    out.resident_bytes += shard.resident_bytes;
    out.entries += shard.entries.size();
  }
  return out;
}

}  // namespace eos
