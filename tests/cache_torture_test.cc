// Extent-cache torture (DESIGN.md §14). The correctness proof for the
// hot-object DRAM tier: with the cache enabled, concurrent writers,
// lock-free snapshot readers and defrag ticks must never observe stale or
// wrong bytes — version-sequence keys make published images immutable and
// the invalidation hooks (publish, GC, in-place generation bump, defrag
// migration) retire everything a reader could no longer pin. Chaos read
// faults during a cache fill must degrade to the direct read path, and
// partial reads under a deadline must skip the whole-extent fill. Every
// path ends CheckIntegrity and LeakCheck clean. The admission and
// eviction policy is driven on its own as well, deterministically and under
// concurrent pressure.
//
// Failures print the seed; re-run with EOS_TEST_SEED=<n>.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/extent_cache.h"
#include "common/deadline.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/io_executor.h"
#include "lob/walker.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tests/churn_driver.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::ChurnDriver;
using testing_util::ChurnOptions;
using testing_util::PatternBytes;
using testing_util::Stack;
using testing_util::TestSeed;

DatabaseOptions CachedOptions(bool mvcc) {
  DatabaseOptions opt;
  opt.page_size = 512;
  opt.pager_frames = 64;
  opt.mvcc = mvcc;
  // Small enough that the churn working set overflows it: admission and
  // eviction both stay on the hot path of every test.
  opt.cache_bytes = 256u << 10;
  return opt;
}

// The owned image Insert adopts, holding a copy of `b`.
ExtentCache::Image ImageOf(const Bytes& b) {
  ExtentCache::Image image = ExtentCache::Image::Allocate(b.size());
  std::copy(b.begin(), b.end(), image.data.get());
  return image;
}

std::string AsString(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void ExpectClean(Database* db) {
  EOS_EXPECT_OK(db->CheckIntegrity());
  EOS_EXPECT_OK(db->Checkpoint());  // drain version GC fully
  LeakCheckReport report;
  EOS_EXPECT_OK(db->LeakCheck(&report));
  EXPECT_TRUE(report.leaked.empty());
  EXPECT_TRUE(report.doubly_referenced.empty());
}

// ----- oracle-checked concurrent churn with the cache on ---------------------

// Writers churn objects through the shared oracle driver, snapshot readers
// verify pinned versions lock-free (every read consulting the cache), and
// a defrag thread keeps migrating layouts underneath both — the Reorganize
// republish must retire cached images of the pre-migration extents.
TEST(CacheTortureTest, OracleExactUnderChurnReadersAndDefrag) {
  const uint64_t seed = TestSeed(0xCA51);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  DatabaseOptions opt = CachedOptions(/*mvcc=*/true);
  opt.defrag.min_scatter = 1.0;  // migrate aggressively
  auto db = Database::CreateInMemory(opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->extent_cache(), nullptr);
  LogManager log;
  (*db)->AttachLog(&log);

  ChurnOptions copt;
  copt.num_objects = 12;
  copt.initial_object_bytes = 8u << 10;
  copt.max_object_bytes = 32u << 10;
  copt.max_edit_bytes = 1024;
  ChurnDriver driver(db->get(), seed, copt);
  EOS_ASSERT_OK(driver.SetUp());

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kStepsPerWriter = 100;
  constexpr int kReadsPerReader = 80;
  driver.PrepareThreads(kWriters + kReaders);

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::vector<std::string> errors(kWriters + kReaders + 1);
  auto fail = [&](int slot, std::string why) {
    errors[slot] = std::move(why);
    failed.store(true);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kStepsPerWriter && !failed.load(); ++i) {
        Status s = driver.StepForThread(static_cast<uint32_t>(w));
        if (!s.ok()) {
          fail(w, "writer step: " + s.ToString());
          return;
        }
      }
    });
  }
  Database* dbp = db->get();
  for (int r = 0; r < kReaders; ++r) {
    const uint32_t slot = static_cast<uint32_t>(kWriters + r);
    threads.emplace_back([&, slot] {
      for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
        Snapshot snap;
        std::string expected;
        Status s = driver.PinRandomSnapshot(slot, &snap, &expected);
        if (!s.ok()) {
          fail(slot, "pin: " + s.ToString());
          return;
        }
        // Two lock-free reads of the pin: the first likely fills the
        // cache, the second likely hits it; both must be oracle-exact even
        // as writers republish and the defragmenter migrates this object.
        for (int pass = 0; pass < 2; ++pass) {
          auto got = dbp->SnapshotRead(snap, 0, expected.size() + 1);
          if (!got.ok()) {
            fail(slot, "snapshot read: " + got.status().ToString());
            return;
          }
          if (AsString(*got) != expected) {
            fail(slot, "snapshot v" + std::to_string(snap.vseq()) +
                           " of object " + std::to_string(snap.object_id()) +
                           " differs from its oracle (pass " +
                           std::to_string(pass) + ")");
            return;
          }
        }
        snap.Release();
      }
    });
  }
  threads.emplace_back([&] {
    // Defrag ticks racing both sides; Reorganize republishes objects and
    // must invalidate their cached pre-migration extents.
    while (!done.load() && !failed.load()) {
      DefragReport rep;
      Status s = dbp->DefragTick(&rep);
      if (!s.ok()) {
        fail(kWriters + kReaders, "defrag tick: " + s.ToString());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < kWriters + kReaders; ++i) threads[i].join();
  done.store(true);
  threads.back().join();
  std::string all_errors;
  for (const std::string& e : errors) {
    if (!e.empty()) all_errors += e + "\n";
  }
  ASSERT_FALSE(failed.load()) << all_errors;

  // Quiesced full-content verification reads through the warm cache.
  EOS_ASSERT_OK(driver.VerifyAll());
  ExtentCache::Stats stats = (*db)->extent_cache()->GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u) << "cache never consulted";
  EXPECT_LE(stats.resident_bytes, (*db)->extent_cache()->capacity_bytes());
  ExpectClean(db->get());
}

// Without mvcc, Replace mutates leaf pages in place under the directory
// latch; the per-object generation bump must keep the cache from ever
// serving the pre-mutation image.
TEST(CacheTortureTest, NonMvccInPlaceMutationsNeverServeStale) {
  const uint64_t seed = TestSeed(0xCA52);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto db = Database::CreateInMemory(CachedOptions(/*mvcc=*/false));
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Directed: read-fill, in-place replace, read again.
  Bytes content = PatternBytes(seed, 24 << 10);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto warm = (*db)->Read(*id, 0, content.size());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(*warm, content);
  Bytes edit = PatternBytes(seed + 1, 4 << 10);
  EOS_ASSERT_OK((*db)->Replace(*id, 1000, edit));
  std::copy(edit.begin(), edit.end(), content.begin() + 1000);
  auto after = (*db)->Read(*id, 0, content.size());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, content) << "cache served a pre-replace image";

  // Randomized: oracle churn with a full verification (cached reads) after
  // every epoch.
  ChurnOptions copt;
  copt.num_objects = 10;
  copt.initial_object_bytes = 8u << 10;
  copt.max_object_bytes = 24u << 10;
  ChurnDriver driver(db->get(), seed, copt);
  EOS_ASSERT_OK(driver.SetUp());
  for (int epoch = 0; epoch < 4; ++epoch) {
    EOS_ASSERT_OK(driver.Epoch());
    EOS_ASSERT_OK(driver.VerifyAll());
  }
  ExpectClean(db->get());
}

// ----- chaos read faults during a fill ---------------------------------------

// A failed whole-extent fill read must degrade to the existing direct read
// path, not fail the caller's read: the fill is an optimization.
TEST(CacheTortureTest, ReadFaultDuringFillDegradesToDirectRead) {
  const uint64_t seed = TestSeed(0xCA53);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto chaos_owned = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(512, 1), seed);
  ChaosPageDevice* chaos = chaos_owned.get();
  auto db = Database::CreateOnDevice(std::move(chaos_owned),
                                     CachedOptions(/*mvcc=*/false));
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Bytes content = PatternBytes(seed, 16 << 10);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Warm everything once (pager holds the index path), then invalidate the
  // cached images so the next read must fill again.
  auto warm = (*db)->Read(*id, 0, content.size());
  ASSERT_TRUE(warm.ok());
  (*db)->extent_cache()->Clear();

  obs::Counter* fill_fail =
      obs::MetricsRegistry::Default().counter(obs::kCacheFillFail);
  uint64_t fails_before = fill_fail->value();

  // The next device read — the fill's whole-extent transfer — fails once
  // (transient), so the direct path immediately after succeeds.
  chaos->FailReadsAfter(0, /*permanent=*/false);
  auto got = (*db)->Read(*id, 0, content.size());
  chaos->Heal();
  ASSERT_TRUE(got.ok()) << "fill fault leaked into the read: "
                        << got.status().ToString();
  EXPECT_EQ(*got, content);
  EXPECT_GT(fill_fail->value(), fails_before)
      << "fault never hit the fill path";

  // Permanent faults still fail the read itself — degradation does not
  // mean swallowing real I/O errors.
  (*db)->extent_cache()->Clear();
  chaos->FailReadsAfter(0, /*permanent=*/true);
  auto dead = (*db)->Read(*id, 0, content.size());
  chaos->Heal();
  EXPECT_FALSE(dead.ok());
  // And the volume is intact after healing.
  auto again = (*db)->Read(*id, 0, content.size());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, content);
  ExpectClean(db->get());
}

// ----- a checksummed fill that meets rot -------------------------------------

// With checksums on, a fill reads the whole extent through the verified
// device into the image the cache would adopt. Rot in one page of the
// extent fails every read that covers it with Corruption naming the page,
// throws the failed fill's image away (cache.fill_fail) and leaves the
// extent uncached, while a healthy range of the same extent still reads
// through the direct path and other extents still fill and read exactly.
TEST(CacheTortureTest, ChecksummedFillMeetsRot) {
  const uint64_t seed = TestSeed(0xCA57);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto chaos_owned = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(512, 1), seed);
  ChaosPageDevice* chaos = chaos_owned.get();
  DatabaseOptions opt = CachedOptions(/*mvcc=*/true);
  opt.checksums = true;
  auto db = Database::CreateOnDevice(std::move(chaos_owned), opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExtentCache* cache = (*db)->extent_cache();
  const uint64_t ps = (*db)->device()->page_size();

  Bytes a_bytes = PatternBytes(seed, 12 << 10);
  Bytes b_bytes = PatternBytes(seed + 1, 6 << 10);
  auto a = (*db)->CreateObjectFrom(a_bytes);
  auto b = (*db)->CreateObjectFrom(b_bytes);
  ASSERT_TRUE(a.ok() && b.ok());
  auto snap = (*db)->BeginSnapshot(*a);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const std::vector<LobEntry>& segments = snap->root().root.entries;
  ASSERT_EQ(snap->root().root.level, 0u);
  ASSERT_GE(segments[0].count, 3 * ps) << "want a multi-page extent";
  const PageId rotten = segments[0].page + 1;
  cache->Clear();
  EOS_ASSERT_OK(chaos->CorruptPage(rotten, /*bits=*/3));

  obs::Counter* fill_fail =
      obs::MetricsRegistry::Default().counter(obs::kCacheFillFail);
  const std::string names_page = "page " + std::to_string(rotten);
  // The whole object, and a range of the first extent that covers only
  // part of the rotten page.
  for (auto [offset, n] : {std::pair<uint64_t, uint64_t>{0, a_bytes.size()},
                           {ps + 10, 20}}) {
    auto got = (*db)->Read(*a, offset, n);
    ASSERT_FALSE(got.ok()) << "read [" << offset << ", +" << n << ")";
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
    EXPECT_NE(got.status().message().find(names_page), std::string::npos)
        << got.status().ToString();
  }

  // A healthy range of the same extent: the fill still covers the rotten
  // page and fails, the direct read of the range succeeds.
  uint64_t fails_before = fill_fail->value();
  auto healthy = (*db)->Read(*a, 10, ps - 20);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(std::equal(healthy->begin(), healthy->end(),
                         a_bytes.begin() + 10));
  EXPECT_GT(fill_fail->value(), fails_before) << "the fill never ran";
  EXPECT_FALSE(cache->Contains(*a, snap->vseq(), segments[0].page));

  // Other extents, of this object and of another, fill and read exactly.
  uint64_t offset = segments[0].count;
  for (size_t i = 1; i < segments.size(); ++i) {
    auto got = (*db)->Read(*a, offset, segments[i].count);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(std::equal(got->begin(), got->end(),
                           a_bytes.begin() + offset));
    EXPECT_TRUE(cache->Contains(*a, snap->vseq(), segments[i].page));
    offset += segments[i].count;
  }
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t hits_before = cache->GetStats().hits;
    auto got = (*db)->Read(*b, 0, b_bytes.size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, b_bytes);
    if (pass == 1) {
      EXPECT_GT(cache->GetStats().hits, hits_before) << "no fill to hit";
    }
  }
}

// ----- deadline-bounded partial reads skip the fill --------------------------

TEST(CacheTortureTest, BoundedPartialReadSkipsWholeExtentFill) {
  const uint64_t seed = TestSeed(0xCA54);
  auto db = Database::CreateInMemory(CachedOptions(/*mvcc=*/false));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Bytes content = PatternBytes(seed, 32 << 10);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok());

  // A partial read under an ambient deadline must not amplify its transfer
  // into a whole-extent fill: the deadline budget belongs to the caller.
  {
    ScopedOpContext ctx(OpContext{
        Deadline::After(std::chrono::seconds(30)), CancelToken()});
    auto got = (*db)->Read(*id, 100, 200);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(std::equal(got->begin(), got->end(), content.begin() + 100));
  }
  EXPECT_EQ((*db)->extent_cache()->GetStats().entries, 0u)
      << "bounded partial read filled the cache anyway";

  // The same partial read without a deadline is free to fill; a following
  // bounded read then hits the already-resident image.
  auto unbounded = (*db)->Read(*id, 100, 200);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_GT((*db)->extent_cache()->GetStats().entries, 0u);
  {
    ScopedOpContext ctx(OpContext{
        Deadline::After(std::chrono::seconds(30)), CancelToken()});
    uint64_t hits_before = (*db)->extent_cache()->GetStats().hits;
    auto got = (*db)->Read(*id, 300, 400);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), content.begin() + 300));
    EXPECT_GT((*db)->extent_cache()->GetStats().hits, hits_before);
  }
  ExpectClean(db->get());
}

// ----- read-ahead skips extents the cache already holds ----------------------

TEST(CacheTortureTest, PrefetchSkippedForCachedExtents) {
  const uint64_t seed = TestSeed(0xCA55);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  Stack s = Stack::Make(128);
  LobDescriptor d = s.lob->CreateEmpty();
  Bytes model;
  {
    LobAppender app(s.lob.get(), &d);
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 30; ++i) {
      Bytes chunk = PatternBytes(seed + i, 200 + rng() % 300);
      EOS_ASSERT_OK(app.Append(chunk));
      model.insert(model.end(), chunk.begin(), chunk.end());
    }
    EOS_ASSERT_OK(app.Finish());
  }

  ExtentCache cache(/*capacity_bytes=*/1u << 20);  // everything fits
  ScopedExtentCacheRef bind(&cache, /*object_id=*/1, /*vseq=*/1);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* issued = reg.counter(obs::kIoPrefetchIssued);
  obs::Counter* cancelled = reg.counter(obs::kIoPrefetchCancelled);

  // Cold pass through the random-access read path fills every extent.
  Bytes out;
  EOS_ASSERT_OK(s.lob->Read(d, 0, model.size(), &out));
  ASSERT_EQ(out, model);
  ASSERT_GT(cache.GetStats().entries, 1u) << "multi-extent fill expected";

  // Streaming pass with read-ahead armed: every PeekNextLeaf target is
  // already resident, so each would-be prefetch is cancelled before issue
  // (io.prefetch_cancelled) and no new prefetch I/O is submitted.
  uint64_t issued_before = issued->value();
  uint64_t cancelled_before = cancelled->value();
  IoExecutor exec(2);
  LobReader r(s.lob.get(), d);
  r.EnableReadAhead(&exec);
  Bytes streamed;
  while (!r.AtEnd()) {
    auto chunk = r.ReadNext(700);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    streamed.insert(streamed.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(streamed, model);
  EXPECT_EQ(issued->value(), issued_before)
      << "prefetch issued for a cache-resident extent";
  EXPECT_GT(cancelled->value(), cancelled_before)
      << "cache-resident successors were never skipped";
}

// ----- eviction and admission under pressure ---------------------------------

// The whole policy, driven deterministically on one thread: a hot set
// promoted into the protected segment survives a one-touch scan of four
// times the capacity, because frequency admission turns most of the scan
// away and what it lets in evicts only probation entries. Every admission
// decision matches WouldAdmit, the accounting is exact, and
// InvalidateObjectBelow drops exactly one object's entries below its floor.
TEST(CacheTortureTest, ProtectedHotSetSurvivesOneTouchScan) {
  // 32 KiB per shard, 80% of it protected: the 21 KiB hot set fits one
  // shard's protected segment even if every hot key hashes to that shard.
  constexpr size_t kCapacity = 256u << 10;
  constexpr size_t kImageBytes = 1024;
  constexpr int kHotTouches = 4;
  constexpr uint64_t kScanKeys = 4 * kCapacity / kImageBytes;
  ExtentCache cache(kCapacity);

  struct Key {
    uint64_t object;
    uint64_t vseq;
    PageId first;
  };
  auto image = [](const Key& k) {
    return PatternBytes(k.object * 1000003 + k.vseq * 1009 + k.first,
                        kImageBytes);
  };
  uint64_t lookups = 0;
  // Looks up [lo, hi) of `k` and reports whether it hit with exact bytes.
  auto hits_exactly = [&](const Key& k, uint64_t lo, uint64_t hi) {
    ++lookups;
    Bytes got(hi - lo);
    if (!cache.Lookup(k.object, k.vseq, k.first, lo, hi, got.data())) {
      return false;
    }
    Bytes want = image(k);
    return std::equal(got.begin(), got.end(), want.begin() + lo);
  };

  std::vector<Key> hot;
  // Object 6 neighbours object 7 and holds versions below the floor the
  // invalidation at the end passes for 7; none of its entries may go.
  for (uint64_t vseq = 1; vseq <= 3; ++vseq) hot.push_back(Key{6, vseq, 10});
  for (uint64_t object : {7u, 8u}) {
    for (uint64_t vseq = 1; vseq <= 3; ++vseq) {
      for (PageId first = 10; first < 13; ++first) {
        hot.push_back(Key{object, vseq, first});
      }
    }
  }
  for (const Key& k : hot) {
    cache.Insert(k.object, k.vseq, k.first, ImageOf(image(k)));
    ASSERT_TRUE(cache.Contains(k.object, k.vseq, k.first));
  }
  // The first hit promotes each entry; the rest build its frequency.
  for (int touch = 0; touch < kHotTouches; ++touch) {
    for (const Key& k : hot) {
      ASSERT_TRUE(hits_exactly(k, 0, kImageBytes));
    }
  }

  // One-touch scan of distinct keys: miss, then offer the image.
  uint64_t scan_admitted = 0;
  std::vector<Key> scan;
  for (uint64_t i = 0; i < kScanKeys; ++i) {
    Key k{1000 + i, 1, static_cast<PageId>(100 + i)};
    scan.push_back(k);
    ASSERT_FALSE(hits_exactly(k, 0, kImageBytes)) << "scan key " << i;
    bool predicted = cache.WouldAdmit(k.object, k.vseq, k.first, kImageBytes);
    cache.Insert(k.object, k.vseq, k.first, ImageOf(image(k)));
    bool admitted = cache.Contains(k.object, k.vseq, k.first);
    ASSERT_EQ(admitted, predicted) << "scan key " << i;
    scan_admitted += admitted ? 1 : 0;
    ASSERT_LE(cache.GetStats().resident_bytes, kCapacity) << "scan key " << i;
  }

  for (const Key& k : hot) {
    EXPECT_TRUE(hits_exactly(k, 0, kImageBytes))
        << "hot key " << k.object << "/" << k.vseq << "/" << k.first
        << " lost to the scan";
    EXPECT_TRUE(hits_exactly(k, 100, 612));
  }
  ExtentCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.misses, kScanKeys);
  EXPECT_EQ(stats.admitted, hot.size() + scan_admitted);
  EXPECT_EQ(stats.rejected, kScanKeys - scan_admitted);
  EXPECT_GT(stats.rejected, 0u) << "admission never turned the scan away";
  EXPECT_GT(stats.evicted, 0u) << "the scan never forced an eviction";
  EXPECT_EQ(stats.entries, hot.size() + scan_admitted - stats.evicted);
  EXPECT_LE(stats.resident_bytes, kCapacity);

  // Invalidation drops object 7's versions 1 and 2 and nothing else.
  std::vector<bool> scan_resident;
  for (const Key& k : scan) {
    scan_resident.push_back(cache.Contains(k.object, k.vseq, k.first));
  }
  cache.InvalidateObjectBelow(7, 3);
  for (const Key& k : hot) {
    bool dropped = k.object == 7 && k.vseq < 3;
    EXPECT_EQ(cache.Contains(k.object, k.vseq, k.first), !dropped)
        << "hot key " << k.object << "/" << k.vseq << "/" << k.first;
  }
  for (size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(cache.Contains(scan[i].object, scan[i].vseq, scan[i].first),
              scan_resident[i])
        << "scan key " << i;
  }
  ExtentCache::Stats after = cache.GetStats();
  EXPECT_EQ(after.invalidated, 6u);
  EXPECT_EQ(after.entries, stats.entries - 6);
  EXPECT_EQ(after.resident_bytes, stats.resident_bytes - 6 * kImageBytes);
}

// Direct ExtentCache torture: concurrent hits, inserts and invalidations
// against a capacity too small for the population; every successful lookup
// must return the exact bytes inserted under that key.
TEST(CacheTortureTest, ShardedCacheExactUnderConcurrentPressure) {
  const uint64_t seed = TestSeed(0xCA56);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  ExtentCache cache(/*capacity_bytes=*/96u << 10);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kObjects = 8;
  constexpr uint64_t kExtentsPerObject = 16;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(seed * 31 + t);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        uint64_t object = rng() % kObjects;
        uint64_t vseq = 1 + rng() % 3;
        PageId first = 1 + rng() % kExtentsPerObject;
        // Content is a pure function of the key, so any cross-key mixup
        // (sharding bug, LRU splice bug) is caught by a byte compare.
        size_t len = 512 + (first * 37 % 3) * 512;
        Bytes expect = PatternBytes(object * 1000 + vseq * 100 + first, len);
        uint32_t pick = static_cast<uint32_t>(rng() % 100);
        if (pick < 50) {
          Bytes got(len);
          if (cache.Lookup(object, vseq, first, 0, len, got.data()) &&
              got != expect) {
            failed.store(true);
          }
        } else if (pick < 90) {
          cache.Insert(object, vseq, first, ImageOf(expect));
        } else if (pick < 96) {
          cache.InvalidateObjectBelow(object, 1 + rng() % 4);
        } else {
          (void)cache.GetStats();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << "a lookup returned wrong bytes";
  ExtentCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.resident_bytes, cache.capacity_bytes());
  EXPECT_GT(stats.evicted + stats.rejected, 0u)
      << "population never exceeded capacity; pressure untested";

  // Every entry left is reachable through its object's index: dropping
  // each object empties the cache.
  for (uint64_t object = 0; object < kObjects; ++object) {
    cache.InvalidateObject(object);
  }
  ExtentCache::Stats empty = cache.GetStats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(empty.resident_bytes, 0u);
}

}  // namespace
}  // namespace eos
