// Pinned reads under mvcc (DESIGN.md §13). Read(), Size() and
// ObjectStats() pin the current version for the length of the call and take
// no directory latch, so:
//   * a reader is never held up by a slow writer of another object, even
//     while that writer holds the directory latch across device I/O;
//   * a Read() racing writers of its own object returns exactly one
//     committed version, never a blend of two or bytes from reclaimed
//     storage;
//   * RepairObject() waits out the reads in flight instead of refusing
//     with Busy, which it keeps for open user snapshots;
//   * a read pin is not a snapshot: txn.snapshots_open does not move.
//
// Failures print the seed; re-run with EOS_TEST_SEED=<n>.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eos/database.h"
#include "io/chaos_device.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tests/model_oracle.h"
#include "tests/test_util.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::PatternBytes;
using testing_util::TestSeed;

DatabaseOptions MvccOptions() {
  DatabaseOptions opt;
  opt.page_size = 512;
  opt.pager_frames = 64;
  opt.mvcc = true;
  return opt;
}

std::string AsString(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

using Clock = std::chrono::steady_clock;

// A writer of object B holds the directory latch exclusive across device
// writes slowed to 300 ms each. A Read() of object A, and a snapshot of A
// begun and read meanwhile, must not wait for it. A has depth 0, so its
// read touches neither the pager nor anything else the writer holds.
TEST(PinnedReadTest, ReaderIsNotHeldUpBySlowWriter) {
  const uint64_t seed = TestSeed(0x5104);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto chaos_owned = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(512, 1), seed);
  ChaosPageDevice* chaos = chaos_owned.get();
  auto db = Database::CreateOnDevice(std::move(chaos_owned), MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  const Bytes a_content = PatternBytes(seed, 3000);
  auto a = dbp->CreateObjectFrom(a_content);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = dbp->CreateObjectFrom(PatternBytes(seed + 1, 3000));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto stats = dbp->ObjectStats(*a);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->depth, 0u);

  constexpr auto kWriteLatency = std::chrono::milliseconds(300);
  chaos->InjectLatency(/*read_us=*/0, /*write_us=*/300000, /*jitter_us=*/0);
  const uint64_t writes_before = chaos->stats().write_calls;
  Status appended;
  std::thread writer(
      [&] { appended = dbp->Append(*b, PatternBytes(seed + 2, 700)); });
  // A mutation writes the device only while it holds the directory latch;
  // its first write has started and sleeps from here.
  while (chaos->stats().write_calls == writes_before) {
    std::this_thread::yield();
  }
  Clock::time_point start = Clock::now();
  auto got = dbp->Read(*a, 0, a_content.size() + 1);
  const Clock::duration read_time = Clock::now() - start;
  start = Clock::now();
  auto snap = dbp->BeginSnapshot(*a);
  StatusOr<Bytes> via_snap = Status::NotFound("no snapshot");
  if (snap.ok()) via_snap = dbp->SnapshotRead(*snap, 0, a_content.size() + 1);
  const Clock::duration snap_time = Clock::now() - start;
  writer.join();
  chaos->InjectLatency(0, 0, 0);
  EOS_ASSERT_OK(appended);

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, a_content);
  ASSERT_TRUE(via_snap.ok()) << via_snap.status().ToString();
  EXPECT_EQ(*via_snap, a_content);
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  EXPECT_LT(read_time, kWriteLatency / 3)
      << "Read() waited " << duration_cast<milliseconds>(read_time).count()
      << " ms behind the writer";
  EXPECT_LT(snap_time, kWriteLatency / 3)
      << "BeginSnapshot()+SnapshotRead() waited "
      << duration_cast<milliseconds>(snap_time).count()
      << " ms behind the writer";
}

// Writers publish version after version of one object for as long as
// readers call Read() on it without any lock of their own. Every version
// is recorded before it is written, so each read is checked, after the
// fact, against the set of versions that could have been committed: it
// must equal one of them exactly. The extent cache is on, so the cache tag
// a read binds must belong to the root it reads.
TEST(PinnedReadTest, ReadRacingWritersReturnsOneCommittedVersion) {
  const uint64_t seed = TestSeed(0x0AEC);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  DatabaseOptions opt = MvccOptions();
  opt.cache_bytes = 64u << 10;
  auto db = Database::CreateInMemory(opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  std::string current = AsString(PatternBytes(seed, 6000));
  auto id = dbp->CreateObjectFrom(ByteView(current));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  std::mutex write_mu;     // one mutation at a time, so `current` is exact
  std::mutex versions_mu;  // guards `versions`
  std::set<std::string> versions = {current};
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 300;
  std::atomic<int> readers_left{kReaders};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::string errors;
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> g(error_mu);
    errors += why + "\n";
    failed.store(true);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(seed * 31 + static_cast<uint64_t>(w));
      while (readers_left.load() > 0 && !failed.load()) {
        std::lock_guard<std::mutex> g(write_mu);
        const Bytes data = PatternBytes(rng(), 1 + rng() % 900);
        const std::string text = AsString(data);
        const uint64_t off = rng() % (current.size() + 1);
        const uint64_t tail = current.size() - off;
        std::string next = current;
        std::function<Status()> op;
        switch (rng() % 4) {
          case 0:
            next += text;
            op = [&] { return dbp->Append(*id, data); };
            break;
          case 1:
            next.insert(off, text);
            op = [&] { return dbp->Insert(*id, off, data); };
            break;
          case 2: {
            const uint64_t n = std::min<uint64_t>(data.size(), tail);
            if (n == 0) continue;
            next.replace(off, n, text, 0, n);
            op = [&, n] {
              return dbp->Replace(*id, off, ByteView(data.data(), n));
            };
            break;
          }
          default: {
            const uint64_t n = std::min<uint64_t>(
                tail, current.size() > 3000 ? current.size() / 3 : 100);
            if (n == 0) continue;
            next.erase(off, n);
            op = [&, n] { return dbp->Delete(*id, off, n); };
            break;
          }
        }
        {
          std::lock_guard<std::mutex> vg(versions_mu);
          versions.insert(next);
        }
        Status s = op();
        if (!s.ok()) {
          fail("writer: " + s.ToString());
          break;
        }
        current = std::move(next);
      }
    });
  }
  // Each reader keeps reading until it has done its reads and the writers
  // have published enough versions to race against; the cap bounds a run
  // whose writers never get going.
  constexpr size_t kMinVersions = 10;
  const Clock::time_point cap = Clock::now() + std::chrono::seconds(60);
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int k = 1; !failed.load(); ++k) {
        auto got = dbp->Read(*id, 0, 1u << 20);
        if (!got.ok()) {
          fail("read: " + got.status().ToString());
          return;
        }
        bool known = false;
        size_t published = 0;
        {
          std::lock_guard<std::mutex> vg(versions_mu);
          known = versions.count(AsString(*got)) > 0;
          published = versions.size();
        }
        if (!known) {
          fail("a read of " + std::to_string(got->size()) +
               " bytes matches no version written");
          return;
        }
        reads.fetch_add(1);
        if (k >= kReadsPerReader && published > kMinVersions) break;
        if (Clock::now() > cap) {
          fail("the writers barely ran: " + std::to_string(published) +
               " versions after " + std::to_string(k) + " reads");
          return;
        }
      }
      readers_left.fetch_sub(1);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << errors;
  EXPECT_GE(reads.load(), uint64_t{kReaders} * kReadsPerReader);
  EXPECT_GT(versions.size(), kMinVersions) << "the writers barely ran";
  auto got = dbp->Read(*id, 0, current.size() + 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(AsString(*got), current);
  EOS_EXPECT_OK(dbp->CheckIntegrity());
  EOS_EXPECT_OK(dbp->Checkpoint());
  LeakCheckReport report;
  EOS_EXPECT_OK(dbp->LeakCheck(&report));
}

// Reads pin versions only for the length of one call, so a repair waits
// for them to finish instead of refusing with Busy; reads that arrive
// during the rebuild wait for it and read the repaired object.
TEST(PinnedReadTest, RepairWaitsOutReadsInsteadOfReturningBusy) {
  const uint64_t seed = TestSeed(0x4EAD);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto db = Database::CreateInMemory(MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  std::vector<uint64_t> ids;
  std::vector<Bytes> contents;
  for (int i = 0; i < 4; ++i) {
    contents.push_back(PatternBytes(seed + i, 2000 + 1500 * i));
    auto id = dbp->CreateObjectFrom(contents.back());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads{0};
  std::mutex error_mu;
  std::string errors;
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (size_t k = static_cast<size_t>(r); !stop.load(); ++k) {
        const size_t i = k % ids.size();
        auto size = dbp->Size(ids[i]);
        auto got = dbp->Read(ids[i], 0, contents[i].size() + 1);
        if (!size.ok() || !got.ok() || *size != contents[i].size() ||
            *got != contents[i]) {
          std::string why = !got.ok()    ? got.status().ToString()
                            : !size.ok() ? size.status().ToString()
                                         : "wrong size or bytes";
          std::lock_guard<std::mutex> g(error_mu);
          errors += "object " + std::to_string(ids[i]) + ": " + why + "\n";
          failed.store(true);
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 24 && !failed.load(); ++round) {
    // Let the readers get going again between repairs.
    const uint64_t seen = reads.load();
    while (reads.load() < seen + 8 && !failed.load()) {
      std::this_thread::yield();
    }
    Status s = dbp->RepairObject(ids[round % ids.size()]);
    EXPECT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load()) << errors;

  // An open user snapshot still makes the repair refuse.
  auto snap = dbp->BeginSnapshot(ids[0]);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(dbp->RepairObject(ids[1]).IsBusy());
  snap->Release();
  EOS_EXPECT_OK(dbp->RepairObject(ids[1]));
  EOS_EXPECT_OK(dbp->CheckIntegrity());
  LeakCheckReport report;
  EOS_EXPECT_OK(dbp->LeakCheck(&report));
}

// Only BeginSnapshot() and Snapshot::Release() move txn.snapshots_open;
// the read pins of Read(), Size() and ObjectStats() are not snapshots.
TEST(PinnedReadTest, ReadLeavesTheSnapshotGaugeUnchanged) {
  const uint64_t seed = TestSeed(0x6A06);
  auto db = Database::CreateInMemory(MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  const Bytes content = PatternBytes(seed, 5000);
  auto id = dbp->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  obs::Gauge* open =
      obs::MetricsRegistry::Default().gauge(obs::kTxnSnapshotsOpen);
  const int64_t before = open->value();

  auto got = dbp->Read(*id, 0, content.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, content);
  EXPECT_EQ(open->value(), before);
  ASSERT_TRUE(dbp->Size(*id).ok());
  ASSERT_TRUE(dbp->ObjectStats(*id).ok());
  EXPECT_TRUE(dbp->Read(*id + 100, 0, 1).status().IsNotFound());
  EXPECT_EQ(open->value(), before);

  // The gauge freezes when observability is off (EOS_OBS=0).
  const int64_t pinned = obs::Enabled() ? before + 1 : before;
  auto snap = dbp->BeginSnapshot(*id);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(open->value(), pinned);
  ASSERT_TRUE(dbp->Read(*id, 0, 10).ok());
  EXPECT_EQ(open->value(), pinned);
  snap->Release();
  EXPECT_EQ(open->value(), before);

  // No read pin outlives its call.
  auto chain = dbp->ListVersions(*id);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_EQ(chain->back().pins, 0u);
}

}  // namespace
}  // namespace eos
