// Snapshot MVCC torture (DESIGN.md §13). The robustness proof for
// multi-version concurrency: writer threads churn objects through the
// shared oracle driver while reader threads pin snapshots and verify them
// lock-free; chaos write faults and NoSpace injected at every allocation
// site of a copy-on-write publish must leave the pinned version intact;
// torn-write crashes at sampled commit and GC boundaries must recover to
// the newest durably published roots; deadline expiry mid-snapshot-read
// fails typed and leaves the pin reusable. Every path ends CheckIntegrity
// and LeakCheck clean.
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
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "tests/churn_driver.h"
#include "tests/model_oracle.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::ChurnDriver;
using testing_util::ChurnOptions;
using testing_util::ModelLob;
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

void ExpectClean(Database* db) {
  EOS_EXPECT_OK(db->CheckIntegrity());
  EOS_EXPECT_OK(db->Checkpoint());  // drain version GC fully
  LeakCheckReport report;
  EOS_EXPECT_OK(db->LeakCheck(&report));
  EXPECT_TRUE(report.leaked.empty());
  EXPECT_TRUE(report.doubly_referenced.empty());
}

// ----- lock-free readers under concurrent writers ----------------------------

TEST(MvccTortureTest, SnapshotIsolationUnderConcurrentChurn) {
  const uint64_t seed = TestSeed(0x51AB);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto db = Database::CreateInMemory(MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  LogManager log;
  (*db)->AttachLog(&log);

  ChurnOptions copt;
  copt.num_objects = 12;
  copt.initial_object_bytes = 8u << 10;
  copt.max_object_bytes = 32u << 10;
  copt.max_edit_bytes = 1024;
  ChurnDriver driver(db->get(), seed, copt);
  EOS_ASSERT_OK(driver.SetUp());

  constexpr int kWriters = 3;
  constexpr int kReaders = 4;
  constexpr int kStepsPerWriter = 120;
  constexpr int kReadsPerReader = 60;
  driver.PrepareThreads(kWriters + kReaders);

  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kWriters + kReaders);
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
        if (snap.size() != expected.size()) {
          fail(slot, "snapshot size " + std::to_string(snap.size()) +
                         ", oracle " + std::to_string(expected.size()));
          return;
        }
        // Lock-free verification: concurrent writers keep publishing newer
        // versions of this very object while we read the pinned one.
        auto got = dbp->SnapshotRead(snap, 0, expected.size() + 1);
        if (!got.ok()) {
          fail(slot, "snapshot read: " + got.status().ToString());
          return;
        }
        if (AsString(*got) != expected) {
          fail(slot, "snapshot v" + std::to_string(snap.vseq()) +
                         " of object " + std::to_string(snap.object_id()) +
                         " differs from its oracle");
          return;
        }
        // Immutability: the same pin re-read after more writer progress
        // must return the identical bytes.
        auto again = dbp->SnapshotRead(snap, 0, expected.size() + 1);
        if (!again.ok() || *again != *got) {
          fail(slot, "pinned snapshot changed under concurrent writers");
          return;
        }
        snap.Release();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::string all_errors;
  for (const std::string& e : errors) {
    if (!e.empty()) all_errors += e + "\n";
  }
  ASSERT_FALSE(failed.load()) << all_errors;

  EOS_ASSERT_OK(driver.VerifyAll());
  ExpectClean(db->get());
}

// ----- sharded version chains ------------------------------------------------

// Writers publish while snapshot readers pin and release objects whose
// chains share a version shard and objects on different shards, and a
// third party checkpoints (draining version GC) throughout. Each object
// has its own oracle mutex: a pin and its expected bytes are taken
// together, and the pinned read itself runs outside it, concurrently with
// newer publishes of that object.
TEST(MvccTortureTest, ShardedChainsUnderPublishPinAndCheckpoint) {
  const uint64_t seed = TestSeed(0x5A4D);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  DatabaseOptions opt = MvccOptions();
  opt.cache_bytes = 64u << 10;  // cache tags follow the chains too
  auto db = Database::CreateInMemory(opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();

  // Ids are handed out from 1, so one more object than a full round of
  // shards puts the first and the last created on the same shard.
  std::vector<uint64_t> all;
  std::vector<std::string> initial;
  for (size_t i = 0; i <= Database::kVersionShards + 1; ++i) {
    Bytes content = PatternBytes(seed + i, 1500);
    auto id = dbp->CreateObjectFrom(content);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    all.push_back(*id);
    initial.push_back(AsString(content));
  }
  // Two same-shard pairs, then two ids on shards of their own.
  const size_t k = Database::kVersionShards;
  const std::vector<size_t> picks = {0, k, 1, k + 1, 2, 3};
  std::vector<uint64_t> ids;
  for (size_t p : picks) ids.push_back(all[p]);
  ASSERT_EQ(Database::VersionShardOf(ids[0]), Database::VersionShardOf(ids[1]));
  ASSERT_EQ(Database::VersionShardOf(ids[2]), Database::VersionShardOf(ids[3]));
  std::set<size_t> distinct;
  for (size_t i : {0, 2, 4, 5}) {
    distinct.insert(Database::VersionShardOf(ids[i]));
  }
  ASSERT_EQ(distinct.size(), 4u);

  struct Oracle {
    std::mutex mu;
    std::string content;
  };
  std::vector<Oracle> oracle(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    oracle[i].content = initial[picks[i]];
  }

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kStepsPerWriter = 150;
  constexpr int kReadsPerReader = 200;
  std::atomic<bool> failed{false};
  std::atomic<int> writers_left{kWriters};
  std::mutex error_mu;
  std::string errors;
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> g(error_mu);
    errors += why + "\n";
    failed.store(true);
  };

  std::vector<std::thread> threads;
  // Writer w owns every other object, so each same-shard pair has one
  // object per writer.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(seed * 31 + static_cast<uint64_t>(w));
      for (int step = 0; step < kStepsPerWriter && !failed.load(); ++step) {
        size_t i = static_cast<size_t>(w) + 2 * (rng() % (ids.size() / 2));
        std::lock_guard<std::mutex> g(oracle[i].mu);
        std::string& want = oracle[i].content;
        Bytes data = PatternBytes(rng(), 1 + rng() % 600);
        std::string text = AsString(data);
        Status s;
        uint64_t off = rng() % (want.size() + 1);
        switch (rng() % 3) {
          case 0:
            s = dbp->Append(ids[i], data);
            if (s.ok()) want += text;
            break;
          case 1:
            text.resize(std::min<size_t>(text.size(), want.size() - off));
            if (text.empty()) break;
            s = dbp->Replace(ids[i], off, ByteView(text));
            if (s.ok()) want.replace(off, text.size(), text);
            break;
          default: {
            uint64_t n = std::min<uint64_t>(want.size() - off,
                                            want.size() > 3000 ? 900 : 200);
            if (n == 0) break;
            s = dbp->Delete(ids[i], off, n);
            if (s.ok()) want.erase(off, n);
            break;
          }
        }
        if (!s.ok()) fail("writer: " + s.ToString());
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(seed * 77 + static_cast<uint64_t>(r));
      for (int k = 0; k < kReadsPerReader && !failed.load(); ++k) {
        size_t i = rng() % ids.size();
        std::string expected;
        Snapshot snap;
        {
          std::lock_guard<std::mutex> g(oracle[i].mu);
          expected = oracle[i].content;
          if (rng() % 4 == 0) {
            // Current-version read: binds the directory's cache tag.
            auto got = dbp->Read(ids[i], 0, expected.size() + 1);
            if (!got.ok() || AsString(*got) != expected) {
              fail("Read of object " + std::to_string(ids[i]) +
                   " differs from its oracle");
            }
            continue;
          }
          auto pinned = dbp->BeginSnapshot(ids[i]);
          if (!pinned.ok()) {
            fail("pin: " + pinned.status().ToString());
            return;
          }
          snap = std::move(pinned).value();
        }
        uint64_t off = rng() % (expected.size() + 1);
        uint64_t n = rng() % 2000;
        auto got = dbp->SnapshotRead(snap, off, n);
        std::string want = expected.substr(off, n);
        if (!got.ok() || AsString(*got) != want) {
          fail("snapshot v" + std::to_string(snap.vseq()) + " of object " +
               std::to_string(ids[i]) + " differs from its oracle");
        }
        // Released here, on this thread, racing other releases and
        // publishes on the same shard.
      }
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0 && !failed.load()) {
      Status s = dbp->Checkpoint();
      if (!s.ok()) fail("checkpoint: " + s.ToString());
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << errors;

  for (size_t i = 0; i < ids.size(); ++i) {
    auto got = dbp->Read(ids[i], 0, oracle[i].content.size() + 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(AsString(*got), oracle[i].content) << "object " << ids[i];
  }
  ExpectClean(dbp);
}

// The invariant that lets a drain skip sweeping every chain: releasing the
// last pin collects the chain it unpinned, so the next drain frees the
// superseded version's retired extents even when nothing mutates that
// object again — first a Checkpoint(), then a mutation of an object on
// another shard.
TEST(MvccTortureTest, ReleasedPinIsFreedByTheNextDrainWithoutMutation) {
  const uint64_t seed = TestSeed(0xD2A1);
  auto db = Database::CreateInMemory(MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  const size_t kBytes = 6000;
  auto id = dbp->CreateObjectFrom(PatternBytes(seed, kBytes));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto other = dbp->CreateObjectFrom(PatternBytes(seed + 1, 2000));
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_NE(Database::VersionShardOf(*id), Database::VersionShardOf(*other));
  EOS_ASSERT_OK(dbp->Checkpoint());

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "drained by Checkpoint()"
                            : "drained by a mutation of another object");
    auto free_before = dbp->allocator()->TotalFreePages();
    ASSERT_TRUE(free_before.ok());
    auto v1 = dbp->BeginSnapshot(*id);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    // A whole-object copy-on-write replace: v2 takes exactly as many pages
    // as v1, and v1's are retired to it while the pin holds them.
    EOS_ASSERT_OK(dbp->Replace(*id, 0, PatternBytes(seed + 10 + round,
                                                    kBytes)));
    auto chain = dbp->ListVersions(*id);
    ASSERT_TRUE(chain.ok());
    ASSERT_EQ(chain->size(), 2u);
    EXPECT_GT(chain->front().retired_extents, 0u);
    auto free_pinned = dbp->allocator()->TotalFreePages();
    ASSERT_TRUE(free_pinned.ok());
    EXPECT_LT(*free_pinned, *free_before) << "the pin holds v1's pages";

    v1->Release();
    chain = dbp->ListVersions(*id);
    ASSERT_TRUE(chain.ok());
    EXPECT_EQ(chain->size(), 1u) << "the release collects its own chain";
    auto free_released = dbp->allocator()->TotalFreePages();
    ASSERT_TRUE(free_released.ok());
    EXPECT_EQ(*free_released, *free_pinned) << "freed only by a drain";

    if (round == 0) {
      EOS_ASSERT_OK(dbp->Checkpoint());
    } else {
      EOS_ASSERT_OK(dbp->Replace(*other, 0, PatternBytes(seed + 20, 2000)));
    }
    auto free_after = dbp->allocator()->TotalFreePages();
    ASSERT_TRUE(free_after.ok());
    EXPECT_EQ(*free_after, *free_before);
  }
  ExpectClean(dbp);
}

// A newer version shadows the index nodes of a pinned one while their
// frames are still dirty in the write-back pager. Freeing a page only parks
// it as retired storage, so its frame — the only copy of the node — must
// survive until the page is really freed, and the pinned version must read
// back exactly from the device once the pager is emptied.
TEST(MvccTortureTest, PinnedVersionSurvivesShadowingOfDirtyIndexNodes) {
  const uint64_t seed = TestSeed(0x5EAD);
  DatabaseOptions opt = MvccOptions();
  opt.lob.max_segment_pages = 2;  // many leaves and a tiny root: a deep tree
  opt.lob.max_root_bytes = 64;
  auto db = Database::CreateInMemory(opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  Bytes content = PatternBytes(seed, 24u << 10);
  auto id = dbp->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto stats = dbp->ObjectStats(*id);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->index_pages, 0u) << "the object needs index nodes";
  auto v1 = dbp->BeginSnapshot(*id);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  EOS_ASSERT_OK(dbp->Append(*id, PatternBytes(seed + 1, 700)));
  EOS_ASSERT_OK(dbp->Insert(*id, 100, PatternBytes(seed + 2, 300)));
  EOS_ASSERT_OK(dbp->pager()->EvictAll());  // next reads go to the device
  auto got = dbp->SnapshotRead(*v1, 0, content.size() + 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, content);
  v1->Release();
  ExpectClean(dbp);
}

// ----- failed mutations leave the pinned version intact ----------------------

TEST(MvccTortureTest, SnapshotSurvivesChaosWriteFaults) {
  const uint64_t seed = TestSeed(0xFA11);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto chaos_owned = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(512, 1), seed);
  ChaosPageDevice* chaos = chaos_owned.get();
  auto db = Database::CreateOnDevice(std::move(chaos_owned), MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Bytes content = PatternBytes(seed, 20000);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto snap = (*db)->BeginSnapshot(*id);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Every device write now fails; the mutation must unwind completely.
  chaos->FailWritesAfter(0, /*permanent=*/true);
  Status s = (*db)->Append(*id, PatternBytes(seed + 1, 4000));
  EXPECT_FALSE(s.ok()) << "append succeeded with a dead device";
  Status s2 = (*db)->Replace(*id, 100, PatternBytes(seed + 2, 3000));
  EXPECT_FALSE(s2.ok()) << "replace succeeded with a dead device";
  chaos->Heal();

  // The pinned version is untouched, and so is the current root.
  auto pinned = (*db)->SnapshotRead(*snap, 0, content.size() + 1);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(*pinned, content);
  auto current = (*db)->Read(*id, 0, content.size() + 1);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(*current, content);

  // And the object still mutates normally after healing.
  Bytes edit = PatternBytes(seed + 3, 2000);
  EOS_ASSERT_OK((*db)->Append(*id, edit));
  auto after = (*db)->SnapshotRead(*snap, 0, content.size() + edit.size());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, content) << "pin observed the post-fault append";
  snap->Release();
  ExpectClean(db->get());
}

// ----- NoSpace at every allocation site of a CoW publish ---------------------

// Enumerates k over every Allocate call a copy-on-write publish makes
// (append growth, insert node splits, CoW leaf replace) and injects typed
// NoSpace at exactly the k-th site. Whatever the outcome, the reservation
// unwind must leave the pinned old version byte-identical, the current
// root readable, and no page leaked.
TEST(MvccTortureTest, NoSpaceAtEveryCowAllocationSite) {
  const uint64_t seed = TestSeed(0x0503);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  const Bytes initial = PatternBytes(seed, 8 << 10);

  struct Op {
    const char* name;
    std::function<Status(Database*, uint64_t)> run;
    Bytes after;  // the op's intended post-state
  };
  const Bytes edit = PatternBytes(seed + 1, 4 << 10);
  auto splice = [&](uint64_t off, bool overwrite) {
    Bytes b(initial.begin(), initial.begin() + off);
    b.insert(b.end(), edit.begin(), edit.end());
    uint64_t resume = overwrite ? off + edit.size() : off;
    b.insert(b.end(), initial.begin() + resume, initial.end());
    return b;
  };
  Bytes appended = initial;
  appended.insert(appended.end(), edit.begin(), edit.end());
  const std::vector<Op> ops = {
      {"append", [&](Database* d, uint64_t id) { return d->Append(id, edit); },
       appended},
      {"insert",
       [&](Database* d, uint64_t id) { return d->Insert(id, 777, edit); },
       splice(777, false)},
      {"replace",
       [&](Database* d, uint64_t id) { return d->Replace(id, 512, edit); },
       splice(512, true)},
  };

  auto fresh = [&](std::unique_ptr<Database>* out, uint64_t* id) {
    auto db = Database::CreateInMemory(MvccOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto oid = (*db)->CreateObjectFrom(initial);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    *id = *oid;
    *out = std::move(*db);
  };

  for (const Op& op : ops) {
    // Probe run: count the op's allocation sites on a deterministic stack.
    std::unique_ptr<Database> probe;
    uint64_t probe_id = 0;
    fresh(&probe, &probe_id);
    ASSERT_NE(probe, nullptr);
    uint64_t before = probe->allocator()->alloc_calls();
    EOS_ASSERT_OK(op.run(probe.get(), probe_id));
    const uint64_t sites = probe->allocator()->alloc_calls() - before;
    ASSERT_GT(sites, 0u) << op.name << " made no allocations";

    for (uint64_t k = 0; k < sites; ++k) {
      SCOPED_TRACE(std::string(op.name) + " fault at allocation site " +
                   std::to_string(k) + " of " + std::to_string(sites));
      std::unique_ptr<Database> db;
      uint64_t id = 0;
      fresh(&db, &id);
      ASSERT_NE(db, nullptr);
      auto snap = db->BeginSnapshot(id);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();

      db->allocator()->set_alloc_fault_countdown(static_cast<int64_t>(k));
      Status s = op.run(db.get(), id);
      db->allocator()->set_alloc_fault_countdown(-1);
      if (!s.ok()) {
        EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
      }

      // The pinned version is intact no matter where the fault landed.
      auto pinned = db->SnapshotRead(*snap, 0, initial.size() + 1);
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      EXPECT_EQ(*pinned, initial);
      // The current root is readable and byte-exact at one of the two legal
      // states: pre-op (the reservation unwound the lob mutation) or
      // post-op (the fault hit the maintenance directory save, which runs
      // under the emergency reserve and completes on the next save — the
      // published version is current even though the op reported NoSpace).
      auto size = db->Size(id);
      ASSERT_TRUE(size.ok()) << size.status().ToString();
      auto current = db->Read(id, 0, *size);
      ASSERT_TRUE(current.ok()) << current.status().ToString();
      if (!s.ok()) {
        EXPECT_TRUE(*current == initial || *current == op.after)
            << "failed op left the object at neither its pre-op nor its "
               "intended post-op state";
      } else {
        EXPECT_EQ(*current, op.after);
      }
      snap->Release();
      ExpectClean(db.get());
    }
  }
}

// ----- torn-write crashes at commit and GC boundaries ------------------------

// One scripted mvcc + crash_safe workload: every mutation group-commits its
// own marker, a snapshot stays pinned across the mutation phase (keeping
// version chains populated), and periodic checkpoints drain version GC.
// The device loses power after every sampled k-th write — some torn — and
// recovery from the cloned image plus the WAL must land on exactly the
// committed oracle state with nothing leaked.
TEST(MvccTortureTest, TornWriteCrashAtCommitAndGcBoundaries) {
  const uint64_t seed = TestSeed(0xC4A5);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  constexpr int kObjects = 3;
  constexpr int kOps = 24;

  DatabaseOptions opt = MvccOptions();
  opt.page_size = 256;
  opt.pager_frames = 16;
  opt.crash_safe = true;

  struct Harness {
    std::unique_ptr<LogManager> log;
    std::unique_ptr<Database> db;
    ChaosPageDevice* chaos = nullptr;
    std::vector<uint64_t> ids;
  };
  auto make = [&](std::vector<std::string>* oracle) {
    Harness h;
    h.log = std::make_unique<LogManager>();
    auto chaos = std::make_unique<ChaosPageDevice>(
        std::make_unique<MemPageDevice>(opt.page_size, 1), seed);
    h.chaos = chaos.get();
    auto db = Database::CreateOnDevice(std::move(chaos), opt);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return h;
    h.db = std::move(db).value();
    h.db->AttachLog(h.log.get());
    oracle->clear();
    for (int i = 0; i < kObjects; ++i) {
      Bytes init = PatternBytes(seed * 10 + i, 1500 + 700 * i);
      auto id = h.db->CreateObjectFrom(init);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      if (!id.ok()) return h;
      h.ids.push_back(*id);
      oracle->push_back(AsString(init));
    }
    EXPECT_TRUE(h.db->Checkpoint().ok());
    return h;
  };

  // Deterministic op script (coordinates resolved against the live oracle
  // at run time, so it replays identically on every harness).
  std::mt19937_64 script_rng(seed ^ 0x5eed);
  struct Scripted {
    int target;
    int kind;  // 0 append, 1 replace, 2 delete
    uint64_t a, b;
  };
  std::vector<Scripted> script;
  for (int i = 0; i < kOps; ++i) {
    script.push_back(Scripted{static_cast<int>(script_rng() % kObjects),
                              static_cast<int>(script_rng() % 3),
                              script_rng(), script_rng()});
  }

  // Runs the script until the device dies; `committed` tracks the oracle
  // after each successful (and therefore marker-committed) op.
  auto run = [&](Harness* h, std::vector<std::string>* committed) {
    Snapshot pin;  // held across the whole phase; released at scope exit
    auto p = h->db->BeginSnapshot(h->ids[0]);
    if (p.ok()) pin = std::move(*p);
    for (int i = 0; i < kOps; ++i) {
      if (h->chaos->crashed()) break;
      const Scripted& sc = script[i];
      uint64_t id = h->ids[sc.target];
      std::string& mirror = (*committed)[sc.target];
      Status st;
      std::string next = mirror;
      if (sc.kind == 0 || mirror.empty()) {
        Bytes data = PatternBytes(seed * 100 + i, 300 + sc.a % 900);
        st = h->db->Append(id, data);
        next += AsString(data);
      } else if (sc.kind == 1) {
        uint64_t off = sc.a % mirror.size();
        uint64_t n = std::min<uint64_t>(1 + sc.b % 800, mirror.size() - off);
        Bytes data = PatternBytes(seed * 100 + i, n);
        st = h->db->Replace(id, off, data);
        next.replace(off, n, AsString(data));
      } else {
        uint64_t off = sc.a % mirror.size();
        uint64_t n = std::min<uint64_t>(1 + sc.b % 600, mirror.size() - off);
        st = h->db->Delete(id, off, n);
        next.erase(off, n);
      }
      if (!st.ok()) {
        EXPECT_TRUE(h->chaos->crashed())
            << "op " << i << " failed without a crash: " << st.ToString();
        break;
      }
      mirror = std::move(next);
      // GC boundary: superseded unpinned versions reclaim here; the crash
      // sweep lands inside these frees too.
      if (i % 6 == 5) (void)h->db->Checkpoint();
    }
  };

  // Fault-free reference run: committed oracle + the write-call count W.
  std::vector<std::string> oracle;
  Harness ref = make(&oracle);
  ASSERT_NE(ref.db, nullptr);
  std::vector<std::string> committed_ref = oracle;
  uint64_t writes_before = ref.chaos->stats().write_calls;
  run(&ref, &committed_ref);
  const uint64_t W = ref.chaos->stats().write_calls - writes_before;
  ASSERT_FALSE(ref.chaos->crashed());
  for (int i = 0; i < kObjects; ++i) {
    auto got = ref.db->Read(ref.ids[i], 0, committed_ref[i].size() + 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(AsString(*got), committed_ref[i]);
  }
  ExpectClean(ref.db.get());
  ASSERT_GE(W, 60u) << "workload too small to sample crash points";

  const uint64_t stride = std::max<uint64_t>(1, W / 48);
  int points = 0;
  for (uint64_t k = 0; k < W; k += stride) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(W) + " writes");
    std::vector<std::string> base;
    Harness h = make(&base);
    ASSERT_NE(h.db, nullptr);
    h.chaos->CrashAfterWrites(k, /*tear_pages=*/(points % 3 == 0) ? 1 : 0);
    std::vector<std::string> committed = base;
    run(&h, &committed);
    ASSERT_TRUE(h.chaos->crashed()) << "crash point never reached";
    auto image = h.chaos->CloneImage();
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    std::vector<LogRecord> wal = h.log->records();
    h.db.reset();  // dying flush against the dead device; harmless

    auto db2 = Database::OpenOnDevice(std::move(*image), opt);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    EOS_ASSERT_OK((*db2)->Recover(wal));
    EOS_ASSERT_OK((*db2)->CheckIntegrity());
    for (int i = 0; i < kObjects; ++i) {
      auto got = (*db2)->Read(h.ids[i], 0, committed[i].size() + 1);
      ASSERT_TRUE(got.ok())
          << "object " << h.ids[i] << ": " << got.status().ToString();
      ASSERT_EQ(AsString(*got), committed[i])
          << "object " << h.ids[i] << " not at its committed state";
    }
    // Post-recovery snapshots read the recovered (durably committed) roots.
    auto snap = (*db2)->BeginSnapshot(h.ids[0]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    auto via_snap = (*db2)->SnapshotRead(*snap, 0, committed[0].size() + 1);
    ASSERT_TRUE(via_snap.ok());
    EXPECT_EQ(AsString(*via_snap), committed[0]);
    snap->Release();
    ExpectClean(db2->get());
    ++points;
  }
  ASSERT_GE(points, 40) << "W=" << W << " stride=" << stride;
}

// ----- deadline expiry mid-snapshot-read -------------------------------------

TEST(MvccTortureTest, DeadlineExpiryMidSnapshotRead) {
  const uint64_t seed = TestSeed(0xDEAD);
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (re-run with EOS_TEST_SEED=<seed>)");
  auto chaos_owned = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(512, 1), seed);
  ChaosPageDevice* chaos = chaos_owned.get();
  auto db = Database::CreateOnDevice(std::move(chaos_owned), MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Bytes content = PatternBytes(seed, 64 << 10);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto snap = (*db)->BeginSnapshot(*id);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Already-expired ambient deadline: refused at the read boundary.
  {
    ScopedOpContext ctx(
        OpContext{Deadline::After(std::chrono::nanoseconds(0)), CancelToken()});
    auto got = (*db)->SnapshotRead(*snap, 0, content.size());
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsDeadlineExceeded())
        << got.status().ToString();
  }
  // Injected device latency makes a tight deadline expire mid-read.
  {
    chaos->InjectLatency(/*read_us=*/2000, /*write_us=*/0, /*jitter_us=*/0);
    ScopedOpContext ctx(OpContext{
        Deadline::After(std::chrono::milliseconds(3)), CancelToken()});
    auto got = (*db)->SnapshotRead(*snap, 0, content.size());
    chaos->InjectLatency(0, 0, 0);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsDeadlineExceeded())
          << got.status().ToString();
    }
  }
  // The pin survives the expiry and still reads exact bytes.
  auto got = (*db)->SnapshotRead(*snap, 0, content.size() + 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, content);
  snap->Release();
  ExpectClean(db->get());
}

// ----- version-chain introspection -------------------------------------------

TEST(MvccTortureTest, VersionChainIntrospection) {
  const uint64_t seed = TestSeed(0x11F0);
  auto db = Database::CreateInMemory(MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Bytes content = PatternBytes(seed, 5000);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Unpinned: superseded versions GC eagerly, one current version remains.
  auto chain = (*db)->ListVersions(*id);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_TRUE(chain->back().current);
  EXPECT_EQ(chain->back().pins, 0u);
  EXPECT_EQ(chain->back().size, content.size());
  EXPECT_NE(chain->back().root_page, kInvalidPage);

  // A pin keeps its version in the chain across later publishes. GC is
  // FIFO from the front, so the unpinned middle version also survives
  // behind the pinned front.
  auto snap = (*db)->BeginSnapshot(*id);
  ASSERT_TRUE(snap.ok());
  EOS_ASSERT_OK((*db)->Append(*id, PatternBytes(seed + 1, 3000)));
  EOS_ASSERT_OK((*db)->Delete(*id, 0, 1000));
  chain = (*db)->ListVersions(*id);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 3u) << "pinned version GC'd or extra survivors";
  EXPECT_EQ(chain->front().vseq, snap->vseq());
  EXPECT_EQ(chain->front().pins, 1u);
  EXPECT_FALSE(chain->front().current);
  EXPECT_EQ(chain->front().size, content.size());
  EXPECT_EQ((*chain)[1].pins, 0u);
  EXPECT_FALSE((*chain)[1].current);
  EXPECT_EQ((*chain)[1].size, content.size() + 3000);
  EXPECT_TRUE(chain->back().current);
  EXPECT_GT((*chain)[1].vseq, chain->front().vseq);
  EXPECT_GT(chain->back().vseq, (*chain)[1].vseq);
  EXPECT_EQ(chain->back().size, content.size() + 3000 - 1000);

  // Release: the superseded version collapses.
  snap->Release();
  chain = (*db)->ListVersions(*id);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_TRUE(chain->back().current);

  // Drop with no pins: the whole chain goes.
  EOS_ASSERT_OK((*db)->DropObject(*id));
  EXPECT_TRUE((*db)->ListVersions(*id).status().IsNotFound());
  ExpectClean(db->get());
}

// A dropped object stays readable through an open pin; the drop marker
// only reclaims once the pin releases.
TEST(MvccTortureTest, DropUnderOpenSnapshot) {
  const uint64_t seed = TestSeed(0xD40B);
  auto db = Database::CreateInMemory(MvccOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Bytes content = PatternBytes(seed, 9000);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok());
  auto snap = (*db)->BeginSnapshot(*id);
  ASSERT_TRUE(snap.ok());

  EOS_ASSERT_OK((*db)->DropObject(*id));
  EXPECT_TRUE((*db)->Read(*id, 0, 1).status().IsNotFound());
  EXPECT_TRUE((*db)->BeginSnapshot(*id).status().IsNotFound());
  auto got = (*db)->SnapshotRead(*snap, 0, content.size() + 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, content);

  snap->Release();
  EXPECT_TRUE((*db)->ListVersions(*id).status().IsNotFound());
  ExpectClean(db->get());
}

// Without options.mvcc, snapshots are refused but ListVersions still
// reports the directory root as the single current version (eos_inspect
// works on any volume).
TEST(MvccTortureTest, NonMvccSurface) {
  DatabaseOptions opt;
  opt.page_size = 512;
  auto db = Database::CreateInMemory(opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto id = (*db)->CreateObjectFrom(PatternBytes(1, 4000));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE((*db)->BeginSnapshot(*id).status().IsInvalidArgument());
  auto chain = (*db)->ListVersions(*id);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_TRUE(chain->back().current);
  EXPECT_EQ(chain->back().size, 4000u);
}

}  // namespace
}  // namespace eos
