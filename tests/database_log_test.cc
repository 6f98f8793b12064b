// Database + write-ahead log integration: per-object log records, crash
// simulation (stale roots redone from the log), and volume-level recovery.

#include <gtest/gtest.h>

#include <cstdio>

#include "eos/database.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"
#include "txn/recovery.h"

namespace eos {
namespace {

using testing_util::PatternBytes;

DatabaseOptions Opts() {
  DatabaseOptions o;
  o.page_size = 512;
  o.space_pages = 1000;
  return o;
}

// Every record a mutation emits, its commit marker included, is tagged
// with that mutation's object — also when mutations of two objects
// interleave. Under mvcc each mutation adds exactly one record plus its
// commit marker; without mvcc just the record.
TEST(DatabaseLogTest, RecordsCarryObjectIds) {
  for (bool mvcc : {false, true}) {
    SCOPED_TRACE(mvcc ? "mvcc" : "no mvcc");
    DatabaseOptions o = Opts();
    o.mvcc = mvcc;
    auto db = Database::CreateInMemory(o);
    ASSERT_TRUE(db.ok());
    LogManager log;
    (*db)->AttachLog(&log);
    const size_t per_op = mvcc ? 2 : 1;
    size_t seen = 0;
    auto expect_tagged = [&](uint64_t id, const char* op) {
      SCOPED_TRACE(op);
      EXPECT_EQ(log.records().size() - seen, per_op);
      for (; seen < log.records().size(); ++seen) {
        EXPECT_EQ(log.records()[seen].object_id, id) << "record " << seen;
      }
    };
    auto a = (*db)->CreateObjectFrom(PatternBytes(1, 100));
    ASSERT_TRUE(a.ok());
    expect_tagged(*a, "CreateObjectFrom a");
    auto b = (*db)->CreateObjectFrom(PatternBytes(2, 200));
    ASSERT_TRUE(b.ok());
    expect_tagged(*b, "CreateObjectFrom b");
    EOS_ASSERT_OK((*db)->Append(*a, PatternBytes(3, 100)));
    expect_tagged(*a, "Append a");
    EOS_ASSERT_OK((*db)->Insert(*b, 50, PatternBytes(4, 10)));
    expect_tagged(*b, "Insert b");
    EOS_ASSERT_OK((*db)->Delete(*a, 10, 20));
    expect_tagged(*a, "Delete a");
    EOS_ASSERT_OK((*db)->Replace(*b, 0, PatternBytes(5, 30)));
    expect_tagged(*b, "Replace b");
    EOS_ASSERT_OK((*db)->Insert(*a, 5, PatternBytes(6, 40)));
    expect_tagged(*a, "Insert a");
    EOS_ASSERT_OK((*db)->Delete(*b, 100, 50));
    expect_tagged(*b, "Delete b");
    EOS_ASSERT_OK((*db)->Replace(*a, 0, PatternBytes(7, 60)));
    expect_tagged(*a, "Replace a");
    EOS_ASSERT_OK((*db)->Append(*b, PatternBytes(8, 70)));
    expect_tagged(*b, "Append b");
    EOS_ASSERT_OK((*db)->DropObject(*b));
    expect_tagged(*b, "DropObject b");
    EOS_ASSERT_OK((*db)->DropObject(*a));
    expect_tagged(*a, "DropObject a");
  }
}

TEST(DatabaseLogTest, RedoAfterSimulatedCrash) {
  // Scenario: the volume is flushed at a checkpoint; later updates hit the
  // log but their roots never reach disk (crash). On reopen, the stale
  // roots are brought forward by replaying the log tail per object.
  std::string vol = ::testing::TempDir() + "/eos_dblog_test.vol";
  std::string wal = ::testing::TempDir() + "/eos_dblog_test.wal";
  Bytes base_a = PatternBytes(4, 3000);
  Bytes base_b = PatternBytes(5, 1500);
  uint64_t ida = 0, idb = 0;
  Bytes want_a, want_b;
  {
    auto db = Database::Create(vol, Opts());
    ASSERT_TRUE(db.ok());
    auto log = LogManager::CreateFileBacked(wal);
    ASSERT_TRUE(log.ok());
    (*db)->AttachLog(log->get());
    auto ra = (*db)->CreateObjectFrom(base_a);
    auto rb = (*db)->CreateObjectFrom(base_b);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ida = *ra;
    idb = *rb;
    EOS_ASSERT_OK((*db)->Flush());  // checkpoint: roots durable

    // Post-checkpoint updates: logged, and also applied to storage (leaf
    // writes go straight to the device), but the *roots* of these updates
    // are what we will deliberately lose.
    EOS_ASSERT_OK((*db)->Append(ida, PatternBytes(6, 400)));
    EOS_ASSERT_OK((*db)->Delete(idb, 100, 700));
    {
      auto va = (*db)->Read(ida, 0, 1 << 20);
      auto vb = (*db)->Read(idb, 0, 1 << 20);
      ASSERT_TRUE(va.ok() && vb.ok());
      want_a = *va;
      want_b = *vb;
    }
    // "Crash": drop the Database without the post-update flush by
    // restoring the checkpointed roots first.
    // (Simplest faithful simulation: we re-create the volume from the
    // checkpoint state below.)
  }
  {
    // Rebuild checkpoint state and roll the log forward.
    auto db = Database::Create(vol, Opts());
    ASSERT_TRUE(db.ok());
    auto ra = (*db)->CreateObjectFrom(base_a);
    auto rb = (*db)->CreateObjectFrom(base_b);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(*ra, ida);
    ASSERT_EQ(*rb, idb);
    auto records = LogManager::ReadLogFile(wal);
    ASSERT_TRUE(records.ok());
    Recovery rec((*db)->lob());
    for (uint64_t id : {ida, idb}) {
      auto root = (*db)->GetRoot(id);
      ASSERT_TRUE(root.ok());
      LobDescriptor d = *root;
      // The recreated base state corresponds to the object's initial
      // append record; stamp its LSN so redo replays only the tail.
      for (const LogRecord& r : *records) {
        if (r.object_id == id) {
          d.lsn = r.lsn;
          break;
        }
      }
      EOS_ASSERT_OK(rec.Redo(&d, id, *records));
      EOS_ASSERT_OK((*db)->PutRoot(id, d));
    }
    auto va = (*db)->Read(ida, 0, 1 << 20);
    auto vb = (*db)->Read(idb, 0, 1 << 20);
    ASSERT_TRUE(va.ok() && vb.ok());
    EXPECT_EQ(*va, want_a);
    EXPECT_EQ(*vb, want_b);
    EOS_EXPECT_OK((*db)->CheckIntegrity());
  }
  std::remove(vol.c_str());
  std::remove(wal.c_str());
}

TEST(DatabaseLogTest, DropObjectLogsDestroyWithBeforeImage) {
  auto db = Database::CreateInMemory(Opts());
  ASSERT_TRUE(db.ok());
  LogManager log;
  (*db)->AttachLog(&log);
  Bytes content = PatternBytes(7, 2500);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok());
  EOS_ASSERT_OK((*db)->DropObject(*id));
  ASSERT_FALSE(log.records().empty());
  const LogRecord& last = log.records().back();
  EXPECT_EQ(last.op, LogOp::kDestroy);
  EXPECT_EQ(last.object_id, *id);
  EXPECT_EQ(last.old_data, content);
}

}  // namespace
}  // namespace eos
