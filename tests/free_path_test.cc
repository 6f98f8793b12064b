// The free path (DESIGN.md §7, §11, §13): when a freed extent may reach the
// buddy maps. Crash-safe frees wait for the next Checkpoint(), and the
// allocation-map rebuild forgets whatever waited, because it reclaims it.

#include <gtest/gtest.h>

#include <map>

#include "eos/database.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using testing_util::PatternBytes;

DatabaseOptions Opts() {
  DatabaseOptions o;
  o.page_size = 512;
  o.space_pages = 1000;
  return o;
}

uint64_t FreePages(Database* db) {
  auto free_pages = db->allocator()->TotalFreePages();
  EXPECT_TRUE(free_pages.ok()) << free_pages.status().ToString();
  return free_pages.ok() ? *free_pages : 0;
}

void ExpectNoLeaks(Database* db) {
  LeakCheckReport report;
  EOS_EXPECT_OK(db->LeakCheck(&report));
  EXPECT_TRUE(report.leaked.empty());
  EXPECT_TRUE(report.doubly_referenced.empty());
}

// A failed unwind leaves its extent allocated and parked for the next
// checkpoint. RepairObject() rebuilds the allocation maps from
// reachability, which frees that extent; the checkpoint after it must not
// free it again — neither while the pages are still free (a double free)
// nor after `creates` new objects reused them (freeing live leaves).
void RepairThenCheckpoint(int creates) {
  SCOPED_TRACE("objects created after the repair: " +
               std::to_string(creates));
  auto db = Database::CreateInMemory(Opts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::map<uint64_t, Bytes> want;
  Bytes content = PatternBytes(1, 3000);
  auto a = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  want[*a] = content;

  auto stranded = (*db)->allocator()->Allocate(2);
  ASSERT_TRUE(stranded.ok()) << stranded.status().ToString();
  (*db)->allocator()->DeferUnwindFree(*stranded);
  EOS_ASSERT_OK((*db)->RepairObject(*a));

  for (int i = 0; i < creates; ++i) {
    Bytes b = PatternBytes(10 + i, 700);
    auto id = (*db)->CreateObjectFrom(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    want[*id] = b;
  }
  EOS_ASSERT_OK((*db)->Checkpoint());
  EOS_EXPECT_OK((*db)->CheckIntegrity());
  ExpectNoLeaks(db->get());
  for (const auto& [id, bytes] : want) {
    auto got = (*db)->Read(id, 0, bytes.size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, bytes) << "object " << id;
  }
}

TEST(FreePathTest, RebuildForgetsExtentsWaitingForCheckpoint) {
  RepairThenCheckpoint(0);
  RepairThenCheckpoint(8);
}

// A failed mutation's unwind returns its own allocations to the buddy maps
// at once (FreeForUnwind); only an extent whose free fails would wait for
// a checkpoint. Parking them instead would hold the pages until then.
TEST(FreePathTest, UnwindFreesItsAllocationsDirectly) {
  for (bool crash_safe : {false, true}) {
    SCOPED_TRACE(crash_safe ? "crash_safe" : "not crash_safe");
    DatabaseOptions o = Opts();
    o.crash_safe = crash_safe;
    auto db = Database::CreateInMemory(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Database* d = db->get();
    Bytes content = PatternBytes(1, 3000);
    auto a = d->CreateObjectFrom(content);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EOS_ASSERT_OK(d->Checkpoint());
    uint64_t before = FreePages(d);
    // 600 kB needs several segments: the first is allocated, the second
    // refused, so the unwind has an allocation of its own to return.
    d->allocator()->set_alloc_fault_countdown(1);
    Status s = d->Insert(*a, 1000, PatternBytes(2, 600000));
    d->allocator()->set_alloc_fault_countdown(-1);
    ASSERT_TRUE(s.IsNoSpace()) << s.ToString();
    EXPECT_EQ(FreePages(d), before);
    ExpectNoLeaks(d);
    auto got = d->Read(*a, 0, 1 << 20);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, content);
  }
}

// Under crash_safe, no extent freed since the last checkpoint reaches the
// buddy maps before the next Checkpoint(): a durable root may still reach
// it. With mvcc the frees take the version-GC route first and end up
// waiting all the same.
TEST(FreePathTest, CrashSafeFreesWaitForCheckpoint) {
  for (bool mvcc : {false, true}) {
    SCOPED_TRACE(mvcc ? "mvcc" : "no mvcc");
    DatabaseOptions o = Opts();
    o.crash_safe = true;
    o.mvcc = mvcc;
    auto db = Database::CreateInMemory(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Database* d = db->get();
    auto a = d->CreateObjectFrom(PatternBytes(1, 20000));
    auto b = d->CreateObjectFrom(PatternBytes(2, 20000));
    ASSERT_TRUE(a.ok() && b.ok());
    EOS_ASSERT_OK(d->Checkpoint());
    ExpectNoLeaks(d);

    uint64_t free_pages = FreePages(d);
    auto expect_no_reuse = [&](const char* op) {
      SCOPED_TRACE(op);
      uint64_t now = FreePages(d);
      EXPECT_LE(now, free_pages) << "freed pages reached the buddy maps "
                                    "before the checkpoint";
      free_pages = now;
      ExpectNoLeaks(d);
    };
    EOS_ASSERT_OK(d->Delete(*a, 1000, 9000));
    expect_no_reuse("Delete");
    EOS_ASSERT_OK(d->Replace(*a, 500, PatternBytes(3, 4000)));
    expect_no_reuse("Replace");
    EOS_ASSERT_OK(d->DropObject(*b));
    expect_no_reuse("DropObject");

    EOS_ASSERT_OK(d->Checkpoint());
    EXPECT_GT(FreePages(d), free_pages);
    ExpectNoLeaks(d);
    auto left = d->Read(*a, 0, 1 << 20);
    ASSERT_TRUE(left.ok()) << left.status().ToString();
    EXPECT_EQ(left->size(), 11000u);
  }
}

}  // namespace
}  // namespace eos
