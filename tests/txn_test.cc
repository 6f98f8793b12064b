// Section 4.5 machinery: logical logging, idempotent redo/undo via the
// root LSN, and index-page shadowing.

#include <gtest/gtest.h>

#include <cstdio>

#include "lob/lob_manager.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"
#include "txn/recovery.h"

namespace eos {
namespace {

using testing_util::PatternBytes;
using testing_util::Stack;

TEST(LogRecordTest, SerializationRoundTrip) {
  LogRecord r;
  r.lsn = 42;
  r.object_id = 7;
  r.op = LogOp::kReplace;
  r.offset = 123456789;
  r.data = PatternBytes(1, 333);
  r.old_data = PatternBytes(2, 222);
  Bytes buf(r.SerializedBytes());
  r.SerializeTo(buf.data());
  size_t consumed = 0;
  auto parsed = LogRecord::Parse(buf, &consumed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(parsed->lsn, 42u);
  EXPECT_EQ(parsed->object_id, 7u);
  EXPECT_EQ(parsed->op, LogOp::kReplace);
  EXPECT_EQ(parsed->offset, 123456789u);
  EXPECT_EQ(parsed->data, r.data);
  EXPECT_EQ(parsed->old_data, r.old_data);
}

TEST(LogRecordTest, ParseRejectsGarbage) {
  Bytes junk(10, 0xFF);
  size_t consumed = 0;
  EXPECT_TRUE(LogRecord::Parse(junk, &consumed).status().IsCorruption());
}

TEST(LogManagerTest, RecordsOperationsWithLsns) {
  Stack s = Stack::Make(100);
  LogManager log;
  s.lob->set_log_manager(&log);
  LobDescriptor d = s.lob->CreateEmpty();
  EOS_ASSERT_OK(s.lob->Append(&d, PatternBytes(1, 500)));
  EOS_ASSERT_OK(s.lob->Insert(&d, 100, PatternBytes(2, 50)));
  EOS_ASSERT_OK(s.lob->Delete(&d, 10, 20));
  EOS_ASSERT_OK(s.lob->Replace(&d, 0, PatternBytes(3, 5)));
  ASSERT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.records()[0].op, LogOp::kAppend);
  EXPECT_EQ(log.records()[1].op, LogOp::kInsert);
  EXPECT_EQ(log.records()[2].op, LogOp::kDelete);
  EXPECT_EQ(log.records()[2].old_data.size(), 20u);
  EXPECT_EQ(log.records()[3].op, LogOp::kReplace);
  // The root carries the LSN of the latest update (Section 4.5).
  EXPECT_EQ(d.lsn, 4u);
}

TEST(LogManagerTest, FileBackedRoundTrip) {
  std::string path = ::testing::TempDir() + "/eos_log_test.wal";
  Stack s = Stack::Make(100);
  {
    auto log = LogManager::CreateFileBacked(path);
    ASSERT_TRUE(log.ok());
    s.lob->set_log_manager(log->get());
    LobDescriptor d = s.lob->CreateEmpty();
    EOS_ASSERT_OK(s.lob->Append(&d, PatternBytes(4, 300)));
    EOS_ASSERT_OK(s.lob->Delete(&d, 50, 100));
  }
  auto records = LogManager::ReadLogFile(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].op, LogOp::kAppend);
  EXPECT_EQ((*records)[1].op, LogOp::kDelete);
  std::remove(path.c_str());
}

TEST(RecoveryTest, RedoReplaysLostUpdates) {
  Stack s = Stack::Make(100);
  LogManager log;
  s.lob->set_log_manager(&log);
  LobDescriptor d = s.lob->CreateEmpty();
  Bytes a = PatternBytes(5, 700), b = PatternBytes(6, 80);
  EOS_ASSERT_OK(s.lob->Append(&d, a));

  // Take a "checkpoint" of the root, then keep updating.
  LobDescriptor checkpoint = d;
  EOS_ASSERT_OK(s.lob->Insert(&d, 300, b));
  EOS_ASSERT_OK(s.lob->Delete(&d, 0, 100));
  auto want = s.lob->ReadAll(d);
  ASSERT_TRUE(want.ok());

  // Crash: the stale root survives, the storage reflects the new state.
  // Logical redo on our structure requires replaying against the state the
  // checkpointed root describes, so rebuild that state in a fresh stack,
  // then redo the tail of the log.
  Stack s2 = Stack::Make(100);
  LogManager log2;
  s2.lob->set_log_manager(&log2);
  LobDescriptor d2 = s2.lob->CreateEmpty();
  EOS_ASSERT_OK(s2.lob->Append(&d2, a));
  ASSERT_EQ(d2.lsn, 1u);

  Recovery rec(s2.lob.get());
  EOS_ASSERT_OK(rec.Redo(&d2, 0, log.records()));
  auto got = s2.lob->ReadAll(d2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(d2.lsn, 3u);

  // Idempotence: redoing again changes nothing.
  EOS_ASSERT_OK(rec.Redo(&d2, 0, log.records()));
  auto again = s2.lob->ReadAll(d2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *want);
}

TEST(RecoveryTest, UndoRollsBackInReverse) {
  Stack s = Stack::Make(100);
  LogManager log;
  s.lob->set_log_manager(&log);
  LobDescriptor d = s.lob->CreateEmpty();
  Bytes base = PatternBytes(7, 900);
  EOS_ASSERT_OK(s.lob->Append(&d, base));
  uint64_t stop_lsn = d.lsn;
  auto before = s.lob->ReadAll(d);
  ASSERT_TRUE(before.ok());

  EOS_ASSERT_OK(s.lob->Insert(&d, 123, PatternBytes(8, 77)));
  EOS_ASSERT_OK(s.lob->Replace(&d, 0, PatternBytes(9, 10)));
  EOS_ASSERT_OK(s.lob->Delete(&d, 500, 200));

  Recovery rec(s.lob.get());
  EOS_ASSERT_OK(rec.Undo(&d, 0, log.records(), stop_lsn));
  auto after = s.lob->ReadAll(d);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);

  // Idempotence: undoing again is a no-op.
  EOS_ASSERT_OK(rec.Undo(&d, 0, log.records(), stop_lsn));
  auto again = s.lob->ReadAll(d);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *before);
}

TEST(RecoveryTest, UndoDestroyRebuildsObject) {
  Stack s = Stack::Make(100);
  LogManager log;
  s.lob->set_log_manager(&log);
  Bytes data = PatternBytes(10, 2500);
  auto d = s.lob->CreateFrom(data);
  ASSERT_TRUE(d.ok());
  d->lsn = 0;  // CreateFrom bypasses per-op logging for the initial build
  EOS_ASSERT_OK(s.lob->Append(&*d, PatternBytes(11, 100)));
  EOS_ASSERT_OK(s.lob->Destroy(&*d));
  EXPECT_EQ(d->size(), 0u);
  // Destroy is recorded with the full before-image; undo restores it.
  Recovery rec(s.lob.get());
  EOS_ASSERT_OK(rec.Undo(&*d, 0, log.records(), 0));
  auto all = s.lob->ReadAll(*d);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), data.size());
  EXPECT_EQ(Bytes(all->begin(), all->begin() + 2500), data);
}

TEST(ShadowingTest, IndexPagesAreNeverOverwritten) {
  LobConfig cfg;
  Stack s = Stack::Make(100, 0, cfg);
  s.lob->set_shadowing(true);
  Bytes model = PatternBytes(12, 4000);
  auto d = s.lob->CreateFrom(model);
  ASSERT_TRUE(d.ok());
  Random rng(55);
  for (int i = 0; i < 40; ++i) {
    Bytes ins = PatternBytes(500 + i, rng.Range(1, 150));
    uint64_t off = rng.Uniform(model.size() + 1);
    EOS_ASSERT_OK(s.lob->Insert(&*d, off, ins));
    model.insert(model.begin() + off, ins.begin(), ins.end());
    uint64_t del = rng.Uniform(model.size());
    uint64_t n = std::min<uint64_t>(rng.Range(1, 100), model.size() - del);
    EOS_ASSERT_OK(s.lob->Delete(&*d, del, n));
    model.erase(model.begin() + del, model.begin() + del + n);
  }
  auto all = s.lob->ReadAll(*d);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, model);
  EOS_EXPECT_OK(s.lob->CheckInvariants(*d));
  EOS_ASSERT_OK(s.lob->Destroy(&*d));
  auto free_pages = s.allocator->TotalFreePages();
  ASSERT_TRUE(free_pages.ok());
  EXPECT_EQ(*free_pages, uint64_t{s.allocator->num_spaces()} *
                             s.allocator->geometry().space_pages)
      << "shadowing leaked index pages";
}

}  // namespace
}  // namespace eos
