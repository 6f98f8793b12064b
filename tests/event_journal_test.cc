// Flight-recorder tests (DESIGN.md §6): global ordering across per-thread
// rings, wraparound accounting, lock-light concurrent recording (this
// suite runs under TSan via the `tsan` label), the disabled no-op path,
// the one timeline events share with spans, and post-mortem dump
// round-trips, which carry the recent spans.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_journal.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/op_tracer.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using obs::EventJournal;
using obs::EventKind;
using obs::JournalEvent;
using obs::JsonValue;

struct EnabledGuard {
  bool was = obs::Enabled();
  ~EnabledGuard() { obs::SetEnabled(was); }
};

TEST(EventJournalTest, RecordsInGlobalOrderWithFields) {
  EventJournal j(64);
  j.Record(EventKind::kNote, "lob.read", 7);
  j.Record(EventKind::kIoBatch, "read_runs", 3, 0);
  j.Record(EventKind::kNote, "lob.read", 7, 120, 5, /*ok=*/false);
  std::vector<JournalEvent> events = j.MergedEvents();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1) << "seq is dense and ascending";
    EXPECT_EQ(events[i].tid, 0u) << "single writer gets ring 0";
  }
  EXPECT_EQ(events[0].kind, EventKind::kNote);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_TRUE(events[0].ok);
  EXPECT_STREQ(events[1].label, "read_runs");
  EXPECT_EQ(events[1].b, 0u);
  EXPECT_EQ(events[2].b, 120u);
  EXPECT_EQ(events[2].c, 5u);
  EXPECT_FALSE(events[2].ok);
  EXPECT_GE(events[2].t_us, events[0].t_us) << "time is monotone per thread";
  EXPECT_EQ(j.total_recorded(), 3u);
  EXPECT_EQ(j.threads_seen(), 1u);
}

TEST(EventJournalTest, RingWrapsKeepingNewestAndCountsDrops) {
  EventJournal j(8);
  for (uint64_t i = 1; i <= 20; ++i) {
    j.Record(EventKind::kNote, "wrap", i);
  }
  EXPECT_EQ(j.total_recorded(), 20u);
  std::vector<JournalEvent> events = j.MergedEvents();
  ASSERT_EQ(events.size(), 8u) << "ring retains per_thread_capacity events";
  // The 8 newest survive, oldest-first: a = 13..20.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 13 + i);
    EXPECT_EQ(events[i].seq, 13 + i);
  }
  JsonValue json = j.ToJsonValue();
  EXPECT_EQ(json.NumberOr("recorded", 0), 20.0);
  EXPECT_EQ(json.NumberOr("dropped", 0), 12.0);

  j.Clear();
  EXPECT_EQ(j.total_recorded(), 0u);
  EXPECT_TRUE(j.MergedEvents().empty());
  j.Record(EventKind::kNote, "after_clear");
  EXPECT_EQ(j.MergedEvents().at(0).seq, 1u) << "Clear resets the sequence";
}

TEST(EventJournalTest, ConcurrentWritersKeepPerThreadOrderAndLoseNothing) {
  // Rings are big enough that nothing wraps: every event must survive,
  // seqs must be a permutation of 1..N, and each thread's own events must
  // appear in increasing seq. TSan (label `tsan`) checks the latching.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 500;
  EventJournal j(1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&j, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        j.Record(EventKind::kNote, "worker", static_cast<uint64_t>(t), i);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(j.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(j.threads_seen(), static_cast<size_t>(kThreads));
  std::vector<JournalEvent> events = j.MergedEvents();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::vector<uint64_t> last_b(kThreads, 0);
  std::vector<uint64_t> counts(kThreads, 0);
  uint64_t prev_seq = 0;
  for (const JournalEvent& e : events) {
    EXPECT_EQ(e.seq, prev_seq + 1) << "merged seqs are dense";
    prev_seq = e.seq;
    ASSERT_LT(e.a, static_cast<uint64_t>(kThreads));
    size_t owner = static_cast<size_t>(e.a);
    if (counts[owner] > 0) {
      EXPECT_GT(e.b, last_b[owner]) << "per-thread program order preserved";
    }
    last_b[owner] = e.b;
    ++counts[owner];
  }
  for (uint64_t c : counts) EXPECT_EQ(c, kPerThread);
}

TEST(EventJournalTest, DisabledPathRecordsNothingAndAllocatesNoRings) {
  EnabledGuard guard;
  EventJournal j(16);
  obs::SetEnabled(false);
  j.Record(EventKind::kCrash, "ignored", 1, 2, 3, false);
  obs::RecordEvent(EventKind::kNote, "ignored_too");
  EXPECT_EQ(j.total_recorded(), 0u);
  EXPECT_EQ(j.threads_seen(), 0u) << "disabled recording must not register "
                                     "a ring for the calling thread";
  EXPECT_TRUE(j.MergedEvents().empty());

  auto dump = obs::WritePostMortem("disabled");
  EXPECT_TRUE(dump.status().IsNotFound()) << dump.status().ToString();

  obs::SetEnabled(true);
  j.Record(EventKind::kNote, "live");
  EXPECT_EQ(j.total_recorded(), 1u);
}

TEST(EventJournalTest, JsonExportParsesWithSchemaFields) {
  EventJournal j(16);
  j.Record(EventKind::kChecksumFail, "verify_read", 42, 0, 0, /*ok=*/false);
  auto parsed = JsonValue::Parse(j.ToJsonValue().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements().size(), 1u);
  const JsonValue& e = events->elements()[0];
  EXPECT_EQ(e.NumberOr("seq", 0), 1.0);
  EXPECT_EQ(e.NumberOr("a", 0), 42.0);
  const JsonValue* kind = e.Find("kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(kind->str(), "checksum_fail");
  const JsonValue* label = e.Find("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->str(), "verify_read");
}

TEST(EventJournalTest, PostMortemDumpRoundTripsAndBundlesSeed) {
  const std::string dir = ::testing::TempDir();
  obs::SetPostMortemDir(dir);
  setenv("EOS_TEST_SEED", "12345", /*overwrite=*/1);
  obs::RecordEvent(EventKind::kChaosFault, "torn_write", 9, 2, 3, false);
  obs::RecordEvent(EventKind::kCrash, "chaos_crash");
  // An operation that ran just before the dump.
  { obs::ScopedOp span("test.before_crash", 4242, nullptr); }
  uint64_t dumps_before =
      obs::MetricsRegistry::Default().counter(obs::kJournalPostMortems)
          ->value();

  auto path = obs::WritePostMortem("unit_test");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path->find("eos_postmortem."), std::string::npos);
  EXPECT_NE(path->find(".unit_test.json"), std::string::npos);
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .counter(obs::kJournalPostMortems)
                ->value(),
            dumps_before + 1);

  std::FILE* f = std::fopen(path->c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, got);
  }
  std::fclose(f);
  auto parsed = JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* reason = parsed->Find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->str(), "unit_test");
  const JsonValue* seed = parsed->Find("eos_test_seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_EQ(seed->str(), "12345");
  const JsonValue* journal = parsed->Find("journal");
  ASSERT_NE(journal, nullptr);
  const JsonValue* events = journal->Find("events");
  ASSERT_NE(events, nullptr);
  // The injected fault and the crash are both in the dumped narrative.
  bool saw_fault = false, saw_crash = false;
  for (const JsonValue& e : events->elements()) {
    const JsonValue* kind = e.Find("kind");
    if (kind == nullptr) continue;
    if (kind->str() == "chaos_fault") saw_fault = true;
    if (kind->str() == "crash") saw_crash = true;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_crash);
  // The dump carries the default tracer's spans, the newest last.
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->elements().empty());
  const JsonValue& last = spans->elements().back();
  const JsonValue* op = last.Find("op");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->str(), "test.before_crash");
  EXPECT_EQ(last.NumberOr("object", 0), 4242.0);
  std::remove(path->c_str());
  unsetenv("EOS_TEST_SEED");
}

// Events and spans share one clock: an event recorded 20 ms after one
// span closed and 20 ms before the next opened is stamped between them,
// even from a journal constructed in between.
TEST(EventJournalTest, EventsAndSpansShareOneTimeline) {
  constexpr uint64_t kGapUs = 20'000;
  { obs::ScopedOp first("test.timeline_first", 1, nullptr); }
  std::this_thread::sleep_for(std::chrono::microseconds(kGapUs));
  EventJournal j(8);
  j.Record(EventKind::kNote, "between_spans");
  std::this_thread::sleep_for(std::chrono::microseconds(kGapUs));
  { obs::ScopedOp second("test.timeline_second", 2, nullptr); }

  std::vector<obs::OpSpan> spans = obs::OpTracer::Default().Spans();
  ASSERT_GE(spans.size(), 2u);
  const obs::OpSpan& a = spans[spans.size() - 2];
  const obs::OpSpan& b = spans.back();
  ASSERT_STREQ(a.op, "test.timeline_first");
  ASSERT_STREQ(b.op, "test.timeline_second");
  std::vector<JournalEvent> events = j.MergedEvents();
  ASSERT_EQ(events.size(), 1u);
  uint64_t t = events[0].t_us;
  EXPECT_GE(t, a.start_us + a.wall_us + kGapUs)
      << "the event is stamped after the first span's end";
  EXPECT_LE(t + kGapUs, b.start_us)
      << "the event is stamped before the second span's start";
}

TEST(EventJournalTest, DefaultJournalCountsIntoRegistry) {
  uint64_t before =
      obs::MetricsRegistry::Default().counter(obs::kJournalEvents)->value();
  obs::RecordEvent(EventKind::kNote, "metric_hook");
  EXPECT_EQ(
      obs::MetricsRegistry::Default().counter(obs::kJournalEvents)->value(),
      before + 1);
}

}  // namespace
}  // namespace eos
