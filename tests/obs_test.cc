// Unit tests for the observability layer: metric semantics (counters,
// gauges, power-of-two histograms), the registry JSON exporter, span
// nesting (per thread), ring wraparound and the per-thread ring merge in
// the OpTracer, the on-disk snapshot sidecar, and the IoStats arithmetic
// the spans are built on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/io_stats.h"
#include "obs/event_journal.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/op_tracer.h"
#include "obs/snapshot.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JsonValue;
using obs::MetricsRegistry;
using obs::OpSpan;
using obs::OpTracer;
using obs::ScopedOp;

// Restores the process-wide enabled flag on scope exit so a failing test
// cannot leave the rest of the binary silently unobserved.
struct EnabledGuard {
  bool was = obs::Enabled();
  ~EnabledGuard() { obs::SetEnabled(was); }
};

TEST(MetricsTest, CounterIncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeSetAddAndNegative) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsTest, DisabledSuppressesAllUpdates) {
  EnabledGuard guard;
  obs::SetEnabled(false);
  Counter c;
  Gauge g;
  Histogram h;
  c.Inc(7);
  g.Set(7);
  g.Add(7);
  h.Record(7);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);

  // Spans are inert too: nothing reaches the tracer ring.
  OpTracer tracer(8);
  { ScopedOp span("test.disabled", 1, nullptr, &tracer); }
  EXPECT_EQ(tracer.total(), 0u);

  obs::SetEnabled(true);
  c.Inc(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(HistogramTest, PowerOfTwoBucketBoundaries) {
  // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
}

TEST(HistogramTest, RecordAggregatesAndPercentilesAreConservative) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  for (uint64_t v : {0ull, 1ull, 2ull, 4ull, 8ull}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  // Quantiles report the inclusive upper bound of the rank's bucket, so
  // they never understate the true order statistic.
  EXPECT_GE(h.Percentile(0.5), 1u);   // true median is 2
  EXPECT_LE(h.Percentile(0.5), 3u);
  EXPECT_GE(h.Percentile(1.0), h.max());
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// A lone 245 lands in the [128, 256) bucket, whose upper bound 255 was once
// reported as p50 above a max of 245; percentiles are clamped to the max.
TEST(HistogramTest, PercentilesNeverExceedTheMax) {
  Histogram h;
  h.Record(245);
  EXPECT_EQ(h.max(), 245u);
  EXPECT_EQ(h.Percentile(0.5), 245u);
  EXPECT_EQ(h.Percentile(0.99), 245u);
}

TEST(MetricsTest, RegistryPointersAreStableAndNamed) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Counter* a = reg.counter("test.obs.stable");
  a->Inc(3);
  EXPECT_EQ(reg.counter("test.obs.stable"), a);
  EXPECT_EQ(reg.counter("test.obs.stable")->value(), 3u);
  // Well-known instrumentation names resolve (the components registered
  // them at static init or construction).
  EXPECT_NE(reg.counter(obs::kPagerHit), nullptr);
  EXPECT_NE(reg.counter(obs::kBuddyAlloc), nullptr);
}

TEST(MetricsTest, IntegrityMetricNamesArePinned) {
  // eos_inspect and external dashboards key on these exact strings; a
  // rename is a breaking change and must show up here.
  EXPECT_STREQ(obs::kIoChecksumFail, "io.checksum_fail");
  EXPECT_STREQ(obs::kIoReadRetry, "io.read_retry");
  EXPECT_STREQ(obs::kIoWriteRetry, "io.write_retry");
  EXPECT_STREQ(obs::kIoQuarantinedPages, "io.quarantined_pages");
  EXPECT_STREQ(obs::kScrubPagesVerified, "scrub.pages_verified");
  EXPECT_STREQ(obs::kScrubCorruptPages, "scrub.corrupt_pages");
  EXPECT_STREQ(obs::kScrubRepairedObjects, "scrub.repaired_objects");
  MetricsRegistry& reg = MetricsRegistry::Default();
  for (const char* name :
       {obs::kIoChecksumFail, obs::kIoReadRetry, obs::kIoWriteRetry,
        obs::kIoQuarantinedPages, obs::kScrubPagesVerified,
        obs::kScrubCorruptPages, obs::kScrubRepairedObjects}) {
    ASSERT_NE(reg.counter(name), nullptr) << name;
    EXPECT_EQ(reg.counter(name), reg.counter(name)) << name;
  }
}

TEST(MetricsTest, JsonExportRoundTripsThroughParser) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.counter("test.obs.json_counter")->Inc(5);
  reg.gauge("test.obs.json_gauge")->Set(-4);
  Histogram* h = reg.histogram("test.obs.json_hist");
  h->Record(16);
  h->Record(100);

  auto parsed = JsonValue::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("test.obs.json_counter", -1), 5.0);
  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->NumberOr("test.obs.json_gauge", 0), -4.0);
  const JsonValue* hists = parsed->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* hist = hists->Find("test.obs.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->NumberOr("count", 0), 2.0);
  EXPECT_EQ(hist->NumberOr("sum", 0), 116.0);
  EXPECT_EQ(hist->NumberOr("max", 0), 100.0);
  EXPECT_GE(hist->NumberOr("p99", 0), 100.0);
}

TEST(OpTracerTest, SpansNestAndRecordDepthOldestFirst) {
  OpTracer tracer(16);
  {
    ScopedOp outer("test.outer", 11, nullptr, &tracer);
    {
      ScopedOp inner("test.inner", 22, nullptr, &tracer);
      (void)inner;
    }
    outer.set_ok(false);
  }
  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first, so it is the older span.
  EXPECT_STREQ(spans[0].op, "test.inner");
  EXPECT_EQ(spans[0].object_id, 22u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_TRUE(spans[0].ok);
  EXPECT_EQ(spans[0].seq, 1u);
  EXPECT_STREQ(spans[1].op, "test.outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_FALSE(spans[1].ok);
  EXPECT_EQ(spans[1].seq, 2u);
  EXPECT_EQ(tracer.total(), 2u);
}

TEST(OpTracerTest, CloseMarksSpanFromStatus) {
  OpTracer tracer(4);
  {
    ScopedOp span("test.close", 0, nullptr, &tracer);
    Status s = span.Close(Status::IOError("boom"));
    EXPECT_TRUE(s.IsIOError());
  }
  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].ok);
}

TEST(OpTracerTest, RingWrapsKeepingNewestSpans) {
  OpTracer tracer(OpTracer::kDefaultCapacity);
  tracer.SetCapacity(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    ScopedOp span("test.wrap", static_cast<uint64_t>(i), nullptr, &tracer);
    (void)span;
  }
  EXPECT_EQ(tracer.total(), 10u);
  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first and only the 4 most recent survive: seqs 7..10.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 7u + i);
    EXPECT_EQ(spans[i].object_id, 6u + i);
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Spans().empty());
  EXPECT_EQ(tracer.total(), 0u) << "Clear is a full reset";
}

// Two threads nest spans three deep while each other's spans are open: a
// span's depth counts only the spans open on its own thread.
TEST(OpTracerTest, DepthIsPerThreadUnderConcurrency) {
  static const char* const kLevels[] = {"test.depth0", "test.depth1",
                                        "test.depth2"};
  constexpr int kRounds = 50;
  OpTracer tracer(1024);
  std::atomic<int> outer_open{0};
  auto worker = [&](uint64_t thread) {
    for (int r = 0; r < kRounds; ++r) {
      ScopedOp l0(kLevels[0], thread, nullptr, &tracer);
      // Nest only once both threads hold an open outer span, so a shared
      // depth counter would be off by one for every inner span.
      outer_open.fetch_add(1);
      while (outer_open.load() < 2 * (r + 1)) std::this_thread::yield();
      ScopedOp l1(kLevels[1], thread, nullptr, &tracer);
      { ScopedOp l2(kLevels[2], thread, nullptr, &tracer); }
    }
  };
  std::thread a(worker, 1);
  std::thread b(worker, 2);
  a.join();
  b.join();
  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u * kRounds * 3);
  for (const OpSpan& s : spans) {
    uint32_t want = 0;
    while (want < 3 && std::string(s.op) != kLevels[want]) ++want;
    ASSERT_LT(want, 3u) << s.op;
    EXPECT_EQ(s.depth, want) << s.op << " on thread " << s.object_id;
  }
}

// Four threads record at once into their own rings: Spans() merges them
// into exactly the newest capacity() spans in sequence order, total()
// counts every span, and SetCapacity/Clear reset every thread's ring.
TEST(OpTracerTest, PerThreadRingsMergeNewestSpansInSequenceOrder) {
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 100;
  constexpr uint64_t kCapacity = 64;
  OpTracer tracer(kCapacity);
  auto record = [&](uint64_t spans_each) {
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (uint64_t i = 0; i < spans_each; ++i) {
          ScopedOp span("test.ring", t * 1000 + i, nullptr, &tracer);
        }
      });
    }
    for (auto& th : threads) th.join();
  };
  record(kPerThread);
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(tracer.total(), total);
  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), kCapacity);
  uint64_t last_of_thread[kThreads] = {};
  bool seen[kThreads] = {};
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, total - kCapacity + 1 + i)
        << "not the newest spans in sequence order";
    // Within one thread, sequence order is that thread's recording order.
    uint64_t t = spans[i].object_id / 1000;
    uint64_t n = spans[i].object_id % 1000;
    ASSERT_LT(t, kThreads);
    if (seen[t]) {
      EXPECT_GT(n, last_of_thread[t]);
    }
    seen[t] = true;
    last_of_thread[t] = n;
  }

  tracer.SetCapacity(8);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_TRUE(tracer.Spans().empty()) << "SetCapacity resets every ring";
  record(5);
  EXPECT_EQ(tracer.total(), total + kThreads * 5);
  spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(spans.back().seq, tracer.total());

  tracer.Clear();
  EXPECT_TRUE(tracer.Spans().empty()) << "Clear resets every ring";
  EXPECT_EQ(tracer.total(), 0u);
  { ScopedOp span("test.ring", 7, nullptr, &tracer); }
  spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].seq, 1u);
}

TEST(OpTracerTest, JsonExportCarriesSpanFields) {
  OpTracer tracer(4);
  { ScopedOp span("test.json", 9, nullptr, &tracer); }
  JsonValue arr = tracer.ToJsonValue();
  ASSERT_EQ(arr.elements().size(), 1u);
  const JsonValue& s = arr.elements()[0];
  EXPECT_EQ(s.NumberOr("object", 0), 9.0);
  EXPECT_EQ(s.NumberOr("depth", 7), 0.0);
  const JsonValue* op = s.Find("op");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->str(), "test.json");
}

TEST(SnapshotTest, WriteReadRoundTripAndMissingFile) {
  const std::string path =
      ::testing::TempDir() + "/eos_obs_snapshot_test.json";
  std::remove(path.c_str());
  auto missing = obs::ReadSnapshotFile(path);
  EXPECT_TRUE(missing.status().IsNotFound())
      << missing.status().ToString();

  MetricsRegistry::Default().counter("test.obs.snapshot")->Inc(13);
  EOS_ASSERT_OK(obs::WriteSnapshotFile(path));
  auto snap = obs::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->NumberOr("version", 0), 1.0);
  const JsonValue* metrics = snap->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->NumberOr("test.obs.snapshot", 0), 13.0);
  std::remove(path.c_str());

  EXPECT_EQ(obs::SnapshotPathFor("/tmp/v.vol"), "/tmp/v.vol.obs.json");
}

TEST(MetricsTest, PrometheusExpositionFormat) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.counter("test.obs.prom_counter")->Inc(9);
  reg.gauge("test.obs.prom_gauge")->Set(-2);
  Histogram* h = reg.histogram("test.obs.prom_hist");
  h->Record(0);
  h->Record(5);
  std::string out = reg.RenderPrometheus();

  // Names gain the eos_ prefix, dots become underscores, counters _total.
  EXPECT_NE(out.find("# TYPE eos_test_obs_prom_counter_total counter"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("eos_test_obs_prom_counter_total 9"), std::string::npos);
  EXPECT_NE(out.find("# TYPE eos_test_obs_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(out.find("eos_test_obs_prom_gauge -2"), std::string::npos);
  // Histograms render cumulative buckets ending in the mandatory +Inf,
  // plus _sum and _count.
  EXPECT_NE(out.find("# TYPE eos_test_obs_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(out.find("eos_test_obs_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("eos_test_obs_prom_hist_sum 5"), std::string::npos);
  EXPECT_NE(out.find("eos_test_obs_prom_hist_count 2"), std::string::npos);
  // Cumulative: the 0-bucket holds 1, the bucket covering 5 holds 2.
  EXPECT_NE(out.find("eos_test_obs_prom_hist_bucket{le=\"0\"} 1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("eos_test_obs_prom_hist_bucket{le=\"7\"} 2"),
            std::string::npos)
      << out;
  // Every line is either a comment or "name[{labels}] value".
  size_t pos = 0;
  while (pos < out.size()) {
    size_t eol = out.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "output ends with a newline";
    std::string line = out.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

TEST(SnapshotTest, ChromeTraceExportParsesAndNests) {
  obs::OpTracer::Default().Clear();
  {
    ScopedOp outer("test.chrome_outer", 5, nullptr);
    ScopedOp inner("test.chrome_inner", 5, nullptr);
    (void)inner;
  }
  auto snap = JsonValue::Parse(obs::SnapshotJson());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto trace = JsonValue::Parse(obs::ChromeTraceJson(*snap));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->elements().size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const JsonValue& e : events->elements()) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str(), "X") << "complete events";
    EXPECT_GE(e.NumberOr("ts", -1), 0.0) << "timestamps never negative";
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->str() == "test.chrome_outer") {
      saw_outer = true;
      EXPECT_EQ(e.NumberOr("tid", 0), 1.0) << "depth 0 -> tid 1";
    }
    if (name->str() == "test.chrome_inner") {
      saw_inner = true;
      EXPECT_EQ(e.NumberOr("tid", 0), 2.0) << "depth 1 -> tid 2";
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(SnapshotTest, SnapshotWriterWritesImmediatelyAndOnStop) {
  const std::string path =
      ::testing::TempDir() + "/eos_obs_snapshot_writer_test.json";
  std::remove(path.c_str());
  obs::SnapshotWriter writer;
  EXPECT_FALSE(writer.running());
  writer.Start(path, /*interval_ms=*/3'600'000);  // no periodic tick fires
  EXPECT_TRUE(writer.running());
  // The initial write happens before Start returns control flow to the
  // loop's first wait, but give the thread a moment under sanitizers.
  for (int i = 0; i < 1000 && writer.writes() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(writer.writes(), 1u);
  writer.Stop();
  EXPECT_FALSE(writer.running());
  uint64_t after_stop = writer.writes();
  EXPECT_GE(after_stop, 2u) << "Stop flushes a final snapshot";
  writer.Stop();  // idempotent
  EXPECT_EQ(writer.writes(), after_stop);
  auto snap = obs::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->NumberOr("version", 0), 1.0);
  std::remove(path.c_str());
}

TEST(MetricsTest, DisabledJournalAndCostHooksAreInert) {
  EnabledGuard guard;
  obs::SetEnabled(false);
  // Journal: no ring registration, no sequence advance (the EOS_OBS=0
  // zero-overhead contract; the journal's own suite covers this deeper).
  obs::EventJournal j(8);
  obs::RecordEvent(obs::EventKind::kNote, "inert");
  j.Record(obs::EventKind::kNote, "inert");
  EXPECT_EQ(j.total_recorded(), 0u);
  EXPECT_EQ(j.threads_seen(), 0u);
  // Prometheus rendering still works while disabled (values just freeze).
  EXPECT_NE(MetricsRegistry::Default().RenderPrometheus().find("# TYPE"),
            std::string::npos);
}

// Exclusive dir_latch_ acquisitions are timed only when they contend. A
// mutation that finds the latch free records nothing into
// db.dir_latch_wait_us; one that waits behind a reader holding it shared
// (without mvcc, Read() keeps it across its device reads) records one
// sample of about the rest of that read.
TEST(MetricsTest, DirLatchWaitRecordsOnlyContendedAcquisitions) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  Histogram* wait =
      MetricsRegistry::Default().histogram(obs::kDbDirLatchWaitUs);
  auto chaos_owned = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(512, 1), /*seed=*/7);
  ChaosPageDevice* chaos = chaos_owned.get();
  DatabaseOptions opt;
  opt.page_size = 512;
  auto db = Database::CreateOnDevice(std::move(chaos_owned), opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database* dbp = db->get();
  auto id = dbp->CreateObjectFrom(testing_util::PatternBytes(7, 2000));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const uint64_t before = wait->count();
  EOS_ASSERT_OK(dbp->Append(*id, testing_util::PatternBytes(8, 100)));
  EXPECT_EQ(wait->count(), before) << "an uncontended acquisition was timed";

  constexpr uint64_t kReadUs = 200000;
  chaos->InjectLatency(/*read_us=*/kReadUs, /*write_us=*/0, /*jitter_us=*/0);
  const uint64_t reads_before = chaos->stats().read_calls;
  Status read_status;
  std::thread reader([&] { read_status = dbp->Read(*id, 0, 100).status(); });
  while (chaos->stats().read_calls == reads_before) {
    std::this_thread::yield();
  }
  Status appended = dbp->Append(*id, testing_util::PatternBytes(9, 100));
  reader.join();
  chaos->InjectLatency(0, 0, 0);
  EOS_ASSERT_OK(read_status);
  EOS_ASSERT_OK(appended);
  EXPECT_EQ(wait->count(), before + 1);
  EXPECT_GE(wait->max(), kReadUs / 4);
}

TEST(IoStatsTest, DifferenceAndToString) {
  IoStats a;
  a.read_calls = 10;
  a.write_calls = 4;
  a.pages_read = 30;
  a.pages_written = 8;
  a.seeks = 12;
  IoStats b;
  b.read_calls = 3;
  b.write_calls = 1;
  b.pages_read = 10;
  b.pages_written = 2;
  b.seeks = 5;
  IoStats d = a - b;
  EXPECT_EQ(d.read_calls, 7u);
  EXPECT_EQ(d.write_calls, 3u);
  EXPECT_EQ(d.pages_read, 20u);
  EXPECT_EQ(d.pages_written, 6u);
  EXPECT_EQ(d.seeks, 7u);
  EXPECT_EQ(d.transfers(), 26u);
  a -= b;
  EXPECT_EQ(a.seeks, 7u);
  std::string s = d.ToString();
  EXPECT_NE(s.find("read_calls=7"), std::string::npos) << s;
  EXPECT_NE(s.find("write_calls=3"), std::string::npos) << s;
  EXPECT_NE(s.find("seeks=7"), std::string::npos) << s;
}

}  // namespace
}  // namespace eos
