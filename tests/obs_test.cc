// Unit tests for the observability layer: metric semantics (counters,
// gauges, power-of-two histograms, exact sums over per-thread stripes),
// the registry JSON exporter, span nesting (per thread), ring wraparound
// and the per-thread ring merge in the OpTracer, span attribution under
// concurrency and across the IoExecutor, latch-wait timing, the on-disk
// snapshot sidecar, and the IoStats arithmetic the spans are built on.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/latch.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/io_executor.h"
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

// Chrome event `inner` lies within `outer` on one row (tid).
void ExpectNestedOnOneRow(const JsonValue& outer, const JsonValue& inner) {
  EXPECT_EQ(inner.NumberOr("tid", -1), outer.NumberOr("tid", -2))
      << "outer and inner share one tid";
  double ots = outer.NumberOr("ts", 0), its = inner.NumberOr("ts", 0);
  EXPECT_GE(its, ots) << "inner starts inside outer";
  EXPECT_LE(its + inner.NumberOr("dur", 0), ots + outer.NumberOr("dur", 0))
      << "inner ends inside outer";
}

TEST(SnapshotTest, ChromeTraceExportParsesAndNests) {
  obs::OpTracer::Default().Clear();
  {
    ScopedOp outer("test.chrome_outer", 5, nullptr);
    {
      ScopedOp inner("test.chrome_inner", 5, nullptr);
      (void)inner;
    }
    // start_us and wall_us are each truncated to 1 us; the pause keeps
    // that from pushing the inner span's end past the outer's.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto snap = JsonValue::Parse(obs::SnapshotJson());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto trace = JsonValue::Parse(obs::ChromeTraceJson(*snap));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->elements().size(), 2u);
  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& e : events->elements()) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str(), "X") << "complete events";
    EXPECT_GE(e.NumberOr("ts", -1), 0.0) << "timestamps never negative";
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->str() == "test.chrome_outer") outer = &e;
    if (name->str() == "test.chrome_inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ExpectNestedOnOneRow(*outer, *inner);
}

// Two threads' outer spans overlap in time. Each thread's spans land on a
// row (tid) of its own, and on each row the inner span nests inside the
// outer one: rows are threads, not nesting depths.
TEST(SnapshotTest, ChromeTraceRowsAreThreads) {
  obs::OpTracer::Default().Clear();
  std::barrier both_open(2);
  auto client = [&](uint64_t id) {
    ScopedOp outer("test.chrome_client", id, nullptr);
    both_open.arrive_and_wait();
    { ScopedOp inner("test.chrome_client_inner", id, nullptr); }
    // As above: keep the 1 us truncation from ending inner past outer.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  std::thread a(client, 1);
  std::thread b(client, 2);
  a.join();
  b.join();
  auto snap = JsonValue::Parse(obs::SnapshotJson());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto trace = JsonValue::Parse(obs::ChromeTraceJson(*snap));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  const JsonValue* outer[3] = {};
  const JsonValue* inner[3] = {};
  for (const JsonValue& e : events->elements()) {
    const JsonValue* name = e.Find("name");
    const JsonValue* args = e.Find("args");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(args, nullptr);
    auto id = static_cast<size_t>(args->NumberOr("object", 0));
    if (id < 1 || id > 2) continue;
    if (name->str() == "test.chrome_client") outer[id] = &e;
    if (name->str() == "test.chrome_client_inner") inner[id] = &e;
  }
  for (size_t id = 1; id <= 2; ++id) {
    SCOPED_TRACE("client " + std::to_string(id));
    ASSERT_NE(outer[id], nullptr);
    ASSERT_NE(inner[id], nullptr);
    ExpectNestedOnOneRow(*outer[id], *inner[id]);
  }
  EXPECT_NE(outer[1]->NumberOr("tid", -1), outer[2]->NumberOr("tid", -1))
      << "the two threads' spans land on two tids";
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

// Eight threads record one known series each, all at once, into striped
// metrics; a one-thread replay of the same series is the reference. Every
// read-side view must agree exactly. A second round runs more threads than
// there are exclusive stripes, so several share the overflow stripe.
TEST(MetricsTest, StripedMetricsSumExactlyAcrossThreads) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  constexpr uint64_t kPerThread = 3000;
  auto record = [](MetricsRegistry& reg, uint64_t t) {
    Counter* c = reg.counter("test.striped.counter");
    Gauge* g = reg.gauge("test.striped.gauge");
    Histogram* h = reg.histogram("test.striped.hist");
    for (uint64_t i = 0; i < kPerThread; ++i) {
      uint64_t v = (i * 7919 + t * 104729) % (uint64_t{1} << (i % 40));
      c->Inc(v % 7 + 1);
      g->Add(t % 2 == 0 ? static_cast<int64_t>(v % 5)
                        : -static_cast<int64_t>(v % 3));
      h->Record(v);
    }
  };
  for (uint64_t threads : {uint64_t{8}, uint64_t{obs::internal::kStripes + 8}}) {
    MetricsRegistry striped;
    MetricsRegistry reference;
    std::atomic<uint64_t> ready{0};
    std::vector<std::thread> pool;
    for (uint64_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < threads) std::this_thread::yield();
        record(striped, t);
      });
    }
    for (auto& th : pool) th.join();
    for (uint64_t t = 0; t < threads; ++t) record(reference, t);

    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(striped.counter("test.striped.counter")->value(),
              reference.counter("test.striped.counter")->value());
    EXPECT_EQ(striped.gauge("test.striped.gauge")->value(),
              reference.gauge("test.striped.gauge")->value());
    const Histogram* hs = striped.histogram("test.striped.hist");
    const Histogram* hr = reference.histogram("test.striped.hist");
    EXPECT_EQ(hs->count(), threads * kPerThread);
    EXPECT_EQ(hs->count(), hr->count());
    EXPECT_EQ(hs->sum(), hr->sum());
    EXPECT_EQ(hs->max(), hr->max());
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(hs->Percentile(p), hr->Percentile(p)) << "p=" << p;
    }
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      EXPECT_EQ(hs->bucket(b), hr->bucket(b)) << "bucket " << b;
    }
    EXPECT_EQ(striped.RenderPrometheus(), reference.RenderPrometheus());
  }
}

// A TimedLatchGuard that finds its latch free records nothing; one that
// queues behind a holder records one sample of about the hold.
TEST(MetricsTest, TimedLatchGuardRecordsOnlyContendedWaits) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  Latch latch;
  Histogram wait;
  { obs::TimedLatchGuard g(latch, &wait); }
  EXPECT_EQ(wait.count(), 0u);

  constexpr auto kHold = std::chrono::milliseconds(100);
  std::atomic<bool> held{false};
  std::thread holder([&] {
    latch.Acquire();
    held.store(true);
    std::this_thread::sleep_for(kHold);
    latch.Release();
  });
  while (!held.load()) std::this_thread::yield();
  { obs::TimedLatchGuard g(latch, &wait); }
  holder.join();
  EXPECT_EQ(wait.count(), 1u);
  EXPECT_GE(wait.max(), 25000u);
}

// Two threads read different objects through one Database, each inside a
// span of its own, and both spans stay open across both reads. Each span
// must report its own read exactly as that read measures when run alone:
// device I/O and pager traffic of the other thread are not its work.
TEST(OpTracerTest, ConcurrentSpansCountOnlyTheirOwnIo) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  DatabaseOptions opt;
  opt.page_size = 512;
  opt.cache_bytes = 0;  // every read goes to the device
  // One-page segments under a small root: each object is ~50 segments
  // below index pages, so a read descends them through the pager.
  opt.lob.max_segment_pages = 1;
  opt.lob.threshold_pages = 1;
  opt.lob.max_root_bytes = 128;
  auto db_or = Database::CreateOnDevice(
      std::make_unique<MemPageDevice>(opt.page_size, 1), opt);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Database* db = db_or->get();
  uint64_t ids[2];
  for (uint64_t k = 0; k < 2; ++k) {
    auto id = db->CreateObjectFrom(testing_util::PatternBytes(k + 1, 24000));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids[k] = *id;
  }
  auto size = [&](uint64_t id) {
    auto n = db->Size(id);
    EXPECT_TRUE(n.ok());
    return n.ok() ? *n : 0;
  };
  // Warm the pager, so every read below finds the same frames cached.
  for (uint64_t id : ids) ASSERT_TRUE(db->Read(id, 0, size(id)).ok());

  OpSpan alone[2];
  for (int k = 0; k < 2; ++k) {
    OpTracer tracer(4);
    {
      ScopedOp span("test.alone", ids[k], db->device(), &tracer);
      ASSERT_TRUE(db->Read(ids[k], 0, size(ids[k])).ok());
    }
    ASSERT_EQ(tracer.Spans().size(), 1u);
    alone[k] = tracer.Spans()[0];
    ASSERT_GT(alone[k].io.pages_read, 0u);
    ASSERT_GT(alone[k].pager_hits, 0u) << "the read must descend the index";
  }

  OpTracer tracer(8);
  std::atomic<int> arrived{0};
  auto await = [&](int n) {
    arrived.fetch_add(1);
    while (arrived.load() < n) std::this_thread::yield();
  };
  std::vector<std::thread> readers;
  for (int k = 0; k < 2; ++k) {
    readers.emplace_back([&, k] {
      ScopedOp span("test.concurrent", ids[k], db->device(), &tracer);
      await(2);  // both spans open before either reads
      EXPECT_TRUE(db->Read(ids[k], 0, size(ids[k])).ok());
      await(4);  // neither span closes before both reads are done
    });
  }
  for (auto& r : readers) r.join();

  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  for (const OpSpan& s : spans) {
    const OpSpan& want = alone[s.object_id == ids[0] ? 0 : 1];
    SCOPED_TRACE("object " + std::to_string(s.object_id));
    EXPECT_EQ(s.io.pages_read, want.io.pages_read);
    EXPECT_EQ(s.io.read_calls, want.io.read_calls);
    EXPECT_EQ(s.io.pages_written, want.io.pages_written);
    EXPECT_EQ(s.pager_hits, want.pager_hits);
    EXPECT_EQ(s.pager_misses, want.pager_misses);
    EXPECT_EQ(s.pager_evictions, want.pager_evictions);
  }
}

// Executor tasks charge the span that submitted them: a batch's transfers
// show in the submitting span whichever thread ran them. A task still
// running when its span closes (an abandoned read-ahead) charges nothing
// afterwards, so it never shows in a later span of the same thread.
TEST(OpTracerTest, ExecutorTasksChargeTheSpanThatSubmittedThem) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  MemPageDevice dev(512, 16);
  IoExecutor exec(2);
  OpTracer tracer(8);
  {
    ScopedOp span("test.batch", 1, &dev, &tracer);
    std::vector<std::function<Status()>> tasks;
    for (PageId p = 0; p < 8; ++p) {
      tasks.push_back([&dev, p] {
        uint8_t buf[512];
        return dev.ReadPages(p, 1, buf);
      });
    }
    EOS_ASSERT_OK(exec.RunBatch(std::move(tasks)));
  }
  std::atomic<bool> go{false};
  IoExecutor::Ticket late;
  {
    ScopedOp span("test.arm", 2, &dev, &tracer);
    late = exec.Submit([&dev, &go] {
      while (!go.load()) std::this_thread::yield();
      uint8_t buf[512];
      return dev.ReadPages(9, 1, buf);
    });
  }
  {
    ScopedOp span("test.later", 3, &dev, &tracer);
    go.store(true);
    EOS_ASSERT_OK(late.Wait());
  }
  std::vector<OpSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].op, "test.batch");
  EXPECT_EQ(spans[0].io.read_calls, 8u);
  EXPECT_EQ(spans[0].io.pages_read, 8u);
  EXPECT_STREQ(spans[1].op, "test.arm");
  EXPECT_EQ(spans[1].io.pages_read, 0u) << "the read ran after it closed";
  EXPECT_STREQ(spans[2].op, "test.later");
  EXPECT_EQ(spans[2].io.pages_read, 0u) << "another span's read-ahead";
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
