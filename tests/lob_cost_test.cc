// I/O-cost assertions for the paper's per-operation claims (Sections
// 4.3.1, 4.3.2): updates touch I/O proportional to the bytes involved,
// never to the object size — plus unit vectors for the analytic cost
// model (obs/cost_model.h) those sections are transcribed into, and the
// conformance telemetry comparing the two.

#include <gtest/gtest.h>

#include <functional>

#include "io/page_device.h"
#include "lob/lob_manager.h"
#include "obs/cost_model.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/op_tracer.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using testing_util::PatternBytes;
using testing_util::Stack;

// Leaf-page reads of an operation = total reads minus single-page index
// reads is hard to separate exactly; instead we bound total page I/O.
struct CostProbe {
  Stack s;
  LobDescriptor d;

  static CostProbe Make(uint32_t t, uint64_t object_bytes) {
    LobConfig cfg;
    cfg.threshold_pages = t;
    CostProbe p{Stack::Make(4096, 4096, cfg), {}};
    Random rng(1);
    auto d = p.s.lob->CreateFrom(testing_util::PatternBytes(1, object_bytes));
    EXPECT_TRUE(d.ok());
    p.d = *d;
    return p;
  }

  IoStats Op(const std::function<Status(LobManager*, LobDescriptor*)>& fn) {
    EXPECT_TRUE(s.pager->FlushAll().ok());
    EXPECT_TRUE(s.pager->EvictAll().ok());
    s.device->ForgetHeadPosition();
    s.device->ResetStats();
    Status st = fn(s.lob.get(), &d);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(s.pager->FlushAll().ok());
    return s.device->stats();
  }
};

TEST(LobCostTest, InsertReadsAtMostTwoLeafRuns) {
  // Section 4.3.1: "one or two (physically adjacent) pages from the
  // original leaf segment have to be read" (plus index I/O and the write
  // of N). With T=1 (no page reshuffling) on a fresh object, total reads
  // must be tiny and independent of the 16 MB object size.
  CostProbe p = CostProbe::Make(1, 16 << 20);
  Bytes ins = PatternBytes(2, 100);
  IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
    return lob->Insert(d, 8 << 20, ins);
  });
  EXPECT_LE(io.pages_read, 4u) << io.ToString();   // 1-2 leaf + 1-2 index
  EXPECT_LE(io.pages_written, 6u) << io.ToString();
}

TEST(LobCostTest, InsertCostIndependentOfObjectSize) {
  uint64_t reads_small = 0, reads_big = 0;
  {
    CostProbe p = CostProbe::Make(8, 1 << 20);
    Bytes ins = PatternBytes(3, 200);
    reads_small = p.Op([&](LobManager* lob, LobDescriptor* d) {
                     return lob->Insert(d, 300000, ins);
                   }).transfers();
  }
  {
    CostProbe p = CostProbe::Make(8, 32 << 20);
    Bytes ins = PatternBytes(3, 200);
    reads_big = p.Op([&](LobManager* lob, LobDescriptor* d) {
                  return lob->Insert(d, 300000, ins);
                }).transfers();
  }
  // Objective 3: cost depends on the bytes involved, not the object size.
  EXPECT_LE(reads_big, reads_small + 4);
}

TEST(LobCostTest, AlignedDeleteTouchesNoLeafPage) {
  // Section 4.3.2: "deletions where the last byte to be deleted happens to
  // be the last byte of a page can be completed without accessing any
  // segment". With T=1, delete [page-aligned, page-aligned): zero leaf
  // reads; only index pages move.
  CostProbe p = CostProbe::Make(1, 8 << 20);
  IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
    return lob->Delete(d, 4096 * 100, 4096 * 50);
  });
  // Every access must be a single (index/directory) page: no multi-page
  // leaf transfers at all.
  EXPECT_EQ(io.pages_read, io.read_calls) << io.ToString();
}

TEST(LobCostTest, TruncateTouchesNoLeafPage) {
  CostProbe p = CostProbe::Make(1, 8 << 20);
  IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
    return lob->Truncate(d, 12345);  // mid-page boundary is fine too:
    // N is empty because the deletion extends to the object end.
  });
  EXPECT_EQ(io.pages_read, io.read_calls) << io.ToString();
}

TEST(LobCostTest, DestroyTouchesNoLeafPage) {
  CostProbe p = CostProbe::Make(1, 8 << 20);
  IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
    return lob->Destroy(d);
  });
  EXPECT_EQ(io.pages_read, io.read_calls) << io.ToString();
  // Writes are buddy-directory updates only: all single-page.
  EXPECT_EQ(io.pages_written, io.write_calls) << io.ToString();
}

TEST(LobCostTest, MidPageDeleteReadsBoundedPages) {
  // General delete: "one leaf page needs to be accessed ... if bytes are
  // shuffled, one or two more" (T=1 disables page reshuffling).
  CostProbe p = CostProbe::Make(1, 8 << 20);
  IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
    return lob->Delete(d, 1000000, 500000);
  });
  EXPECT_LE(io.pages_read, 6u) << io.ToString();
}

TEST(LobCostTest, ReplaceCostProportionalToRange) {
  CostProbe p = CostProbe::Make(8, 8 << 20);
  Bytes patch = PatternBytes(4, 3 * 4096);
  IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
    return lob->Replace(d, 1 << 20, patch);
  });
  // 3-4 pages read + the same written, plus at most one index page.
  EXPECT_LE(io.pages_read, 6u) << io.ToString();
  EXPECT_LE(io.pages_written, 5u) << io.ToString();
}

TEST(LobCostTest, PageReshuffleCostBoundedByThreshold) {
  // Section 4.4: "the overhead is the cost of transferring some additional
  // pages from within the segment (no additional disk seeks)" for inserts.
  for (uint32_t t : {4u, 16u}) {
    CostProbe p = CostProbe::Make(t, 8 << 20);
    Bytes ins = PatternBytes(5, 100);
    IoStats io = p.Op([&](LobManager* lob, LobDescriptor* d) {
      return lob->Insert(d, (4 << 20) + 123, ins);
    });
    // Reads bounded by ~T pages (making N safe) + index.
    EXPECT_LE(io.pages_read, uint64_t{t} + 4) << "T=" << t;
  }
}

// ----- cost-model unit vectors (obs/cost_model.h) ---------------------------

obs::CostInputs Inputs(uint64_t bytes, uint32_t depth,
                       uint32_t max_seg = 256) {
  obs::CostInputs in;
  in.object_bytes = bytes;
  in.depth = depth;
  in.page_size = 4096;
  in.max_segment_pages = max_seg;
  return in;
}

TEST(CostModelTest, ReadVectors) {
  // One page at depth 1: 1 leaf transfer, 2 boundary segments, one index
  // node per segment, one seek per segment + index node (Section 4.2).
  obs::CostEstimate e = obs::ExpectedReadCost(Inputs(4 << 20, 1), 0, 4096);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 1.0);
  EXPECT_DOUBLE_EQ(e.index_reads, 2.0);
  EXPECT_DOUBLE_EQ(e.pages_written(), 0.0) << "reads never write";
  EXPECT_DOUBLE_EQ(e.seeks, 4.0);

  // An unaligned range is charged every page it overlaps: 2 bytes across
  // a page boundary span 2 pages.
  e = obs::ExpectedReadCost(Inputs(4 << 20, 1), 4095, 2);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 2.0);

  // Degenerate ranges cost nothing.
  EXPECT_DOUBLE_EQ(
      obs::ExpectedReadCost(Inputs(4 << 20, 1), 0, 0).transfers(), 0.0);
  EXPECT_DOUBLE_EQ(
      obs::ExpectedReadCost(Inputs(0, 1), 0, 100).transfers(), 0.0);
  EXPECT_DOUBLE_EQ(
      obs::ExpectedReadCost(Inputs(4096, 1), 1 << 20, 100).transfers(), 0.0)
      << "offset past the object";

  // Half-full leaves double the leaf transfers (Section 4.4's utilization).
  obs::CostInputs half = Inputs(4 << 20, 0);
  half.utilization = 0.5;
  EXPECT_DOUBLE_EQ(obs::ExpectedReadCost(half, 0, 8 * 4096).leaf_reads, 16.0);

  // A full scan at depth 0 is dominated by leaf transfers, ~1 per page.
  e = obs::ExpectedReadCost(Inputs(1 << 20, 0), 0, 1 << 20);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 256.0);
  EXPECT_DOUBLE_EQ(e.index_reads, 0.0);
}

TEST(CostModelTest, InsertVectors) {
  // T=1 (byte reshuffling only), 100 bytes, depth 1: 2 boundary leaf
  // reads, 1 fresh page + 2 cut halves written, spine + allocation-map
  // writes (Section 4.3.1).
  obs::CostEstimate e =
      obs::ExpectedInsertCost(Inputs(8 << 20, 1), 100, /*threshold=*/1);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 2.0);
  EXPECT_DOUBLE_EQ(e.leaf_writes, 3.0);
  EXPECT_DOUBLE_EQ(e.index_reads, 1.0);
  EXPECT_DOUBLE_EQ(e.index_writes, 5.0);

  // Page reshuffling (T=8) may pull up to T-1 more pages through memory
  // in each direction (Section 4.4).
  obs::CostEstimate big =
      obs::ExpectedInsertCost(Inputs(8 << 20, 1), 100, /*threshold=*/8);
  EXPECT_DOUBLE_EQ(big.leaf_reads, e.leaf_reads + 7);
  EXPECT_DOUBLE_EQ(big.leaf_writes, e.leaf_writes + 7);

  // The cost scales with the bytes inserted, never the object size.
  obs::CostEstimate small_obj =
      obs::ExpectedInsertCost(Inputs(1 << 20, 1), 100, 1);
  EXPECT_DOUBLE_EQ(small_obj.transfers(), e.transfers());
  EXPECT_DOUBLE_EQ(obs::ExpectedInsertCost(Inputs(8 << 20, 1), 0, 1)
                       .transfers(),
                   0.0);
}

TEST(CostModelTest, AppendVectors) {
  // Section 4.1: ceil(len/PS) fresh pages + the re-filled trailing page.
  obs::CostEstimate e = obs::ExpectedAppendCost(Inputs(8 << 20, 1), 8192);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 1.0);
  EXPECT_DOUBLE_EQ(e.leaf_writes, 3.0);
  EXPECT_DOUBLE_EQ(e.index_reads, 1.0);
  EXPECT_DOUBLE_EQ(e.index_writes, 5.0);
  EXPECT_DOUBLE_EQ(obs::ExpectedAppendCost(Inputs(8 << 20, 1), 0).transfers(),
                   0.0);
}

TEST(CostModelTest, DeleteVectors) {
  // Page-aligned delete touches no leaf at all (the Section 4.3.2 claim
  // the AlignedDeleteTouchesNoLeafPage test above verifies physically).
  obs::CostEstimate e = obs::ExpectedDeleteCost(Inputs(8 << 20, 1),
                                                4096 * 100, 4096 * 50, 1);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 0.0);
  EXPECT_DOUBLE_EQ(e.leaf_writes, 0.0);
  EXPECT_GT(e.index_writes, 0.0);

  // A ragged range touches one boundary page per ragged end.
  e = obs::ExpectedDeleteCost(Inputs(8 << 20, 1), 1000, 500, 1);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 2.0);
  e = obs::ExpectedDeleteCost(Inputs(8 << 20, 1), 4096, 500, 1);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 1.0) << "only the high end is ragged";

  // Deleting through the object's end (truncate) never has a ragged high
  // end, whatever the byte offset.
  e = obs::ExpectedDeleteCost(Inputs(8 << 20, 1), 12345, 8 << 20, 1);
  EXPECT_DOUBLE_EQ(e.leaf_reads, 1.0);
}

TEST(CostModelTest, ConformanceRecordsRatioPercent) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Histogram* h = reg.histogram(obs::kCostAppendRatio);
  uint64_t count0 = h->count(), sum0 = h->sum();
  uint64_t ops0 = reg.counter(obs::kCostOpsCompared)->value();

  obs::CostEstimate model;
  model.leaf_writes = 8;  // predict 8 transfers
  IoStats actual;
  actual.pages_written = 10;  // measure 10 -> ratio 125
  obs::RecordConformance(obs::CostOp::kAppend, model, actual);
  EXPECT_EQ(h->count(), count0 + 1);
  EXPECT_EQ(h->sum(), sum0 + 125);
  EXPECT_EQ(reg.counter(obs::kCostOpsCompared)->value(), ops0 + 1);

  // A degenerate zero-transfer prediction clamps to 1, never divides by 0.
  obs::CostEstimate empty;
  IoStats one_page;
  one_page.pages_read = 1;
  obs::RecordConformance(obs::CostOp::kAppend, empty, one_page);
  EXPECT_EQ(h->sum(), sum0 + 125 + 100);
}

TEST(CostModelTest, SpanCostProbeSamplesOnlyAcknowledgedSuccess) {
  MemPageDevice dev(4096, 8);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Histogram* h = reg.histogram(obs::kCostReadRatio);
  uint64_t count0 = h->count(), sum0 = h->sum();

  obs::OpTracer tracer(4);
  obs::CostEstimate model;
  model.leaf_reads = 1;
  Bytes page(4096);
  {
    obs::ScopedOp never_ok("test.cost_probe", 0, &dev, &tracer);
    never_ok.set_expected_cost(obs::CostOp::kRead, model);
    EOS_ASSERT_OK(dev.ReadPages(0, 1, page.data()));
  }
  EXPECT_EQ(h->count(), count0) << "no OK close, no sample";
  {
    obs::ScopedOp ok("test.cost_probe", 0, &dev, &tracer);
    ok.set_expected_cost(obs::CostOp::kRead, model);
    EOS_ASSERT_OK(dev.ReadPages(0, 1, page.data()));
    EOS_ASSERT_OK(ok.Close(Status::OK()));
  }
  EXPECT_EQ(h->count(), count0 + 1);
  EXPECT_EQ(h->sum(), sum0 + 100) << "1 transfer against 1 predicted";
  {
    obs::ScopedOp no_dev("test.cost_probe", 0, nullptr, &tracer);
    no_dev.set_expected_cost(obs::CostOp::kRead, model);
    no_dev.set_ok(true);
  }
  EXPECT_EQ(h->count(), count0 + 1) << "null device stays inert";
}

// A read that fails (here past the object's end) leaves the conformance
// histogram alone; the next successful read adds exactly one sample.
TEST(CostModelTest, FailedReadRecordsNoConformanceSample) {
  obs::Histogram* h =
      obs::MetricsRegistry::Default().histogram(obs::kCostReadRatio);
  Stack s = Stack::Make(4096, 4096);
  auto d = s.lob->CreateFrom(PatternBytes(3, 64 << 10));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  uint64_t count0 = h->count();
  Bytes out;
  Status st = s.lob->Read(*d, d->size() + 1, 100, &out);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  EXPECT_EQ(h->count(), count0);
  EOS_ASSERT_OK(s.lob->Read(*d, 0, 4096, &out));
  EXPECT_EQ(h->count(), count0 + 1);
}

TEST(CostModelTest, FreshObjectReadConformsWithinGate) {
  // End-to-end acceptance vector: on a freshly created object the
  // measured read I/O must stay within 1.25x of the Section 4.2 model
  // (the same gate bench_read_cost enforces at scale).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Histogram* h = reg.histogram(obs::kCostReadRatio);
  uint64_t count0 = h->count(), sum0 = h->sum();

  Stack s = Stack::Make(4096, 4096);
  auto d = s.lob->CreateFrom(PatternBytes(7, 1 << 20));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EOS_ASSERT_OK(s.pager->FlushAll());
  EOS_ASSERT_OK(s.pager->EvictAll());
  Bytes out;
  EOS_ASSERT_OK(s.lob->Read(*d, 0, d->size(), &out));

  ASSERT_GT(h->count(), count0) << "the read recorded a conformance sample";
  double mean_pct = static_cast<double>(h->sum() - sum0) /
                    static_cast<double>(h->count() - count0);
  EXPECT_LE(mean_pct, 125.0);
  EXPECT_GT(mean_pct, 0.0);
}

}  // namespace
}  // namespace eos
