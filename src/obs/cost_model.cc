#include "obs/cost_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metric_names.h"

namespace eos {
namespace obs {

namespace {

double CeilDiv(double a, double b) { return std::ceil(a / b); }

// Pages overlapped by [offset, offset+len) at the given page size.
double PagesSpanned(uint64_t offset, uint64_t len, uint32_t ps) {
  if (len == 0) return 0;
  uint64_t first = offset / ps;
  uint64_t last = (offset + len - 1) / ps;
  return static_cast<double>(last - first + 1);
}

}  // namespace

CostEstimate ExpectedReadCost(const CostInputs& in, uint64_t offset,
                              uint64_t len) {
  CostEstimate e;
  if (in.object_bytes == 0 || len == 0) return e;
  len = std::min(len, in.object_bytes - std::min(offset, in.object_bytes));
  if (len == 0) return e;
  double u = in.utilization > 0 ? std::min(in.utilization, 1.0) : 1.0;
  // Leaf transfers: the pages overlapping the range; when leaves run at
  // utilization u the same bytes occupy 1/u as many pages (Section 4.4's
  // "storage utilization" is exactly bytes / leaf pages).
  e.leaf_reads = PagesSpanned(offset, len, in.page_size) / u;
  // Segments touched: one per max-size extent the range spans, plus one
  // for straddling a boundary at each end's partial segment.
  double max_seg = std::max<double>(in.max_segment_pages, 1);
  double segments = CeilDiv(e.leaf_reads, max_seg) + 1;
  // Descent reads one index node per level; each additional segment
  // re-walks at most the same spine (Section 4.2's h single-page accesses
  // per boundary). Buffered ancestors make this an upper bound.
  e.index_reads = static_cast<double>(in.depth) * segments;
  // One seek per segment (its pages are physically contiguous) and one
  // per index node, the paper's seek accounting.
  e.seeks = segments + e.index_reads;
  return e;
}

CostEstimate ExpectedInsertCost(const CostInputs& in, uint64_t len,
                                uint32_t threshold_pages) {
  CostEstimate e;
  if (len == 0) return e;
  double t = std::max<double>(threshold_pages, 1);
  // "One or two (physically adjacent) pages from the original leaf segment
  // have to be read" (4.3.1); page reshuffling may pull up to T-1 more
  // from within the segment to make the new neighbour safe (4.4).
  e.leaf_reads = 2 + (t - 1);
  // The new bytes land in fresh segments; the cut leaf halves are written
  // back (at most 2 pages), and reshuffled pages are rewritten too.
  e.leaf_writes = CeilDiv(static_cast<double>(len), in.page_size) + 2 + (t - 1);
  // The spine is read on descent and written back bottom-up, with at most
  // one split per level plus root growth.
  e.index_reads = in.depth;
  e.index_writes = in.depth + 2;
  // Allocation-map directory pages for the new segments (Section 3): one
  // read-modify-write per allocation, amortized ~2 pages.
  e.index_writes += 2;
  e.seeks = 2 /* leaf in+out */ + e.index_reads + e.index_writes;
  return e;
}

CostEstimate ExpectedAppendCost(const CostInputs& in, uint64_t len) {
  CostEstimate e;
  if (len == 0) return e;
  // Fresh pages for the appended bytes plus the re-written partial
  // trailing page (read, filled, written back) — Section 4.1.
  e.leaf_reads = 1;
  e.leaf_writes = CeilDiv(static_cast<double>(len), in.page_size) + 1;
  e.index_reads = in.depth;
  e.index_writes = in.depth + 2;
  e.index_writes += 2;  // allocation-map directory pages
  e.seeks = 2 + e.index_reads + e.index_writes;
  return e;
}

CostEstimate ExpectedDeleteCost(const CostInputs& in, uint64_t offset,
                                uint64_t len, uint32_t threshold_pages) {
  CostEstimate e;
  if (len == 0 || in.object_bytes == 0) return e;
  double t = std::max<double>(threshold_pages, 1);
  uint64_t end = offset + std::min(len, in.object_bytes - offset);
  bool lo_aligned = offset % in.page_size == 0;
  bool hi_aligned = end % in.page_size == 0 || end == in.object_bytes;
  // "Deletions where the last byte ... happens to be the last byte of a
  // page can be completed without accessing any segment" (4.3.2): interior
  // whole segments are dropped through the index alone. Only ragged range
  // ends touch leaves — one page each, plus up to T-1 reshuffled pages.
  double ragged = (lo_aligned ? 0 : 1) + (hi_aligned ? 0 : 1);
  if (ragged > 0) {
    e.leaf_reads = ragged + (t - 1);
    e.leaf_writes = ragged + (t - 1);
  }
  // The spine rewrite may splice at every level; freed segments return to
  // the allocation maps (~2 directory pages).
  e.index_reads = in.depth;
  e.index_writes = in.depth + 2 + 2;
  e.seeks = ragged + e.index_reads + e.index_writes;
  return e;
}

// ----- conformance telemetry -------------------------------------------------

const char* CostOpName(CostOp op) {
  switch (op) {
    case CostOp::kRead:
      return "read";
    case CostOp::kInsert:
      return "insert";
    case CostOp::kAppend:
      return "append";
    case CostOp::kDelete:
      return "delete";
  }
  return "unknown";
}

namespace {

struct ConformanceMetrics {
  Histogram* ratio[4];
  Histogram* model_pages;
  Histogram* actual_pages;
  Counter* ops;
};

const ConformanceMetrics& Metrics() {
  static ConformanceMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    auto* mm = new ConformanceMetrics();
    mm->ratio[static_cast<int>(CostOp::kRead)] =
        r.histogram(kCostReadRatio);
    mm->ratio[static_cast<int>(CostOp::kInsert)] =
        r.histogram(kCostInsertRatio);
    mm->ratio[static_cast<int>(CostOp::kAppend)] =
        r.histogram(kCostAppendRatio);
    mm->ratio[static_cast<int>(CostOp::kDelete)] =
        r.histogram(kCostDeleteRatio);
    mm->model_pages = r.histogram(kCostModelPages);
    mm->actual_pages = r.histogram(kCostActualPages);
    mm->ops = r.counter(kCostOpsCompared);
    return mm;
  }();
  return *m;
}

}  // namespace

void RecordConformance(CostOp op, const CostEstimate& model,
                       const IoStats& actual) {
  if (!Enabled()) return;
  double predicted = model.transfers();
  if (predicted < 1.0) predicted = 1.0;  // never divide by a zero estimate
  uint64_t measured = actual.transfers();
  uint64_t ratio_pct = static_cast<uint64_t>(
      std::llround(100.0 * static_cast<double>(measured) / predicted));
  const ConformanceMetrics& m = Metrics();
  m.ratio[static_cast<int>(op)]->Record(ratio_pct);
  m.model_pages->Record(static_cast<uint64_t>(std::llround(predicted)));
  m.actual_pages->Record(measured);
  m.ops->Inc();
}

}  // namespace obs
}  // namespace eos
