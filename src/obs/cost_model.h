#ifndef EOS_OBS_COST_MODEL_H_
#define EOS_OBS_COST_MODEL_H_

#include <cstdint>

#include "io/io_stats.h"
#include "obs/metrics.h"

namespace eos {
namespace obs {

// The paper's analytic per-operation I/O cost model (Biliris, ICDE 1992,
// Sections 4.1-4.4), evaluated from the cheap facts an object's root
// already records: its size, its tree level, the manager's maximum segment
// size, and a utilization assumption. The estimates deliberately describe
// the *ideal* layout (utilization 1.0, maximal segments) — comparing them
// against the measured per-op I/O turns the 1992 formulas into a drift
// detector: a conformance ratio creeping above 1 means the physical layout
// has degraded away from the model (the fragmentation-aging signal of
// Sears/van Ingen).

// The shape facts the formulas consume. `depth` is the number of index
// levels below the client-held root (root.level in this codebase): a
// root whose entries point directly at segments has depth 0.
struct CostInputs {
  uint64_t object_bytes = 0;
  uint32_t depth = 0;
  uint32_t page_size = 4096;
  uint32_t max_segment_pages = 1;  // the manager's maximum leaf segment
  double utilization = 1.0;        // expected leaf utilization (fresh = 1)
};

// Expected physical I/O of one operation, split the way the paper argues:
// index-page accesses (always single-page, each potentially a seek) and
// leaf transfers (multi-page runs, roughly one seek per segment).
struct CostEstimate {
  double index_reads = 0;
  double index_writes = 0;
  double leaf_reads = 0;
  double leaf_writes = 0;
  double seeks = 0;

  double pages_read() const { return index_reads + leaf_reads; }
  double pages_written() const { return index_writes + leaf_writes; }
  double transfers() const { return pages_read() + pages_written(); }
};

// Section 4.2: reading `len` bytes at `offset` touches the pages that
// overlap the range (scaled by 1/utilization when leaves are not full),
// one descent of `depth` index nodes per segment boundary crossed, and
// one seek per segment plus one per index node.
CostEstimate ExpectedReadCost(const CostInputs& in, uint64_t offset,
                              uint64_t len);

// Section 4.3.1 / 4.4: an insert reads one or two pages of the original
// leaf segment (plus up to threshold-1 more when page reshuffling makes
// the new segment safe), writes the new bytes as fresh segments, and
// rewrites the index spine.
CostEstimate ExpectedInsertCost(const CostInputs& in, uint64_t len,
                                uint32_t threshold_pages);

// Section 4.1: an append writes ceil(len/PS) fresh pages, re-reads and
// rewrites the partial trailing page, and rewrites the index spine.
CostEstimate ExpectedAppendCost(const CostInputs& in, uint64_t len);

// Section 4.3.2: a page-aligned delete touches no leaf page at all; a
// general delete reads/writes the one or two boundary pages (plus up to
// threshold-1 reshuffled pages) and rewrites the index spine.
CostEstimate ExpectedDeleteCost(const CostInputs& in, uint64_t offset,
                                uint64_t len, uint32_t threshold_pages);

// ----- conformance telemetry -------------------------------------------------

// Operation classes the conformance histograms are keyed by.
enum class CostOp : uint8_t { kRead = 0, kInsert, kAppend, kDelete };

const char* CostOpName(CostOp op);  // "read", "insert", ...

// Records one op's predicted-vs-actual page I/O into the registry (a span
// with an expected cost calls it when it closes OK; see ScopedOp):
//   cost.<op>_actual_over_model   histogram of 100 * actual / model
//   cost.model_pages              histogram of predicted transfers
//   cost.actual_pages             histogram of measured transfers
// A ratio persistently above 100 is the fragmentation early-warning
// (ROADMAP item 4). No-op when observability is disabled.
void RecordConformance(CostOp op, const CostEstimate& model,
                       const IoStats& actual);

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_COST_MODEL_H_
