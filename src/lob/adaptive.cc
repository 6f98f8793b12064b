// [Bili91a] extension: when a leaf-parent index node is about to split,
// scan it and coalesce every run of two or more logically adjacent unsafe
// segments (fewer than T pages each) into a single larger segment. Fewer
// leaf entries mean fewer index pages and a shorter tree, which improves
// every operation (Section 4.4, last paragraph).

#include <cassert>

#include "common/math.h"
#include "lob/lob_manager.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace eos {

Status LobManager::CompactUnsafeRuns(LobNode* leaf_parent) {
  assert(leaf_parent->level == 0);
  static obs::Counter* runs =
      obs::MetricsRegistry::Default().counter(obs::kLobCompactUnsafeRuns);
  runs->Inc();
  const uint32_t t = config_.threshold_pages;
  std::vector<LobEntry> out;
  out.reserve(leaf_parent->entries.size());
  size_t i = 0;
  while (i < leaf_parent->entries.size()) {
    EOS_RETURN_IF_ERROR(ScopedOpContext::CheckCurrent("lob.compact_runs"));
    if (LeafPages(leaf_parent->entries[i].count) >= t) {
      out.push_back(leaf_parent->entries[i]);
      ++i;
      continue;
    }
    size_t j = i;
    uint64_t run_bytes = 0;
    while (j < leaf_parent->entries.size() &&
           LeafPages(leaf_parent->entries[j].count) < t) {
      run_bytes += leaf_parent->entries[j].count;
      ++j;
    }
    if (j - i < 2) {
      out.push_back(leaf_parent->entries[i]);
      ++i;
      continue;
    }
    // Gather the run's bytes, write them as one segment (or a minimal
    // sequence if the run exceeds the maximum segment size), free the old
    // small segments.
    Bytes buf(run_bytes);
    uint64_t pos = 0;
    for (size_t k = i; k < j; ++k) {
      const LobEntry& e = leaf_parent->entries[k];
      EOS_RETURN_IF_ERROR(
          ReadLeafBytes(LeafOf(e), 0, e.count, buf.data() + pos));
      pos += e.count;
    }
    EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> merged, WriteSegments(buf));
    for (size_t k = i; k < j; ++k) {
      const LobEntry& e = leaf_parent->entries[k];
      EOS_RETURN_IF_ERROR(
          allocator()->Free(Extent{e.page, LeafPages(e.count)}));
    }
    out.insert(out.end(), merged.begin(), merged.end());
    i = j;
  }
  leaf_parent->entries = std::move(out);
  return Status::OK();
}

}  // namespace eos
