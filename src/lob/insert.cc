// Byte-range insert (Section 4.3.1) with page reshuffling under the
// segment size threshold (Section 4.4), and the one-shot append path.

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/math.h"
#include "lob/leaf_io.h"
#include "lob/lob_manager.h"
#include "lob/reshuffle.h"
#include "obs/op_tracer.h"
#include "txn/log_manager.h"

namespace eos {

Status LobManager::Insert(LobDescriptor* d, uint64_t offset, ByteView data) {
  obs::ScopedOp span("lob.insert", 0, device());
  span.set_expected_cost(
      obs::CostOp::kInsert,
      obs::ExpectedInsertCost(CostFacts(*d), data.size(),
                              config_.threshold_pages));
  return span.Close(
      RunGuarded(d, "lob.insert", [&] { return InsertImpl(d, offset, data); }));
}

Status LobManager::InsertImpl(LobDescriptor* d, uint64_t offset,
                              ByteView data) {
  if (offset > d->size()) {
    return Status::OutOfRange("insert offset beyond object size");
  }
  if (data.empty()) return Status::OK();
  if (offset == d->size()) return Append(d, data);
  if (log_ != nullptr) {
    EOS_RETURN_IF_ERROR(log_->LogInsert(d, offset, data));
  }

  const uint32_t ps = page_size();
  std::vector<PathLevel> path;
  LobEntry e;
  uint64_t local = 0;
  EOS_RETURN_IF_ERROR(store_.DescendToLeaf(*d, offset, &path, &e, &local));
  const LeafRef leaf = LeafOf(e);

  // Step 2 (preparation): carve S into L | page P | R around byte B.
  const uint64_t sc = leaf.bytes;
  const uint64_t sp = leaf.extent.pages;
  const uint64_t p = local / ps;   // page of S holding byte B
  const uint64_t pb = local % ps;  // byte within P where insertion starts
  const uint64_t pc = (p == sp - 1) ? sc - p * ps : ps;  // bytes stored in P
  const uint64_t lc = p * ps + pb;
  const uint64_t rc = (p == sp - 1) ? 0 : sc - (p + 1) * ps;
  const uint64_t nc = data.size() + (pc - pb);

  // Step 3: byte + page reshuffling.
  ReshuffleInput in;
  in.lc = lc;
  in.nc = nc;
  in.rc = rc;
  in.page_size = ps;
  in.threshold = EffectiveThreshold(*d, path.back().node.entries.size());
  in.max_segment_pages = max_segment_pages_;
  ReshufflePlan plan = PlanReshuffle(in);

  // Step 4: read the affected pages of S (one physically contiguous access
  // unless R contributes from beyond a gap), assemble N, write it out.
  std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {plan.lc, lc},                          // bytes migrating from L's tail
      {local, p * ps + pc},                   // P's suffix at/after Pb
      {(p + 1) * ps, (p + 1) * ps + plan.from_r},  // bytes from R's head
  };
  std::vector<Bytes> parts;
  EOS_RETURN_IF_ERROR(lob_internal::ReadLeafRuns(
      device(), ps, leaf.extent.first, ranges, &parts));

  Bytes nbuf;
  nbuf.reserve(plan.nc);
  nbuf.insert(nbuf.end(), parts[0].begin(), parts[0].end());
  nbuf.insert(nbuf.end(), data.data(), data.data() + data.size());
  nbuf.insert(nbuf.end(), parts[1].begin(), parts[1].end());
  nbuf.insert(nbuf.end(), parts[2].begin(), parts[2].end());
  assert(nbuf.size() == plan.nc);
  EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> mid, WriteSegments(nbuf));

  // Free the pages of S that ended up in N: everything between the
  // surviving L prefix and the surviving R suffix.
  const uint64_t l_pages = LeafPages(plan.lc);
  const uint64_t r_shift =
      rc == 0 ? 0
              : (plan.rc == 0 ? sp - (p + 1) : plan.from_r / ps);
  const uint64_t freed_lo = l_pages;
  const uint64_t freed_hi = p + 1 + r_shift;
  if (freed_hi > freed_lo) {
    EOS_RETURN_IF_ERROR(allocator()->Free(
        Extent{leaf.extent.first + freed_lo,
               static_cast<uint32_t>(freed_hi - freed_lo)}));
  }

  // Step 5: fix the parent with entries for L, N, R and propagate.
  std::vector<LobEntry> repl;
  if (plan.lc > 0) repl.push_back(LobEntry{plan.lc, leaf.extent.first});
  repl.insert(repl.end(), mid.begin(), mid.end());
  if (plan.rc > 0) {
    repl.push_back(
        LobEntry{plan.rc, leaf.extent.first + p + 1 + r_shift});
  }
  return Splice(d, &path, std::move(repl));
}

Status LobManager::Append(LobDescriptor* d, ByteView data) {
  obs::ScopedOp span("lob.append", 0, device());
  span.set_expected_cost(obs::CostOp::kAppend,
                         obs::ExpectedAppendCost(CostFacts(*d), data.size()));
  return span.Close(
      RunGuarded(d, "lob.append", [&] { return AppendImpl(d, data); }));
}

Status LobManager::AppendImpl(LobDescriptor* d, ByteView data) {
  if (data.empty()) return Status::OK();
  if (log_ != nullptr) {
    EOS_RETURN_IF_ERROR(log_->LogAppend(d, data));
  }
  const uint32_t ps = page_size();
  if (d->empty()) {
    EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> segs, WriteSegments(data));
    d->root.level = 0;
    d->root.entries = std::move(segs);
    return store_.FitRoot(d);
  }
  std::vector<PathLevel> path;
  LobEntry e;
  uint64_t local = 0;
  EOS_RETURN_IF_ERROR(
      store_.DescendToLeaf(*d, d->size() - 1, &path, &e, &local));
  const LeafRef leaf = LeafOf(e);

  const uint64_t lm = leaf.bytes % ps;  // bytes in the partial last page
  std::vector<LobEntry> repl;
  if (lm == 0) {
    // The last page is full: simply add new segments after the last leaf.
    EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> segs, WriteSegments(data));
    repl.push_back(LobEntry{leaf.bytes, leaf.extent.first});
    repl.insert(repl.end(), segs.begin(), segs.end());
  } else {
    // Move the partial tail into the new segment instead of overwriting the
    // last leaf page (Section 4.5: append never overwrites leaf pages).
    Bytes buf(lm + data.size());
    EOS_RETURN_IF_ERROR(
        ReadLeafBytes(leaf, leaf.bytes - lm, leaf.bytes, buf.data()));
    std::memcpy(buf.data() + lm, data.data(), data.size());
    EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> segs, WriteSegments(buf));
    // Trim the now-unused last page of the old leaf.
    EOS_RETURN_IF_ERROR(allocator()->Free(
        Extent{leaf.extent.first + leaf.extent.pages - 1, 1}));
    if (leaf.bytes > lm) {
      repl.push_back(LobEntry{leaf.bytes - lm, leaf.extent.first});
    }
    repl.insert(repl.end(), segs.begin(), segs.end());
  }
  EOS_RETURN_IF_ERROR(Splice(d, &path, std::move(repl)));
  return RepairUnderflow(d, d->size() - 1);
}

}  // namespace eos
