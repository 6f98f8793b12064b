// Byte-range delete (Section 4.3.2) with page reshuffling (Section 4.4).
//
// Phase 1 resolves the boundary leaves S (containing the first deleted
// byte) and S' (containing the last), computes L / N / R, reshuffles,
// writes the new segment N and frees the vacated leaf pages. Phase 2 walks
// the tree once, freeing wholly deleted subtrees from their parents'
// entries alone (no leaf access) and splicing the boundary replacements in,
// merging or rotating underfull nodes with siblings on the way back up.

#include <algorithm>
#include <cassert>

#include "common/math.h"
#include "lob/leaf_io.h"
#include "lob/lob_manager.h"
#include "lob/reshuffle.h"
#include "obs/op_tracer.h"
#include "txn/log_manager.h"

namespace eos {

struct LobManager::LeafSubst {
  PageId s_page = kInvalidPage;   // first page of S (left boundary leaf)
  PageId s2_page = kInvalidPage;  // first page of S' (right boundary leaf)
  std::vector<LobEntry> left;     // L (0 or 1 entries)
  std::vector<LobEntry> mid;      // N segment(s), placed at S's position
  std::vector<LobEntry> right;    // R (0 or 1 entries)
};

Status LobManager::RepairUnderflow(LobDescriptor* d, uint64_t offset) {
  if (d->empty() || d->root.level == 0) return Status::OK();
  offset = std::min(offset, d->size() - 1);
  // Each round fixes the highest violation on the path; a fix at level L
  // gives the node at L-1 siblings to merge with next round.
  for (int guard = 0; guard < 128; ++guard) {
    std::vector<PathLevel> path;
    LobEntry leaf;
    uint64_t local = 0;
    EOS_RETURN_IF_ERROR(
        store_.DescendToLeaf(*d, offset, &path, &leaf, &local));
    size_t bad = path.size();
    for (size_t i = 1; i < path.size(); ++i) {
      if (path[i].node.entries.size() < 2 &&
          path[i - 1].node.entries.size() >= 2) {
        bad = i;
        break;
      }
    }
    if (bad == path.size()) return Status::OK();
    PathLevel& parent = path[bad - 1];
    EOS_RETURN_IF_ERROR(
        FixUnderfullChild(&parent.node, parent.child_idx));
    if (bad == 1) {
      d->root = std::move(parent.node);
      EOS_RETURN_IF_ERROR(store_.CollapseRoot(d));
    } else {
      EOS_ASSIGN_OR_RETURN(
          std::vector<LobEntry> repl,
          store_.WriteNodeMaybeSplit(parent.page, std::move(parent.node)));
      path.resize(bad - 1);
      EOS_RETURN_IF_ERROR(Splice(d, &path, std::move(repl)));
    }
  }
  return Status::OK();
}

Status LobManager::RepairJunction(LobNode* node, size_t junction) {
  if (node->level == 0) return Status::OK();  // children are segments
  // Check the two children adjacent to the junction; a fix can shift the
  // position by one, so loop a few bounded rounds.
  for (int round = 0; round < 4; ++round) {
    if (node->entries.size() < 2) return Status::OK();
    bool fixed = false;
    size_t candidates[2] = {junction > 0 ? junction - 1 : 0,
                            std::min(junction,
                                     node->entries.size() - 1)};
    for (size_t j : candidates) {
      if (j >= node->entries.size()) continue;
      EOS_ASSIGN_OR_RETURN(LobNode child,
                           store_.Load(node->entries[j].page));
      if (child.entries.size() < 2) {
        EOS_RETURN_IF_ERROR(FixUnderfullChild(node, j));
        fixed = true;
        break;
      }
    }
    if (!fixed) break;
  }
  return Status::OK();
}

Status LobManager::FixUnderfullChild(LobNode* parent, size_t idx) {
  if (parent->entries.size() < 2) {
    // No sibling to merge with; the single-entry chain dissolves at the
    // root (CollapseRoot), via RepairJunction when an ancestor merges, or
    // on the next update touching this path. See DESIGN.md.
    return Status::OK();
  }
  size_t li = idx > 0 ? idx - 1 : idx;
  size_t ri = li + 1;
  PageId lpage = parent->entries[li].page;
  PageId rpage = parent->entries[ri].page;
  EOS_ASSIGN_OR_RETURN(LobNode lnode, store_.Load(lpage));
  EOS_ASSIGN_OR_RETURN(LobNode rnode, store_.Load(rpage));
  size_t ln = lnode.entries.size();
  if (ln + rnode.entries.size() <= store_.capacity()) {
    // Merge right into left, then repair the junction: a merged-in
    // single-entry node may carry an underfull child of its own.
    lnode.entries.insert(lnode.entries.end(), rnode.entries.begin(),
                         rnode.entries.end());
    EOS_RETURN_IF_ERROR(RepairJunction(&lnode, ln));
    EOS_RETURN_IF_ERROR(store_.Write(&lpage, lnode));
    EOS_RETURN_IF_ERROR(store_.FreePage(rpage));
    parent->entries[li] = LobEntry{lnode.Total(), lpage};
    parent->entries.erase(parent->entries.begin() + ri);
    return Status::OK();
  }
  // Rotate: redistribute entries evenly between the two siblings, then
  // repair whichever side inherited the junction.
  std::vector<LobEntry> all(std::move(lnode.entries));
  all.insert(all.end(), rnode.entries.begin(), rnode.entries.end());
  size_t half = all.size() / 2;
  lnode.entries.assign(all.begin(), all.begin() + half);
  rnode.entries.assign(all.begin() + half, all.end());
  if (ln <= half) {
    EOS_RETURN_IF_ERROR(RepairJunction(&lnode, ln));
  }
  if (ln >= half) {
    EOS_RETURN_IF_ERROR(RepairJunction(&rnode, ln - half));
  }
  EOS_RETURN_IF_ERROR(store_.Write(&lpage, lnode));
  EOS_RETURN_IF_ERROR(store_.Write(&rpage, rnode));
  parent->entries[li] = LobEntry{lnode.Total(), lpage};
  parent->entries[ri] = LobEntry{rnode.Total(), rpage};
  return Status::OK();
}

StatusOr<LobNode> LobManager::DeleteInNode(LobNode node, uint64_t lo,
                                           uint64_t hi,
                                           const LeafSubst& subst) {
  const uint64_t total = node.Total();
  (void)total;
  assert(lo < hi && hi <= total && (lo > 0 || hi < total));
  uint64_t off_l = lo;
  int il = node.FindChild(&off_l);
  uint64_t off_r = hi - 1;
  int ir = node.FindChild(&off_r);
  assert(il <= ir);
  const uint32_t min_entries = std::max<uint32_t>(2, store_.min_entries());

  if (node.level == 0) {
    // Leaf-parent: splice the precomputed boundary replacements and free
    // the fully deleted leaves in between (their addresses and sizes come
    // from this node's entries alone — no leaf page is touched).
    std::vector<LobEntry> spliced(node.entries.begin(),
                                  node.entries.begin() + il);
    for (int j = il; j <= ir; ++j) {
      const LobEntry& e = node.entries[j];
      // N (mid) is anchored at S''s position: when N is non-empty, S' has
      // surviving bytes past the deletion end, so its subtree is never
      // dropped wholesale — unlike S's, whose subtree vanishes entirely
      // when the deletion starts at its first byte.
      if (e.page == subst.s_page) {
        spliced.insert(spliced.end(), subst.left.begin(), subst.left.end());
        if (subst.s2_page == subst.s_page) {
          spliced.insert(spliced.end(), subst.mid.begin(), subst.mid.end());
          spliced.insert(spliced.end(), subst.right.begin(),
                         subst.right.end());
        }
      } else if (e.page == subst.s2_page) {
        spliced.insert(spliced.end(), subst.mid.begin(), subst.mid.end());
        spliced.insert(spliced.end(), subst.right.begin(),
                       subst.right.end());
      } else {
        EOS_RETURN_IF_ERROR(FreeSubtree(e, 0, subst.s_page, subst.s2_page));
      }
    }
    spliced.insert(spliced.end(), node.entries.begin() + ir + 1,
                   node.entries.end());
    node.entries = std::move(spliced);
    return node;
  }

  // Internal node: free wholly deleted child subtrees.
  for (int j = il + 1; j < ir; ++j) {
    EOS_RETURN_IF_ERROR(FreeSubtree(node.entries[j], node.level, subst.s_page,
                                    subst.s2_page));
  }

  if (il == ir) {
    const LobEntry e = node.entries[il];
    uint64_t lo_c = off_l;
    uint64_t hi_c = hi - (lo - off_l);  // hi rebased to the child
    if (lo_c == 0 && hi_c == e.count) {
      // The child is wholly deleted (boundary substitutions are provably
      // empty in this case — surviving bytes would extend the range).
      EOS_RETURN_IF_ERROR(
          FreeSubtree(e, node.level, subst.s_page, subst.s2_page));
      node.entries.erase(node.entries.begin() + il);
      return node;
    }
    EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(e.page));
    EOS_ASSIGN_OR_RETURN(LobNode res,
                         DeleteInNode(std::move(child), lo_c, hi_c, subst));
    size_t res_n = res.entries.size();
    EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> repl,
                         store_.WriteNodeMaybeSplit(e.page, std::move(res)));
    node.entries.erase(node.entries.begin() + il);
    node.entries.insert(node.entries.begin() + il, repl.begin(), repl.end());
    if (repl.size() == 1 && res_n < min_entries) {
      EOS_RETURN_IF_ERROR(FixUnderfullChild(&node, il));
    }
    return node;
  }

  // Boundaries in different children: recurse into each side.
  const LobEntry el = node.entries[il];
  const LobEntry er = node.entries[ir];
  uint64_t lo_c = off_l;            // deletion start within left child
  uint64_t hi_r = off_r + 1;        // deletion end within right child
  bool have_l = lo_c > 0;
  bool have_r = hi_r < er.count;
  LobNode lres, rres;
  if (have_l) {
    EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(el.page));
    EOS_ASSIGN_OR_RETURN(
        lres, DeleteInNode(std::move(child), lo_c, el.count, subst));
  } else {
    EOS_RETURN_IF_ERROR(
        FreeSubtree(el, node.level, subst.s_page, subst.s2_page));
  }
  if (have_r) {
    EOS_ASSIGN_OR_RETURN(LobNode child, store_.Load(er.page));
    EOS_ASSIGN_OR_RETURN(rres,
                         DeleteInNode(std::move(child), 0, hi_r, subst));
  } else {
    EOS_RETURN_IF_ERROR(
        FreeSubtree(er, node.level, subst.s_page, subst.s2_page));
  }

  std::vector<LobEntry> repl;
  bool check_underflow = false;
  if (have_l && have_r) {
    // The two boundary children become adjacent. Concatenating and letting
    // the splitter rebalance handles every size combination: a small merge
    // becomes one node, an underfull neighbor is topped up, and a child
    // that outgrew its page (new N entries) is split.
    size_t junction = lres.entries.size();
    lres.entries.insert(lres.entries.end(), rres.entries.begin(),
                        rres.entries.end());
    EOS_RETURN_IF_ERROR(RepairJunction(&lres, junction));
    size_t n = lres.entries.size();
    EOS_RETURN_IF_ERROR(store_.FreePage(er.page));
    EOS_ASSIGN_OR_RETURN(
        repl, store_.WriteNodeMaybeSplit(el.page, std::move(lres)));
    check_underflow = repl.size() == 1 && n < min_entries;
  } else if (have_l || have_r) {
    LobNode& res = have_l ? lres : rres;
    PageId orig = have_l ? el.page : er.page;
    size_t n = res.entries.size();
    EOS_ASSIGN_OR_RETURN(repl,
                         store_.WriteNodeMaybeSplit(orig, std::move(res)));
    check_underflow = repl.size() == 1 && n < min_entries;
  }
  node.entries.erase(node.entries.begin() + il,
                     node.entries.begin() + ir + 1);
  node.entries.insert(node.entries.begin() + il, repl.begin(), repl.end());
  if (check_underflow) {
    EOS_RETURN_IF_ERROR(FixUnderfullChild(&node, il));
  }
  return node;
}

Status LobManager::Delete(LobDescriptor* d, uint64_t offset, uint64_t n) {
  obs::ScopedOp span("lob.delete", 0, device());
  span.set_expected_cost(obs::CostOp::kDelete,
                         obs::ExpectedDeleteCost(CostFacts(*d), offset, n,
                                                 config_.threshold_pages));
  return span.Close(
      RunGuarded(d, "lob.delete", [&] { return DeleteImpl(d, offset, n); }));
}

Status LobManager::DeleteImpl(LobDescriptor* d, uint64_t offset, uint64_t n) {
  if (offset > d->size()) {
    return Status::OutOfRange("delete offset beyond object size");
  }
  n = std::min(n, d->size() - offset);
  if (n == 0) return Status::OK();
  if (log_ != nullptr) {
    Bytes old;
    EOS_RETURN_IF_ERROR(Read(*d, offset, n, &old));
    EOS_RETURN_IF_ERROR(log_->LogDelete(d, offset, old));
  }
  const uint64_t start = offset;
  const uint64_t end = offset + n;
  if (start == 0 && end == d->size()) {
    // Object truncation at byte 0: equivalent to deleting the object;
    // no segment page is accessed (Section 4.3.2).
    ScopedLogSuspend suspend(this);  // already logged above
    return Destroy(d);
  }

  const uint32_t ps = page_size();
  std::vector<PathLevel> path_l, path_r;
  LobEntry e_l, e_r;
  uint64_t local_l = 0, local_r = 0;
  EOS_RETURN_IF_ERROR(store_.DescendToLeaf(*d, start, &path_l, &e_l, &local_l));
  EOS_RETURN_IF_ERROR(
      store_.DescendToLeaf(*d, end - 1, &path_r, &e_r, &local_r));
  const LeafRef leaf_l = LeafOf(e_l), leaf_r = LeafOf(e_r);
  const bool same_leaf = leaf_l.extent.first == leaf_r.extent.first;

  // Step 2: L from S around page P; N and R from S' around page Q.
  const uint64_t p = local_l / ps;
  const uint64_t pb = local_l % ps;
  const uint64_t lc = p * ps + pb;
  const uint64_t s2c = leaf_r.bytes;
  const uint64_t s2p = leaf_r.extent.pages;
  const uint64_t q = local_r / ps;
  const uint64_t qb = local_r % ps;
  const uint64_t qc = (q == s2p - 1) ? s2c - q * ps : ps;
  const uint64_t nc = qc - (qb + 1);
  const uint64_t rc = (q == s2p - 1) ? 0 : s2c - (q + 1) * ps;

  ReshuffleInput in;
  in.lc = lc;
  in.nc = nc;
  in.rc = rc;
  in.page_size = ps;
  in.threshold = EffectiveThreshold(*d, path_l.back().node.entries.size());
  in.max_segment_pages = max_segment_pages_;
  ReshufflePlan plan = PlanReshuffle(in);

  // Steps 3-4: gather N's bytes (from L's tail, Q's suffix, R's head),
  // write N, then free the vacated leaf pages.
  Bytes nbuf;
  if (plan.nc > 0) {
    std::vector<std::pair<uint64_t, uint64_t>> l_ranges = {{plan.lc, lc}};
    std::vector<std::pair<uint64_t, uint64_t>> r_ranges = {
        {q * ps + qb + 1, q * ps + qc},
        {(q + 1) * ps, (q + 1) * ps + plan.from_r},
    };
    std::vector<Bytes> parts;
    if (same_leaf) {
      std::vector<std::pair<uint64_t, uint64_t>> ranges = {
          l_ranges[0], r_ranges[0], r_ranges[1]};
      EOS_RETURN_IF_ERROR(lob_internal::ReadLeafRuns(
          device(), ps, leaf_l.extent.first, ranges, &parts));
    } else {
      std::vector<Bytes> lparts, rparts;
      EOS_RETURN_IF_ERROR(lob_internal::ReadLeafRuns(
          device(), ps, leaf_l.extent.first, l_ranges, &lparts));
      EOS_RETURN_IF_ERROR(lob_internal::ReadLeafRuns(
          device(), ps, leaf_r.extent.first, r_ranges, &rparts));
      parts = {std::move(lparts[0]), std::move(rparts[0]),
               std::move(rparts[1])};
    }
    nbuf.reserve(plan.nc);
    for (const Bytes& part : parts) {
      nbuf.insert(nbuf.end(), part.begin(), part.end());
    }
    assert(nbuf.size() == plan.nc);
  }
  EOS_ASSIGN_OR_RETURN(std::vector<LobEntry> mid, WriteSegments(nbuf));

  const uint64_t l_pages = LeafPages(plan.lc);
  const uint64_t r_shift =
      rc == 0 ? 0 : (plan.rc == 0 ? s2p - (q + 1) : plan.from_r / ps);
  const uint64_t r_keep = q + 1 + r_shift;  // first surviving page of S'
  if (same_leaf) {
    if (r_keep > l_pages) {
      EOS_RETURN_IF_ERROR(allocator()->Free(
          Extent{leaf_l.extent.first + l_pages,
                 static_cast<uint32_t>(r_keep - l_pages)}));
    }
  } else {
    if (leaf_l.extent.pages > l_pages) {
      EOS_RETURN_IF_ERROR(allocator()->Free(
          Extent{leaf_l.extent.first + l_pages,
                 static_cast<uint32_t>(leaf_l.extent.pages - l_pages)}));
    }
    if (r_keep > 0) {
      EOS_RETURN_IF_ERROR(allocator()->Free(
          Extent{leaf_r.extent.first, static_cast<uint32_t>(r_keep)}));
    }
  }

  LeafSubst subst;
  subst.s_page = leaf_l.extent.first;
  subst.s2_page = leaf_r.extent.first;
  if (plan.lc > 0) {
    subst.left.push_back(LobEntry{plan.lc, leaf_l.extent.first});
  }
  subst.mid = std::move(mid);
  if (plan.rc > 0) {
    subst.right.push_back(LobEntry{plan.rc, leaf_r.extent.first + r_keep});
  }

  // Step 5: tree surgery + count propagation; step 6: root fix.
  EOS_ASSIGN_OR_RETURN(LobNode new_root,
                       DeleteInNode(std::move(d->root), start, end, subst));
  d->root = std::move(new_root);
  EOS_RETURN_IF_ERROR(store_.FitRoot(d));
  EOS_RETURN_IF_ERROR(store_.CollapseRoot(d));
  // The cut's two sides (bytes start-1 and start) may live in different
  // subtrees; repair the path to each.
  if (start > 0) {
    EOS_RETURN_IF_ERROR(RepairUnderflow(d, start - 1));
  }
  return RepairUnderflow(d, start);
}

}  // namespace eos
