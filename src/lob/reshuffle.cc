#include "lob/reshuffle.h"

#include <cassert>

#include "common/math.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span_counts.h"

namespace eos {

namespace {

uint64_t Pages(uint64_t bytes, uint32_t ps) { return CeilDiv(bytes, ps); }

}  // namespace

ReshufflePlan PlanReshuffle(const ReshuffleInput& in) {
  const uint32_t ps = in.page_size;
  const uint64_t max_bytes = uint64_t{in.max_segment_pages} * ps;
  assert(ps > 0 && in.max_segment_pages > 0);
  assert(in.threshold <= in.max_segment_pages);

  static obs::Counter* plans =
      obs::MetricsRegistry::Default().counter(obs::kLobReshufflePlans);
  static obs::Counter* page_mode =
      obs::MetricsRegistry::Default().counter(obs::kLobReshufflePageMode);
  static obs::Counter* byte_mode =
      obs::MetricsRegistry::Default().counter(obs::kLobReshuffleByteMode);
  static obs::Histogram* moved =
      obs::MetricsRegistry::Default().histogram(obs::kLobReshuffleMovedBytes);
  plans->Inc();
  obs::ChargeSpan(obs::SpanCounter::kReshuffles);

  ReshufflePlan plan;
  plan.lc = in.lc;
  plan.nc = in.nc;
  plan.rc = in.rc;
  // "If Nc = 0, go to step 5": nothing is being materialized.
  if (in.nc == 0) return plan;

  auto unsafe = [&](uint64_t c) {
    return c > 0 && Pages(c, ps) < in.threshold;
  };

  // Page reshuffling loop (Section 4.4, steps 3.1 - 3.3).
  for (;;) {
    bool l_un = unsafe(plan.lc);
    bool r_un = unsafe(plan.rc);
    bool n_un = unsafe(plan.nc);
    // 3.1.a / 3.1.b: everything safe, or no neighbors at all.
    if ((!l_un && !r_un && !n_un) || (plan.lc == 0 && plan.rc == 0)) break;
    if (l_un || r_un) {
      // An unsafe neighbor is always the smaller one (safe >= T > unsafe).
      uint64_t smallest =
          l_un && r_un ? (plan.lc < plan.rc ? plan.lc : plan.rc)
                       : (l_un ? plan.lc : plan.rc);
      // 3.1.c: if even the smallest unsafe segment cannot be stored with N
      // in one maximal segment, give up on page reshuffling.
      if (smallest + plan.nc > max_bytes) break;
      // 3.2: merge the smaller unsafe neighbor into N entirely.
      if (l_un && (!r_un || plan.lc <= plan.rc)) {
        plan.from_l += plan.lc;
        plan.nc += plan.lc;
        plan.lc = 0;
      } else {
        plan.from_r += plan.rc;
        plan.nc += plan.rc;
        plan.rc = 0;
      }
      continue;
    }
    // 3.3: only N is unsafe; take whole pages from the smaller non-empty
    // neighbor until N is safe (or the donor runs dry).
    uint64_t need = in.threshold - Pages(plan.nc, ps);
    assert(need > 0);
    bool donor_l;
    if (plan.lc == 0) {
      donor_l = false;
    } else if (plan.rc == 0) {
      donor_l = true;
    } else {
      donor_l = plan.lc <= plan.rc;
    }
    if (donor_l) {
      uint64_t lp = Pages(plan.lc, ps);
      uint64_t p = need < lp ? need : lp;
      uint64_t take = plan.lc - (lp - p) * ps;  // tail pages incl. partial
      plan.from_l += take;
      plan.nc += take;
      plan.lc -= take;
    } else {
      uint64_t rp = Pages(plan.rc, ps);
      uint64_t p = need < rp ? need : rp;
      // Head pages of R are full except when taking R entirely.
      uint64_t take = p == rp ? plan.rc : p * ps;
      plan.from_r += take;
      plan.nc += take;
      plan.rc -= take;
    }
  }

  // from_l/from_r so far were produced by whole-page movement; anything
  // added past this point is byte reshuffling.
  const uint64_t page_moved = plan.from_l + plan.from_r;
  auto finish = [&]() {
    uint64_t total = plan.from_l + plan.from_r;
    if (page_moved > 0) page_mode->Inc();
    if (total > page_moved) byte_mode->Inc();
    if (total > 0) moved->Record(total);
    return plan;
  };

  // Byte reshuffling (Section 4.3.1 step 3 / Section 4.4 step 3.4).
  uint64_t nm = plan.nc % ps;
  if (nm == 0) return finish();  // "If Nm = PS skip this step."

  auto last_page_bytes = [&](uint64_t c) {
    return c % ps == 0 ? uint64_t{ps} : c % ps;
  };
  uint64_t lm = plan.lc == 0 ? 0 : last_page_bytes(plan.lc);
  bool cand_l = plan.lc > 0 && lm + nm <= ps;
  bool cand_r = plan.rc > 0 && Pages(plan.rc, ps) == 1 && plan.rc + nm <= ps;
  bool take_l = false;
  bool take_r = false;
  if (cand_l && cand_r) {
    if (lm + plan.rc + nm <= ps) {
      take_l = take_r = true;  // both groups fit in N's last page
    } else if (ps - lm >= ps - plan.rc) {
      take_l = true;  // L's last page has the larger free space
    } else {
      take_r = true;
    }
  } else {
    take_l = cand_l;
    take_r = cand_r;
  }
  if (take_l) {
    plan.from_l += lm;
    plan.nc += lm;
    plan.lc -= lm;
  }
  if (take_r) {
    plan.from_r += plan.rc;
    plan.nc += plan.rc;
    plan.rc = 0;
  }
  // Balance the free space between the last pages of L and N by borrowing
  // bytes from L (no page is eliminated; both slacks converge).
  if (plan.lc > 0) {
    lm = last_page_bytes(plan.lc);
    nm = plan.nc % ps;
    if (nm != 0 && lm < ps && lm > nm) {
      uint64_t x = (lm - nm) / 2;
      if (x > 0 && nm + x <= ps) {
        plan.from_l += x;
        plan.nc += x;
        plan.lc -= x;
      }
    }
  }
  // N may legitimately exceed one maximal segment for huge inserts (the
  // caller then writes it as a sequence of segments); page reshuffling
  // itself never pushes it past the cap.
  assert(plan.nc <= max_bytes || in.nc > max_bytes);
  return finish();
}

}  // namespace eos
