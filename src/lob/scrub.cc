// Online scrub and salvage: device-direct verification of an object's
// pages and best-effort extraction of its content for repair (DESIGN.md
// "Integrity & degraded operation").
//
// Both are visitors of the one subtree walk (WalkTree, lob/node.h), with a
// node loader that reads through the raw device rather than the pager: the
// cache would hand back the clean copy it fetched before the media rotted,
// which is precisely what a scrub must not trust. On a VerifiedPageDevice
// every read below re-runs the trailer check (retrying transient faults and
// quarantining persistent ones as a side effect); on a plain device only
// the structural checks apply.

#include <algorithm>
#include <cstring>

#include "lob/lob_manager.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace eos {

namespace {

obs::Counter* PagesVerifiedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kScrubPagesVerified);
  return c;
}

obs::Counter* CorruptPagesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kScrubCorruptPages);
  return c;
}

void AddIssue(ScrubReport* report, uint64_t object_id, PageRole role,
              PageId page, std::string message) {
  report->issues.push_back(
      ScrubIssue{object_id, role, page, std::move(message)});
  CorruptPagesCounter()->Inc();
}

// Loads and structurally validates the index node behind `entry`, which the
// parent claims is a node of `level` covering entry.count bytes.
Status LoadNodeDirect(PageDevice* dev, uint32_t page_size,
                      const LobEntry& entry, uint16_t level, LobNode* node) {
  Bytes buf(page_size);
  EOS_RETURN_IF_ERROR(dev->ReadPages(entry.page, 1, buf.data()));
  EOS_RETURN_IF_ERROR(NodeFormat::Deserialize(buf.data(), page_size, node));
  if (node->level != level) {
    return Status::Corruption("index node level " +
                              std::to_string(node->level) +
                              " does not match its parent (expected " +
                              std::to_string(level) + ")");
  }
  if (node->Total() != entry.count) {
    return Status::Corruption(
        "index node totals " + std::to_string(node->Total()) +
        " bytes, parent entry says " + std::to_string(entry.count));
  }
  return Status::OK();
}

}  // namespace

const char* PageRoleName(PageRole role) {
  switch (role) {
    case PageRole::kSuperblock:
      return "superblock";
    case PageRole::kAllocatorMap:
      return "allocator-map";
    case PageRole::kDirectory:
      return "directory";
    case PageRole::kIndexNode:
      return "index-node";
    case PageRole::kLeaf:
      return "leaf";
    case PageRole::kLog:
      return "log";
    case PageRole::kUnknown:
      break;
  }
  return "unknown";
}

Status LobManager::ScrubObject(const LobDescriptor& d, uint64_t object_id,
                               ScrubReport* report) {
  PageDevice* dev = device();
  auto verified = [report](uint32_t pages) {
    report->pages_verified += pages;
    PagesVerifiedCounter()->Inc(pages);
  };
  return WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t level, uint64_t,
          LobNode* node) -> StatusOr<bool> {
        Status s = LoadNodeDirect(dev, page_size(), e, level, node);
        if (!s.ok()) {
          // Unreadable or structurally invalid: report it and stop
          // descending — its children are unreachable without it (salvage
          // handles the bytes).
          AddIssue(report, object_id, PageRole::kIndexNode, e.page,
                   s.message());
          return false;
        }
        verified(1);
        return true;
      },
      [&](const LobEntry& e, uint64_t) {
        uint32_t pages = LeafPages(e.count);
        Bytes buf(size_t{pages} * page_size());
        if (dev->ReadPages(e.page, pages, buf.data()).ok()) {
          verified(pages);
          return Status::OK();
        }
        // The extent read failed somewhere; re-read page by page to
        // pinpoint exactly which pages are bad (and keep counting the good
        // ones).
        for (uint32_t i = 0; i < pages; ++i) {
          Status ps = dev->ReadPages(e.page + i, 1, buf.data());
          if (ps.ok()) {
            verified(1);
          } else {
            AddIssue(report, object_id, PageRole::kLeaf, e.page + i,
                     ps.message());
          }
        }
        return Status::OK();
      });
}

StatusOr<Bytes> LobManager::Salvage(const LobDescriptor& d,
                                    std::vector<HoleRange>* holes) {
  holes->clear();
  Bytes out(d.size(), 0);
  PageDevice* dev = device();
  EOS_RETURN_IF_ERROR(WalkTree(
      d.root,
      [&](const LobEntry& e, uint16_t level, uint64_t offset,
          LobNode* node) -> StatusOr<bool> {
        if (LoadNodeDirect(dev, page_size(), e, level, node).ok()) {
          return true;
        }
        // The whole subtree is unreachable, but the parent entry says
        // exactly how many bytes it held: one hole, zeroes already in place.
        holes->push_back(HoleRange{offset, e.count});
        return false;
      },
      [&](const LobEntry& e, uint64_t offset) {
        uint32_t pages = LeafPages(e.count);
        Bytes buf(size_t{pages} * page_size());
        if (dev->ReadPages(e.page, pages, buf.data()).ok()) {
          std::memcpy(out.data() + offset, buf.data(), e.count);
          return Status::OK();
        }
        for (uint32_t i = 0; i < pages; ++i) {
          uint64_t lo = uint64_t{i} * page_size();
          uint64_t n = std::min<uint64_t>(page_size(), e.count - lo);
          if (dev->ReadPages(e.page + i, 1, buf.data()).ok()) {
            std::memcpy(out.data() + offset + lo, buf.data(), n);
          } else {
            holes->push_back(HoleRange{offset + lo, n});
          }
        }
        return Status::OK();
      }));
  std::sort(holes->begin(), holes->end(),
            [](const HoleRange& a, const HoleRange& b) {
              return a.offset < b.offset;
            });
  std::vector<HoleRange> merged;
  for (const HoleRange& h : *holes) {
    if (!merged.empty() &&
        merged.back().offset + merged.back().length >= h.offset) {
      uint64_t end = std::max(merged.back().offset + merged.back().length,
                              h.offset + h.length);
      merged.back().length = end - merged.back().offset;
    } else {
      merged.push_back(h);
    }
  }
  holes->swap(merged);
  return out;
}

}  // namespace eos
