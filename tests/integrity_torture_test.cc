// Bit-rot torture for the end-to-end integrity layer.
//
// The central claim under test: with checksums on, a corrupted volume
// NEVER serves wrong bytes. Every page of a populated volume is corrupted
// in turn (covering every role a page can have — superblock, allocation
// map, directory, index node, leaf) and each read either succeeds with
// oracle-exact bytes or fails with a typed Corruption at the right layer.
// Scrub pinpoints exactly the rotted pages; repair rebuilds the damaged
// object with the losses zero-filled and reported as holes; transient
// device faults are retried away without the caller ever noticing.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/verified_device.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using testing_util::PatternBytes;

constexpr uint32_t kPhysPageSize = 256;
constexpr uint32_t kPageSize =
    kPhysPageSize - VerifiedPageDevice::kTrailerBytes;  // 240 logical

DatabaseOptions TortureOpts() {
  DatabaseOptions o;
  o.page_size = kPhysPageSize;
  o.space_pages = 200;
  o.checksums = true;
  o.pager_frames = 32;  // small cache: reads reach the device
  // Many small segments force a multi-level tree even at modest sizes, so
  // the sweep hits genuine index-node pages.
  o.lob.threshold_pages = 1;
  o.lob.max_segment_pages = 2;
  return o;
}

// The populated volume every test starts from: a handful of objects whose
// contents the tests keep as the oracle, including one big enough for a
// multi-level tree.
struct Workload {
  std::map<uint64_t, Bytes> oracle;

  Status Populate(Database* db) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      size_t n = seed == 2 ? 40000 : 700 * seed;  // object 2: depth >= 1
      Bytes content = PatternBytes(seed, n);
      EOS_ASSIGN_OR_RETURN(uint64_t id, db->CreateObjectFrom(content));
      oracle[id] = std::move(content);
    }
    return db->Flush();
  }

  // Reads every object and insists each result is byte-exact or a typed
  // corruption error — never silently wrong. Returns how many objects
  // failed with Corruption.
  int VerifyNoWrongBytes(Database* db) const {
    int corrupt = 0;
    for (const auto& [id, expect] : oracle) {
      auto data = db->Read(id, 0, expect.size());
      if (data.ok()) {
        EXPECT_EQ(*data, expect) << "object " << id
                                 << " served WRONG BYTES silently";
      } else {
        EXPECT_TRUE(data.status().IsCorruption())
            << "object " << id << ": " << data.status().ToString();
        ++corrupt;
      }
    }
    return corrupt;
  }
};

TEST(IntegrityTortureTest, EveryPageRoleFailsClosedAndScrubPinpointsIt) {
  // Build the master image once.
  auto master_chaos = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kPhysPageSize, 1), 4242);
  ChaosPageDevice* master = master_chaos.get();
  auto db = Database::CreateOnDevice(std::move(master_chaos), TortureOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Workload w;
  EOS_ASSERT_OK(w.Populate(db->get()));
  auto big_stats = (*db)->ObjectStats(2);
  ASSERT_TRUE(big_stats.ok()) << big_stats.status().ToString();
  ASSERT_GE(big_stats->depth, 1u)
      << "workload must produce index-node pages";
  uint64_t page_count = (*db)->device()->page_count();
  // Pages the open path itself traverses, for classifying failed opens:
  // the allocation-map directory of every space, and the leaves of the
  // object directory.
  std::set<PageId> amap_pages;
  for (uint32_t sp = 0; sp < (*db)->allocator()->num_spaces(); ++sp) {
    amap_pages.insert((*db)->allocator()->DirPage(sp));
  }
  std::set<PageId> dir_pages;
  ASSERT_EQ((*db)->dir_object().root.level, 0u);
  for (const LobEntry& e : (*db)->dir_object().root.entries) {
    uint64_t extent_pages = (e.count + kPageSize - 1) / kPageSize;
    for (uint64_t i = 0; i < extent_pages; ++i) dir_pages.insert(e.page + i);
  }
  auto image = master->CloneImage();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  db->reset();

  std::set<PageRole> roles_caught;
  uint64_t failed_opens = 0;
  uint64_t corrupt_reads = 0;
  uint64_t scrub_hits = 0;
  for (PageId victim = 0; victim < page_count; ++victim) {
    // Fresh copy of the clean image, with seeded rot on exactly one page.
    auto copy = std::make_unique<MemPageDevice>(kPhysPageSize,
                                                (*image)->page_count());
    Bytes raw(size_t{(*image)->page_count()} * kPhysPageSize);
    ASSERT_TRUE(
        (*image)->ReadPages(0, (*image)->page_count(), raw.data()).ok());
    ASSERT_TRUE(
        copy->WritePages(0, (*image)->page_count(), raw.data()).ok());
    auto chaos = std::make_unique<ChaosPageDevice>(std::move(copy),
                                                   1000 + victim);
    EOS_ASSERT_OK(chaos->CorruptPage(victim, /*bits=*/3));

    auto opened = Database::OpenOnDevice(std::move(chaos), TortureOpts());
    if (!opened.ok()) {
      // Rot in the superblock, the directory object, or a page the open
      // path must traverse: refusing to open is failing closed. A flip in
      // the raw superblock's epoch field can surface as a geometry
      // mismatch instead of a checksum error, so page 0 only requires a
      // typed failure.
      if (victim != Database::kSuperblockPage) {
        EXPECT_TRUE(opened.status().IsCorruption())
            << "page " << victim << ": " << opened.status().ToString();
      }
      ++failed_opens;
      if (victim == Database::kSuperblockPage) {
        roles_caught.insert(PageRole::kSuperblock);
      } else if (amap_pages.count(victim) > 0) {
        roles_caught.insert(PageRole::kAllocatorMap);
      } else if (dir_pages.count(victim) > 0) {
        roles_caught.insert(PageRole::kDirectory);
      } else {
        ADD_FAILURE() << "open failed for page " << victim
                      << ", which the open path should not traverse: "
                      << opened.status().ToString();
      }
      continue;
    }
    corrupt_reads += w.VerifyNoWrongBytes(opened->get());

    ScrubReport report;
    EOS_ASSERT_OK((*opened)->Scrub(&report));
    EXPECT_GT(report.pages_verified, 0u);
    for (const ScrubIssue& i : report.issues) {
      EXPECT_EQ(i.page, victim)
          << "scrub blamed page " << i.page << " ("
          << PageRoleName(i.role) << "): " << i.message;
      roles_caught.insert(i.role);
    }
    if (!report.issues.empty()) ++scrub_hits;
  }

  // The sweep must have exercised every layer's detection path.
  EXPECT_GT(failed_opens, 0u);
  EXPECT_GT(corrupt_reads, 0u);
  EXPECT_GT(scrub_hits, 0u);
  EXPECT_TRUE(roles_caught.count(PageRole::kSuperblock));
  EXPECT_TRUE(roles_caught.count(PageRole::kAllocatorMap));
  EXPECT_TRUE(roles_caught.count(PageRole::kDirectory));
  EXPECT_TRUE(roles_caught.count(PageRole::kIndexNode));
  EXPECT_TRUE(roles_caught.count(PageRole::kLeaf));
}

TEST(IntegrityTortureTest, ScrubOnLiveVolumeReportsMetadataRoles) {
  // Rot that lands after a clean open (Attach would refuse a rotted
  // volume): scrub's device-direct probes must still classify it.
  auto chaos_owner = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kPhysPageSize, 1), 88);
  ChaosPageDevice* chaos = chaos_owner.get();
  auto db = Database::CreateOnDevice(std::move(chaos_owner), TortureOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Workload w;
  EOS_ASSERT_OK(w.Populate(db->get()));

  PageId amap = (*db)->allocator()->DirPage(0);
  ASSERT_EQ((*db)->dir_object().root.level, 0u);
  PageId dir_leaf = (*db)->dir_object().root.entries[0].page;
  EOS_ASSERT_OK(chaos->CorruptPage(amap, 3));
  EOS_ASSERT_OK(chaos->CorruptPage(dir_leaf, 3));

  ScrubReport report;
  EOS_ASSERT_OK((*db)->Scrub(&report));
  std::set<PageRole> roles;
  std::set<PageId> pages;
  for (const ScrubIssue& i : report.issues) {
    roles.insert(i.role);
    pages.insert(i.page);
  }
  EXPECT_TRUE(roles.count(PageRole::kAllocatorMap));
  EXPECT_TRUE(roles.count(PageRole::kDirectory));
  EXPECT_EQ(pages, (std::set<PageId>{amap, dir_leaf}));
}

TEST(IntegrityTortureTest, ScrubFindsExactlyTheRotAndRepairZeroFillsIt) {
  auto chaos_owner = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kPhysPageSize, 1), 77);
  ChaosPageDevice* chaos = chaos_owner.get();
  auto db = Database::CreateOnDevice(std::move(chaos_owner), TortureOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Bytes content = PatternBytes(31, 4000);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EOS_ASSERT_OK((*db)->Flush());

  // Pick two victim pages straight from the object's level-0 root: the
  // first page of the third extent and the last page of the sixth.
  auto root = (*db)->GetRoot(*id);
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->root.level, 0u);
  ASSERT_GE(root->root.entries.size(), 6u);
  std::vector<HoleRange> expected_holes;
  std::set<PageId> victims;
  uint64_t prefix = 0;
  for (size_t i = 0; i < root->root.entries.size(); ++i) {
    const LobEntry& e = root->root.entries[i];
    uint64_t extent_pages = (e.count + kPageSize - 1) / kPageSize;
    if (i == 2) {
      victims.insert(e.page);
      expected_holes.push_back({prefix, std::min<uint64_t>(kPageSize,
                                                           e.count)});
    }
    if (i == 5) {
      victims.insert(e.page + extent_pages - 1);
      uint64_t off = (extent_pages - 1) * kPageSize;
      expected_holes.push_back({prefix + off, e.count - off});
    }
    prefix += e.count;
  }
  for (PageId v : victims) EOS_ASSERT_OK(chaos->CorruptPage(v, 3));

  // Scrub names exactly the two rotted pages, as leaves of this object.
  ScrubReport report;
  EOS_ASSERT_OK((*db)->Scrub(&report));
  std::set<PageId> blamed;
  for (const ScrubIssue& i : report.issues) {
    EXPECT_EQ(i.object_id, *id);
    EXPECT_EQ(i.role, PageRole::kLeaf);
    blamed.insert(i.page);
  }
  EXPECT_EQ(blamed, victims);
  // The failed verification reads quarantined the rot as a side effect.
  for (PageId v : victims) {
    EXPECT_TRUE((*db)->verified_device()->IsQuarantined(v));
  }

  // Repair: the object reads again, byte-exact outside the holes and
  // zero-filled inside them, with the hole map persisted.
  EOS_ASSERT_OK((*db)->RepairObject(*id));
  std::vector<HoleRange> holes = (*db)->GetHoles(*id);
  ASSERT_EQ(holes.size(), expected_holes.size());
  Bytes expect = content;
  for (size_t i = 0; i < holes.size(); ++i) {
    EXPECT_EQ(holes[i].offset, expected_holes[i].offset) << "hole " << i;
    EXPECT_EQ(holes[i].length, expected_holes[i].length) << "hole " << i;
    std::fill(expect.begin() + expected_holes[i].offset,
              expect.begin() + expected_holes[i].offset +
                  expected_holes[i].length,
              uint8_t{0});
  }
  auto data = (*db)->Read(*id, 0, content.size());
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, expect);

  // The volume is clean again: structural invariants hold, a second scrub
  // is issue-free, and the hole map survives a reopen.
  EOS_ASSERT_OK((*db)->CheckIntegrity());
  ScrubReport again;
  EOS_ASSERT_OK((*db)->Scrub(&again));
  EXPECT_TRUE(again.clean()) << again.issues.size() << " issues remain";

  auto image = chaos->CloneImage();
  ASSERT_TRUE(image.ok());
  db->reset();
  auto reopened =
      Database::OpenOnDevice(std::move(image).value(), TortureOpts());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<HoleRange> persisted = (*reopened)->GetHoles(*id);
  ASSERT_EQ(persisted.size(), holes.size());
  for (size_t i = 0; i < holes.size(); ++i) {
    EXPECT_EQ(persisted[i].offset, holes[i].offset);
    EXPECT_EQ(persisted[i].length, holes[i].length);
  }
  auto data2 = (*reopened)->Read(*id, 0, content.size());
  ASSERT_TRUE(data2.ok()) << data2.status().ToString();
  EXPECT_EQ(*data2, expect);
}

// An unreadable index node takes its whole subtree's byte range with it:
// scrub names the node, and salvage turns exactly that range (the parent
// entry says where and how long it is) into one zero-filled hole.
TEST(IntegrityTortureTest, SalvageThroughUnreadableIndexNodeLosesOneRange) {
  auto chaos_owner = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kPhysPageSize, 1), 66);
  ChaosPageDevice* chaos = chaos_owner.get();
  DatabaseOptions opts = TortureOpts();
  opts.lob.max_root_bytes = 8 + 3 * 16 + 8;  // a 3-entry root
  auto db = Database::CreateOnDevice(std::move(chaos_owner), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Bytes content = PatternBytes(41, 40000);
  auto id = (*db)->CreateObjectFrom(content);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EOS_ASSERT_OK((*db)->Flush());
  auto root = (*db)->GetRoot(*id);
  ASSERT_TRUE(root.ok());
  ASSERT_GE(root->root.level, 2u) << "the victim must be an index node";

  // In tree order, the first index node with at least two entries; the
  // victim is its second child, itself an index node.
  NodeStore* store = (*db)->lob()->node_store();
  PageId victim = kInvalidPage;
  HoleRange lost;
  std::function<void(const LobEntry&, uint64_t)> find =
      [&](const LobEntry& e, uint64_t offset) {
        if (victim != kInvalidPage) return;
        auto node = store->Load(e.page);
        ASSERT_TRUE(node.ok()) << node.status().ToString();
        if (node->entries.size() >= 2) {
          ASSERT_GE(node->level, 1u);
          victim = node->entries[1].page;
          lost = HoleRange{offset + node->entries[0].count,
                           node->entries[1].count};
          return;
        }
        if (node->level > 0) find(node->entries[0], offset);
      };
  uint64_t offset = 0;
  for (const LobEntry& e : root->root.entries) {
    find(e, offset);
    offset += e.count;
  }
  ASSERT_NE(victim, kInvalidPage);
  EOS_ASSERT_OK(chaos->CorruptPage(victim, 3));

  ScrubReport report;
  EOS_ASSERT_OK((*db)->Scrub(&report));
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].object_id, *id);
  EXPECT_EQ(report.issues[0].page, victim);
  EXPECT_EQ(report.issues[0].role, PageRole::kIndexNode);

  EOS_ASSERT_OK((*db)->RepairObject(*id));
  std::vector<HoleRange> holes = (*db)->GetHoles(*id);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0].offset, lost.offset);
  EXPECT_EQ(holes[0].length, lost.length);
  Bytes expect = content;
  std::fill(expect.begin() + lost.offset,
            expect.begin() + lost.offset + lost.length, uint8_t{0});
  auto data = (*db)->Read(*id, 0, content.size());
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, expect);

  EOS_ASSERT_OK((*db)->CheckIntegrity());
  ScrubReport again;
  EOS_ASSERT_OK((*db)->Scrub(&again));
  EXPECT_TRUE(again.clean()) << again.issues.size() << " issues remain";
  LeakCheckReport leaks;
  EOS_ASSERT_OK((*db)->LeakCheck(&leaks));
  EXPECT_TRUE(leaks.leaked.empty());
  EXPECT_TRUE(leaks.doubly_referenced.empty());
}

TEST(IntegrityTortureTest, TransientFaultsAreInvisibleToCorrectness) {
  auto chaos_owner = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(kPhysPageSize, 1), 55);
  ChaosPageDevice* chaos = chaos_owner.get();
  DatabaseOptions opts = TortureOpts();
  opts.pager_frames = 8;  // nearly uncached: every read risks the fault
  auto db = Database::CreateOnDevice(std::move(chaos_owner), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Workload w;
  EOS_ASSERT_OK(w.Populate(db->get()));

  uint64_t retries_before =
      obs::MetricsRegistry::Default().counter(obs::kIoReadRetry)->value();
  for (int round = 0; round < 25; ++round) {
    chaos->FailReadsAfter(round % 5);           // transient read fault
    if (round % 3 == 0) chaos->FailWritesAfter(round % 4);
    for (const auto& [id, expect] : w.oracle) {
      uint64_t off = (uint64_t{17} * round) % expect.size();
      uint64_t n = std::min<uint64_t>(expect.size() - off, 900);
      auto data = (*db)->Read(id, off, n);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      EXPECT_EQ(*data, Bytes(expect.begin() + off,
                             expect.begin() + off + n));
    }
    Bytes extra = PatternBytes(100 + round, 300);
    uint64_t grow_id = w.oracle.begin()->first;
    EOS_ASSERT_OK((*db)->Append(grow_id, extra));
    w.oracle[grow_id].insert(w.oracle[grow_id].end(), extra.begin(),
                             extra.end());
  }
  chaos->Heal();
  EXPECT_EQ(w.VerifyNoWrongBytes(db->get()), 0);
  EXPECT_GT(obs::MetricsRegistry::Default()
                .counter(obs::kIoReadRetry)
                ->value(),
            retries_before)
      << "the faults must actually have fired";
  EXPECT_GT(chaos->injected_faults(), 0u);
  EXPECT_EQ((*db)->verified_device()->quarantined_count(), 0u);
  EOS_ASSERT_OK((*db)->CheckIntegrity());
}

}  // namespace
}  // namespace eos
