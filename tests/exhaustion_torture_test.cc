// Resource-exhaustion torture (DESIGN.md "Degraded operation under
// resource exhaustion"): every allocation site of a mixed workload is hit
// with an injected NoSpace, and each operation must either complete or
// fail with the typed error while leaving the object byte-exact at its
// pre-op state and the allocation maps leak-free. Also covers the
// emergency reserve on a volume that cannot grow (mutations refused,
// reads/drops/checkpoint still succeed), operation deadlines against
// injected device latency, and cooperative cancellation.
//
// Failures print the op trace and the seed; re-run with EOS_TEST_SEED=<n>.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "buddy/segment_allocator.h"
#include "common/deadline.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "lob/lob_manager.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tests/model_oracle.h"
#include "tests/test_util.h"

namespace eos {
namespace {

// Failed assertions dump the flight-recorder journal (test_util.h).
const bool g_postmortem_listener = testing_util::InstallPostMortemOnFailure();

using testing_util::ApplyToLob;
using testing_util::ApplyToModel;
using testing_util::FormatOpTrace;
using testing_util::LobOp;
using testing_util::ModelLob;
using testing_util::PatternBytes;
using testing_util::RandomOp;
using testing_util::TestSeed;

// In-memory LobManager stack, optionally chaos-wrapped, mirroring the
// fault_injection_test harness.
struct Stack {
  std::unique_ptr<ChaosPageDevice> device;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<SegmentAllocator> allocator;
  std::unique_ptr<LobManager> lob;

  explicit Stack(uint32_t page_size, uint64_t seed = 0,
                 const LobConfig& config = LobConfig{}) {
    auto geo = BuddyGeometry::Make(page_size);
    EXPECT_TRUE(geo.ok());
    device = std::make_unique<ChaosPageDevice>(
        std::make_unique<MemPageDevice>(page_size, 1 + geo->space_pages + 1),
        seed);
    pager = std::make_unique<Pager>(device.get(), 64);
    SegmentAllocator::Options opt;
    auto a = SegmentAllocator::Format(pager.get(), *geo, 1, opt);
    EXPECT_TRUE(a.ok());
    allocator = std::move(a).value();
    lob = std::make_unique<LobManager>(pager.get(), allocator.get(), config);
  }

  uint64_t FreePages() {
    auto n = allocator->TotalFreePages();
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ok() ? *n : 0;
  }
};

// The config both enumeration tests replay their script under. Ops must
// allocate more than once, or an unwind that mishandles every allocation
// after the first goes unseen: 2-page segments make appends take several,
// and a 3-entry root makes the spine allocate index nodes (FitRoot and
// node splits).
LobConfig MultiAllocConfig() {
  LobConfig c;
  c.max_segment_pages = 2;
  c.max_root_bytes = 8 + 3 * 16 + 8;
  return c;
}

// The scripted mixed workload both enumeration tests replay: concrete
// coordinates drawn once from `seed`, so every injection run sees the
// identical operation sequence.
std::vector<LobOp> ScriptWorkload(uint64_t seed, uint32_t page_size,
                                  int ops) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  ModelLob model;
  std::vector<LobOp> script;
  for (int i = 0; i < ops; ++i) {
    LobOp op = RandomOp(&rng, model, page_size, /*payload_seed=*/seed + i);
    script.push_back(op);
    ApplyToModel(op, &model);
  }
  return script;
}

// Replays `script` with an injected allocation fault armed `fault_at`
// calls in (-1 = none). Each op must either succeed or fail with typed
// NoSpace leaving the object byte-exact at its pre-op state; the fault is
// one-shot, so the retry must then succeed. Returns via gtest assertions.
void ReplayWithInjection(const std::vector<LobOp>& script, uint32_t page_size,
                         int64_t fault_at, uint64_t* allocs_used) {
  Stack s(page_size, 0, MultiAllocConfig());
  uint64_t baseline = s.FreePages();
  ModelLob model;
  LobDescriptor d = s.lob->CreateEmpty();
  s.allocator->set_alloc_fault_countdown(fault_at);
  bool injected = false;
  for (size_t i = 0; i < script.size(); ++i) {
    const LobOp& op = script[i];
    Status st = ApplyToLob(op, s.lob.get(), &d);
    if (!st.ok()) {
      ASSERT_TRUE(st.IsNoSpace())
          << "op " << i << " failed with an untyped error: " << st.ToString()
          << "\n" << FormatOpTrace(script);
      injected = true;
      // The unwound object must read back byte-exact at its pre-op state,
      // and both the tree and the buddy maps must still be sound.
      auto back = s.lob->ReadAll(d);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_TRUE(model.Matches(*back))
          << "op " << i << " left the object altered after NoSpace\n"
          << FormatOpTrace(script);
      EOS_ASSERT_OK(s.lob->CheckInvariants(d));
      EOS_ASSERT_OK(s.allocator->CheckInvariants());
      // The injected fault is one-shot: the retry must complete.
      st = ApplyToLob(op, s.lob.get(), &d);
      ASSERT_TRUE(st.ok())
          << "retry of op " << i << " failed: " << st.ToString();
    }
    ApplyToModel(op, &model);
  }
  if (fault_at >= 0) {
    ASSERT_TRUE(injected) << "fault " << fault_at << " never fired";
  }
  if (allocs_used != nullptr) *allocs_used = s.allocator->alloc_calls();
  auto back = s.lob->ReadAll(d);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(model.Matches(*back)) << FormatOpTrace(script);
  // Zero leaks: destroying the only object returns the volume to its
  // formatted free-page count exactly.
  EOS_ASSERT_OK(s.lob->Destroy(&d));
  EXPECT_EQ(s.FreePages(), baseline) << FormatOpTrace(script);
  EOS_ASSERT_OK(s.allocator->CheckInvariants());
}

// Tentpole acceptance: inject NoSpace at *every* allocation site of the
// workload (countdown k = 0..A-1 where A is the fault-free total) and
// require success-or-typed-NoSpace with byte-exact unwind and zero leaked
// pages each time.
TEST(ExhaustionTortureTest, EveryAllocationSiteUnwinds) {
  const uint32_t kPageSize = 256;
  const uint64_t seed = TestSeed(0xE05D15C);
  std::vector<LobOp> script = ScriptWorkload(seed, kPageSize, 10);
  uint64_t total_allocs = 0;
  ReplayWithInjection(script, kPageSize, /*fault_at=*/-1, &total_allocs);
  if (HasFatalFailure()) return;
  ASSERT_GT(total_allocs, 0u);
  for (uint64_t k = 0; k < total_allocs; ++k) {
    ReplayWithInjection(script, kPageSize, static_cast<int64_t>(k), nullptr);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "injection at allocation " << k << " of "
                    << total_allocs << " (EOS_TEST_SEED=" << seed << ")";
      return;
    }
  }
}

// Longer randomized soak: a fault is re-armed at a random countdown before
// every op, so injections land mid-operation throughout; the differential
// model advances only on success plus the mandatory one-shot retry.
TEST(ExhaustionTortureTest, RandomizedInjectionSoak) {
  const uint32_t kPageSize = 256;
  const uint64_t seed = TestSeed(0xBADA110C);
  std::mt19937 rng(static_cast<uint32_t>(seed) ^ 0x5eed);
  std::vector<LobOp> script = ScriptWorkload(seed, kPageSize, 40);
  Stack s(kPageSize, 0, MultiAllocConfig());
  uint64_t baseline = s.FreePages();
  ModelLob model;
  LobDescriptor d = s.lob->CreateEmpty();
  for (size_t i = 0; i < script.size(); ++i) {
    s.allocator->set_alloc_fault_countdown(
        static_cast<int64_t>(rng() % 32));
    const LobOp& op = script[i];
    Status st = ApplyToLob(op, s.lob.get(), &d);
    if (!st.ok()) {
      ASSERT_TRUE(st.IsNoSpace())
          << "op " << i << ": " << st.ToString() << " (EOS_TEST_SEED="
          << seed << ")\n" << FormatOpTrace(script);
      auto back = s.lob->ReadAll(d);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_TRUE(model.Matches(*back))
          << "op " << i << " altered state (EOS_TEST_SEED=" << seed << ")";
      s.allocator->set_alloc_fault_countdown(-1);
      EOS_ASSERT_OK(ApplyToLob(op, s.lob.get(), &d));
    }
    ApplyToModel(op, &model);
  }
  s.allocator->set_alloc_fault_countdown(-1);
  auto back = s.lob->ReadAll(d);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(model.Matches(*back)) << "EOS_TEST_SEED=" << seed;
  EOS_ASSERT_OK(s.lob->CheckInvariants(d));
  EOS_ASSERT_OK(s.lob->Destroy(&d));
  EXPECT_EQ(s.FreePages(), baseline) << "EOS_TEST_SEED=" << seed;
  EOS_ASSERT_OK(s.allocator->CheckInvariants());
}

// A failed streaming Append must restore the session (and the tree) so the
// appender keeps working; the bytes of the failed call simply never appear.
TEST(ExhaustionTortureTest, AppenderSessionUnwindsMidStream) {
  const uint32_t kPageSize = 256;
  Stack s(kPageSize);
  uint64_t baseline = s.FreePages();
  LobDescriptor d = s.lob->CreateEmpty();
  Bytes expect;
  {
    LobAppender app(s.lob.get(), &d);
    int failures = 0;
    for (int i = 0; i < 24; ++i) {
      Bytes chunk = PatternBytes(100 + i, 700 + 37 * i);
      if (i % 5 == 3) s.allocator->set_alloc_fault_countdown(0);
      Status st = app.Append(chunk);
      if (st.ok()) {
        expect.insert(expect.end(), chunk.begin(), chunk.end());
      } else {
        ASSERT_TRUE(st.IsNoSpace()) << st.ToString();
        ++failures;
        // The session survives: the very next append succeeds (the
        // injected fault is one-shot) and lands where the failed one
        // would have.
      }
      s.allocator->set_alloc_fault_countdown(-1);
    }
    EXPECT_GT(failures, 0);
    EOS_ASSERT_OK(app.Finish());
  }
  EXPECT_EQ(d.size(), expect.size());
  auto back = s.lob->ReadAll(d);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, expect);
  EOS_ASSERT_OK(s.lob->CheckInvariants(d));
  EOS_ASSERT_OK(s.lob->Destroy(&d));
  EXPECT_EQ(s.FreePages(), baseline);
}

// Emergency-reserve acceptance on a volume that cannot grow: once free
// pages hit the floor, new mutations are refused with typed NoSpace while
// reads, drops, directory saves and Checkpoint() keep completing from the
// reserve.
TEST(ExhaustionTortureTest, FullVolumeRefusesMutationsButStaysLive) {
  obs::Counter* refused =
      obs::MetricsRegistry::Default().counter(obs::kSpaceRefused);
  uint64_t refused_before = refused->value();

  DatabaseOptions opt;
  opt.page_size = 256;
  opt.initial_spaces = 1;
  opt.emergency_reserve_pages = 8;
  auto geo = BuddyGeometry::Make(opt.page_size);
  ASSERT_TRUE(geo.ok());
  auto chaos = std::make_unique<ChaosPageDevice>(
      std::make_unique<MemPageDevice>(opt.page_size,
                                      2 + 2 * (geo->space_pages + 1)),
      /*seed=*/7);
  ChaosPageDevice* dev = chaos.get();
  auto db = Database::CreateOnDevice(std::move(chaos), opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto id = (*db)->CreateObjectFrom(PatternBytes(1, 2000));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // The volume has reached its physical end: every further Grow is a
  // typed disk-full.
  dev->FailGrowsAfter(0, /*permanent=*/true);

  // Fill until the volume refuses (fragmentation or the floor — both are
  // typed NoSpace on a volume that cannot grow).
  Status st = Status::OK();
  int appended = 0;
  for (; appended < 10000; ++appended) {
    st = (*db)->Append(*id, PatternBytes(2 + appended, 1500));
    if (!st.ok()) break;
  }
  ASSERT_FALSE(st.ok()) << "volume never filled";
  EXPECT_TRUE(st.IsNoSpace()) << st.ToString();
  EXPECT_GT(appended, 0);

  // Raise the floor above what is left: from here every refusal is the
  // admission gate itself, so the typed error and the counter are exact.
  (*db)->allocator()->set_emergency_reserve_pages(
      static_cast<uint32_t>((*db)->allocator()->free_pages_fast()) + 4);
  st = (*db)->Append(*id, PatternBytes(7000, 64));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNoSpace()) << st.ToString();
  EXPECT_GT(refused->value(), refused_before);

  // The reserve floor holds: maintenance still has pages to work with.
  EXPECT_GE((*db)->allocator()->free_pages_fast(),
            static_cast<int64_t>(0));

  // Refused again, typed again — and the refusal is stable, not corrupting.
  Status again = (*db)->Append(*id, PatternBytes(99, 64));
  EXPECT_TRUE(again.IsNoSpace()) << again.ToString();
  Status ins = (*db)->Insert(*id, 0, PatternBytes(98, 64));
  EXPECT_TRUE(ins.IsNoSpace()) << ins.ToString();

  // Reads are always admitted.
  auto size = (*db)->Size(*id);
  ASSERT_TRUE(size.ok());
  auto data = (*db)->Read(*id, 0, *size);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->size(), *size);

  // Deletes are always admitted; the directory save they trigger runs
  // from the emergency reserve.
  EOS_ASSERT_OK((*db)->Delete(*id, *size - 1000, 1000));

  // Checkpoint and integrity still complete on the full volume.
  EOS_ASSERT_OK((*db)->Checkpoint());
  EOS_ASSERT_OK((*db)->CheckIntegrity());

  // Dropping an object reclaims space and mutations are admitted again.
  auto id2 = (*db)->CreateObject();
  if (!id2.ok()) {
    // Creating may still be refused at the floor; dropping the big object
    // must free enough to admit work again.
    EXPECT_TRUE(id2.status().IsNoSpace()) << id2.status().ToString();
  }
  EOS_ASSERT_OK((*db)->DropObject(*id));
  auto id3 = (*db)->CreateObjectFrom(PatternBytes(5, 2000));
  ASSERT_TRUE(id3.ok()) << id3.status().ToString();
  auto data3 = (*db)->Read(*id3, 0, 2000);
  ASSERT_TRUE(data3.ok());
  EXPECT_EQ(*data3, PatternBytes(5, 2000));

  // No storage was lost across the refusals.
  LeakCheckReport report;
  EOS_ASSERT_OK((*db)->LeakCheck(&report));
  EXPECT_TRUE(report.leaked.empty());
  EXPECT_TRUE(report.doubly_referenced.empty());
}

// An armed deadline bounds reads through injected device latency: the
// sleeping transfer wakes at the deadline and the scan fails typed.
TEST(ExhaustionTortureTest, DeadlineExpiresDuringInjectedReadLatency) {
  Stack s(256);
  auto d = s.lob->CreateFrom(PatternBytes(1, 60000));
  ASSERT_TRUE(d.ok());
  EOS_ASSERT_OK(s.pager->EvictAll());
  s.device->InjectLatency(/*read_us=*/4000, /*write_us=*/0);
  {
    // The budget is below a single injected service time, so whichever
    // device read the scan issues first wakes at the deadline.
    ScopedDeadline bound(std::chrono::milliseconds(2));
    Bytes out;
    Status st = s.lob->Read(*d, 0, 60000, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  }
  // Without a bound the same read completes — the latency only slows it.
  s.device->InjectLatency(0, 0);
  Bytes out;
  EOS_ASSERT_OK(s.lob->Read(*d, 0, 60000, &out));
  EXPECT_EQ(out, PatternBytes(1, 60000));
}

// A deadline expiring mid-mutation unwinds like any other failure: typed
// error, pre-op bytes, no leaked pages. Insert must read the split leaf
// back from the device (the pager was evicted), and that read's injected
// latency outlives the budget.
TEST(ExhaustionTortureTest, DeadlineBoundedWriteUnwindsCleanly) {
  Stack s(256);
  uint64_t baseline = s.FreePages();
  Bytes before = PatternBytes(3, 5000);
  auto d = s.lob->CreateFrom(before);
  ASSERT_TRUE(d.ok());
  uint64_t after_create = s.FreePages();
  EOS_ASSERT_OK(s.pager->EvictAll());
  s.device->InjectLatency(/*read_us=*/4000, /*write_us=*/0);
  {
    ScopedDeadline bound(std::chrono::milliseconds(2));
    Status st = s.lob->Insert(&*d, 100, PatternBytes(4, 20000));
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  }
  s.device->InjectLatency(0, 0);
  EXPECT_EQ(d->size(), before.size());
  auto back = s.lob->ReadAll(*d);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, before);
  EXPECT_EQ(s.FreePages(), after_create);
  EOS_ASSERT_OK(s.lob->CheckInvariants(*d));
  EOS_ASSERT_OK(s.lob->Destroy(&*d));
  EXPECT_EQ(s.FreePages(), baseline);
}

// Cooperative cancellation is observed before any work happens.
TEST(ExhaustionTortureTest, CancelTokenRefusesNewWork) {
  Stack s(256);
  Bytes before = PatternBytes(6, 3000);
  auto d = s.lob->CreateFrom(before);
  ASSERT_TRUE(d.ok());
  uint64_t free_before = s.FreePages();
  CancelToken cancel = CancelToken::Make();
  cancel.Cancel();
  {
    ScopedOpContext scope(OpContext{Deadline::Infinite(), cancel});
    Status st = s.lob->Append(&*d, PatternBytes(7, 4000));
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    Bytes out;
    Status rd = s.lob->Read(*d, 0, 100, &out);
    EXPECT_TRUE(rd.IsDeadlineExceeded()) << rd.ToString();
  }
  // State is untouched and the stack is immediately usable again.
  EXPECT_EQ(s.FreePages(), free_before);
  auto back = s.lob->ReadAll(*d);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, before);
}

// The reservation/unwind counters move when an injected fault unwinds a
// mutation.
TEST(ExhaustionTortureTest, ObsCountersTrackUnwinds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  uint64_t reserved_before = reg.counter(obs::kSpaceReserved)->value();

  // Dry run: count the allocator calls the mid-object insert makes, so the
  // fault can be armed at its *last* allocation — everything before it is
  // then tracked by the reservation and must show up as unwound extents.
  uint64_t insert_allocs = 0;
  {
    Stack dry(256);
    auto d = dry.lob->CreateFrom(PatternBytes(1, 8000));
    ASSERT_TRUE(d.ok());
    uint64_t before = dry.allocator->alloc_calls();
    EOS_ASSERT_OK(dry.lob->Insert(&*d, 100, PatternBytes(2, 150000)));
    insert_allocs = dry.allocator->alloc_calls() - before;
  }
  ASSERT_GE(insert_allocs, 2u) << "insert no longer splits; pick a new op";

  Stack s(256);
  auto d = s.lob->CreateFrom(PatternBytes(1, 8000));
  ASSERT_TRUE(d.ok());
  EXPECT_GT(reg.counter(obs::kSpaceReserved)->value(), reserved_before);
  uint64_t unwound_before = reg.counter(obs::kSpaceUnwoundExtents)->value();
  s.allocator->set_alloc_fault_countdown(
      static_cast<int64_t>(insert_allocs) - 1);
  Status st = s.lob->Insert(&*d, 100, PatternBytes(2, 150000));
  ASSERT_TRUE(st.IsNoSpace()) << st.ToString();
  EXPECT_GT(reg.counter(obs::kSpaceUnwoundExtents)->value(), unwound_before);
}

}  // namespace
}  // namespace eos
