// Unit tests for the page-integrity layer: the CRC32C kernel, the bounded
// retry policy, trailer seal/verify semantics, and VerifiedPageDevice's
// fault handling — transient faults retried invisibly, persistent
// corruption quarantined and failed closed, writes lifting quarantines —
// plus the CRC framing that gives the write-ahead log its torn-tail
// detection.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/retry.h"
#include "io/chaos_device.h"
#include "io/page_device.h"
#include "io/verified_device.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "txn/log_manager.h"

namespace eos {
namespace {

using testing_util::PatternBytes;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().counter(name)->value();
}

// ---- CRC32C kernel ----------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The classic check value plus the RFC 3720 appendix B.4 vectors,
  // whatever kernel dispatch picked, and the classic value from the
  // slice-by-8 reference kernel too.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cFinalize(Crc32cExtendSoftware(Crc32cInit(), "123456789", 9)),
            0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  uint8_t buf[32];
  std::memset(buf, 0x00, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x46DD794Eu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  Bytes data = PatternBytes(7, 1000);
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{400}, size_t{513}, data.size()}) {
    uint32_t state = Crc32cInit();
    state = Crc32cExtend(state, data.data(), split);
    state = Crc32cExtend(state, data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32cFinalize(state), whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SingleBitFlipsChangeTheValue) {
  Bytes data = PatternBytes(11, 64);
  uint32_t base = Crc32c(data.data(), data.size());
  for (size_t bit = 0; bit < data.size() * 8; bit += 37) {
    data[bit / 8] ^= uint8_t{1} << (bit % 8);
    EXPECT_NE(Crc32c(data.data(), data.size()), base) << "bit " << bit;
    data[bit / 8] ^= uint8_t{1} << (bit % 8);
  }
}

TEST(Crc32cTest, HardwareMatchesSoftware) {
  // Cross-checks the dispatched kernel against slice-by-8 at every offset
  // of an 8-byte word and from three register states, on lengths that
  // straddle the hardware kernel's edges: its 8-byte stride, the 3 x 256 B
  // and 3 x 1 KiB rounds of its three-stream passes (767-769, 3071-3073,
  // 6143-6145), a page payload with and without its trailer prefix (4080,
  // 4092), and a long buffer with a ragged tail (65539). On machines
  // without the instructions the dispatch is the software kernel and this
  // still passes trivially.
  Bytes buf = PatternBytes(42, 65539 + 8);
  for (size_t len :
       {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
        size_t{63}, size_t{64}, size_t{65}, size_t{511}, size_t{767},
        size_t{768}, size_t{769}, size_t{3071}, size_t{3072}, size_t{3073},
        size_t{4080}, size_t{4092}, size_t{4096}, size_t{6143}, size_t{6144},
        size_t{6145}, size_t{65539}}) {
    for (size_t offset = 0; offset <= 8; ++offset) {
      for (uint32_t state : {0u, 0xFFFFFFFFu, 123u}) {
        EXPECT_EQ(Crc32cExtend(state, buf.data() + offset, len),
                  Crc32cExtendSoftware(state, buf.data() + offset, len))
            << "len=" << len << " offset=" << offset << " state=" << state
            << " backend=" << Crc32cBackend();
      }
    }
  }
}

TEST(Crc32cTest, BackendNamed) {
  const std::string name = Crc32cBackend();
  EXPECT_TRUE(name == "sse4.2" || name == "armv8-crc" ||
              name == "slice-by-8")
      << name;
}

// ---- RetryPolicy / RunWithRetry --------------------------------------------

TEST(RetryTest, BackoffDoublesFromBaseAndCaps) {
  RetryPolicy p;
  p.base_backoff_us = 100;
  p.max_backoff_us = 450;
  EXPECT_EQ(p.BackoffUs(1), 100u);
  EXPECT_EQ(p.BackoffUs(2), 200u);
  EXPECT_EQ(p.BackoffUs(3), 400u);
  EXPECT_EQ(p.BackoffUs(4), 450u);  // capped
  RetryPolicy immediate;             // default base of 0: no sleeping
  EXPECT_EQ(immediate.BackoffUs(1), 0u);
  EXPECT_EQ(immediate.BackoffUs(3), 0u);
}

TEST(RetryTest, OnlyIOErrorAndBusyAreRetriable) {
  RetryPolicy p;
  EXPECT_TRUE(p.RetriableError(Status::IOError("x")));
  EXPECT_TRUE(p.RetriableError(Status::Busy("x")));
  EXPECT_FALSE(p.RetriableError(Status::Corruption("x")));
  EXPECT_FALSE(p.RetriableError(Status::InvalidArgument("x")));
  EXPECT_FALSE(p.RetriableError(Status::OK()));
}

TEST(RetryTest, TransientFaultSucceedsWithinBudget) {
  RetryPolicy p;
  p.max_attempts = 4;
  int attempts = 0;
  int retries = 0;
  Status s = RunWithRetry(
      p,
      [&] {
        ++attempts;
        return attempts < 3 ? Status::IOError("transient") : Status::OK();
      },
      [&] { ++retries; });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retries, 2);
}

TEST(RetryTest, PermanentFaultExhaustsBudget) {
  RetryPolicy p;
  p.max_attempts = 3;
  int attempts = 0;
  Status s = RunWithRetry(p, [&] {
    ++attempts;
    return Status::IOError("permanent");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(attempts, 3);
}

TEST(RetryTest, NonRetriableErrorReturnsImmediately) {
  RetryPolicy p;
  p.max_attempts = 5;
  int attempts = 0;
  Status s = RunWithRetry(p, [&] {
    ++attempts;
    return Status::Corruption("rot");
  });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(attempts, 1);
}

// ---- trailer seal / verify --------------------------------------------------

constexpr uint32_t kPhys = 256;
constexpr uint32_t kPayload = kPhys - VerifiedPageDevice::kTrailerBytes;

Bytes SealedPage(uint64_t seed, PageId id, uint16_t epoch) {
  Bytes page(kPhys, 0);
  Bytes payload = PatternBytes(seed, kPayload);
  std::memcpy(page.data(), payload.data(), kPayload);
  VerifiedPageDevice::SealPage(page.data(), kPhys, id, epoch);
  return page;
}

TEST(TrailerTest, SealVerifyRoundTrip) {
  Bytes page = SealedPage(1, 42, 1);
  EOS_EXPECT_OK(VerifiedPageDevice::VerifyPage(page.data(), kPhys, 42, 1));
  // Payload is untouched by sealing.
  EXPECT_EQ(Bytes(page.begin(), page.begin() + kPayload),
            PatternBytes(1, kPayload));
}

TEST(TrailerTest, AnyFlippedBitFailsVerification) {
  Bytes page = SealedPage(2, 7, 1);
  for (size_t bit = 0; bit < kPhys * 8; bit += 101) {
    page[bit / 8] ^= uint8_t{1} << (bit % 8);
    Status s = VerifiedPageDevice::VerifyPage(page.data(), kPhys, 7, 1);
    EXPECT_TRUE(s.IsCorruption()) << "bit " << bit << ": " << s.ToString();
    page[bit / 8] ^= uint8_t{1} << (bit % 8);
  }
  EOS_EXPECT_OK(VerifiedPageDevice::VerifyPage(page.data(), kPhys, 7, 1));
}

TEST(TrailerTest, WrongPageIdIsMisdirectedIO) {
  Bytes page = SealedPage(3, 5, 1);
  Status s = VerifiedPageDevice::VerifyPage(page.data(), kPhys, 6, 1);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("misdirected"), std::string::npos)
      << s.ToString();
}

TEST(TrailerTest, WrongEpochIsFormatMismatch) {
  Bytes page = SealedPage(4, 5, 1);
  Status s = VerifiedPageDevice::VerifyPage(page.data(), kPhys, 5, 2);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("format epoch"), std::string::npos)
      << s.ToString();
}

TEST(TrailerTest, UnwrittenZeroPageIsRejected) {
  Bytes page(kPhys, 0);
  Status s = VerifiedPageDevice::VerifyPage(page.data(), kPhys, 0, 1);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("missing integrity trailer"),
            std::string::npos)
      << s.ToString();
}

// ---- VerifiedPageDevice -----------------------------------------------------

TEST(VerifiedDeviceTest, LogicalGeometryAndRoundTrip) {
  MemPageDevice mem(kPhys, 8);
  VerifiedPageDevice dev(&mem, /*epoch=*/1);
  EXPECT_EQ(dev.page_size(), kPayload);
  EXPECT_EQ(dev.page_count(), 8u);
  Bytes w = PatternBytes(5, 3 * kPayload);
  EOS_ASSERT_OK(dev.WritePages(2, 3, w.data()));
  Bytes r(3 * kPayload);
  EOS_ASSERT_OK(dev.ReadPages(2, 3, r.data()));
  EXPECT_EQ(w, r);
  EOS_ASSERT_OK(dev.Grow(16));
  EXPECT_EQ(dev.page_count(), 16u);
  EXPECT_EQ(mem.page_count(), 16u);
}

TEST(VerifiedDeviceTest, MisdirectedWriteIsDetectedOnRead) {
  MemPageDevice mem(kPhys, 8);
  VerifiedPageDevice dev(&mem, 1);
  Bytes w = PatternBytes(6, kPayload);
  EOS_ASSERT_OK(dev.WritePages(2, 1, w.data()));
  // The "disk" delivers page 2's sectors when page 3 was asked for.
  Bytes raw(kPhys);
  EOS_ASSERT_OK(mem.ReadPages(2, 1, raw.data()));
  EOS_ASSERT_OK(mem.WritePages(3, 1, raw.data()));
  Bytes r(kPayload);
  Status s = dev.ReadPages(3, 1, r.data());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("misdirected"), std::string::npos)
      << s.ToString();
}

TEST(VerifiedDeviceTest, TransientReadFaultRetriesInvisibly) {
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  VerifiedPageDevice dev(&chaos, 1);
  Bytes w = PatternBytes(7, kPayload);
  EOS_ASSERT_OK(dev.WritePages(1, 1, w.data()));
  uint64_t retries_before = CounterValue(obs::kIoReadRetry);
  chaos.FailReadsAfter(0);  // transient: exactly the next read fails
  Bytes r(kPayload);
  EOS_ASSERT_OK(dev.ReadPages(1, 1, r.data()));
  EXPECT_EQ(w, r);
  EXPECT_EQ(CounterValue(obs::kIoReadRetry), retries_before + 1);
  EXPECT_EQ(dev.quarantined_count(), 0u);
}

TEST(VerifiedDeviceTest, PermanentDeviceFaultExhaustsBudgetNoQuarantine) {
  RetryPolicy p;
  p.max_attempts = 3;
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  VerifiedPageDevice dev(&chaos, 1, p);
  Bytes w = PatternBytes(8, kPayload);
  EOS_ASSERT_OK(dev.WritePages(1, 1, w.data()));
  uint64_t reads_before = chaos.stats().read_calls;
  uint64_t retries_before = CounterValue(obs::kIoReadRetry);
  chaos.FailReadsAfter(0, /*permanent=*/true);
  Bytes r(kPayload);
  Status s = dev.ReadPages(1, 1, r.data());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(chaos.stats().read_calls, reads_before + 3) << "one per attempt";
  EXPECT_EQ(CounterValue(obs::kIoReadRetry), retries_before + 2);
  // A device error is not evidence of bad sectors: nothing is quarantined,
  // and once the fault clears the data is still there.
  EXPECT_EQ(dev.quarantined_count(), 0u);
  chaos.Heal();
  EOS_ASSERT_OK(dev.ReadPages(1, 1, r.data()));
  EXPECT_EQ(w, r);
}

TEST(VerifiedDeviceTest, PersistentRotQuarantinesAndFailsFast) {
  RetryPolicy p;
  p.max_attempts = 3;
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  VerifiedPageDevice dev(&chaos, 1, p);
  Bytes w = PatternBytes(9, 2 * kPayload);
  EOS_ASSERT_OK(dev.WritePages(1, 2, w.data()));
  uint64_t fails_before = CounterValue(obs::kIoChecksumFail);
  uint64_t quarantined_before = CounterValue(obs::kIoQuarantinedPages);
  EOS_ASSERT_OK(chaos.CorruptPage(1, /*bits=*/3));

  Bytes r(2 * kPayload);
  Status s = dev.ReadPages(1, 2, r.data());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("page 1"), std::string::npos) << s.ToString();
  EXPECT_TRUE(dev.IsQuarantined(1));
  EXPECT_FALSE(dev.IsQuarantined(2)) << "the good page of the transfer";
  EXPECT_EQ(CounterValue(obs::kIoChecksumFail), fails_before + 3)
      << "one verification failure per attempt";
  EXPECT_EQ(CounterValue(obs::kIoQuarantinedPages), quarantined_before + 1);

  // Further reads fail fast: the device is not touched again.
  uint64_t reads_before = chaos.stats().read_calls;
  s = dev.ReadPages(1, 1, r.data());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("quarantined"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(chaos.stats().read_calls, reads_before);
  // The untouched neighbour still reads fine on its own.
  EOS_ASSERT_OK(dev.ReadPages(2, 1, r.data()));
  EXPECT_EQ(Bytes(r.begin(), r.begin() + kPayload),
            Bytes(w.begin() + kPayload, w.end()));
}

TEST(VerifiedDeviceTest, WriteLiftsQuarantine) {
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  VerifiedPageDevice dev(&chaos, 1);
  Bytes w = PatternBytes(10, kPayload);
  EOS_ASSERT_OK(dev.WritePages(4, 1, w.data()));
  EOS_ASSERT_OK(chaos.CorruptPage(4));
  Bytes r(kPayload);
  EXPECT_TRUE(dev.ReadPages(4, 1, r.data()).IsCorruption());
  ASSERT_TRUE(dev.IsQuarantined(4));

  Bytes w2 = PatternBytes(11, kPayload);
  EOS_ASSERT_OK(dev.WritePages(4, 1, w2.data()));
  EXPECT_FALSE(dev.IsQuarantined(4));
  EOS_ASSERT_OK(dev.ReadPages(4, 1, r.data()));
  EXPECT_EQ(w2, r);
}

TEST(VerifiedDeviceTest, ClearQuarantineRereadsTheDevice) {
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  VerifiedPageDevice dev(&chaos, 1);
  Bytes w = PatternBytes(12, kPayload);
  EOS_ASSERT_OK(dev.WritePages(5, 1, w.data()));
  // Keep a pristine copy of the physical page, rot the live one.
  Bytes good(kPhys);
  EOS_ASSERT_OK(chaos.inner()->ReadPages(5, 1, good.data()));
  EOS_ASSERT_OK(chaos.CorruptPage(5));
  Bytes r(kPayload);
  EXPECT_TRUE(dev.ReadPages(5, 1, r.data()).IsCorruption());
  ASSERT_TRUE(dev.IsQuarantined(5));
  // "Replace the disk": restore the sectors out of band, lift the flag.
  EOS_ASSERT_OK(chaos.inner()->WritePages(5, 1, good.data()));
  dev.ClearQuarantine(5);
  EXPECT_FALSE(dev.IsQuarantined(5));
  EOS_ASSERT_OK(dev.ReadPages(5, 1, r.data()));
  EXPECT_EQ(w, r);
}

TEST(VerifiedDeviceTest, TransientWriteFaultRetries) {
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  VerifiedPageDevice dev(&chaos, 1);
  uint64_t retries_before = CounterValue(obs::kIoWriteRetry);
  chaos.FailWritesAfter(0);  // transient
  Bytes w = PatternBytes(13, kPayload);
  EOS_ASSERT_OK(dev.WritePages(3, 1, w.data()));
  EXPECT_EQ(CounterValue(obs::kIoWriteRetry), retries_before + 1);
  Bytes r(kPayload);
  EOS_ASSERT_OK(dev.ReadPages(3, 1, r.data()));
  EXPECT_EQ(w, r);
}

TEST(VerifiedDeviceTest, TornWriteTrailingPagesFailClosed) {
  ChaosPageDevice chaos(std::make_unique<MemPageDevice>(kPhys, 8), 99);
  // No retries: the torn write must not be patched up by a second attempt —
  // this models power loss, where there is no second attempt.
  VerifiedPageDevice dev(&chaos, 1, RetryPolicy::None());
  Bytes w = PatternBytes(14, 4 * kPayload);
  chaos.TearWriteAfter(0, /*keep_pages=*/2);
  EXPECT_TRUE(dev.WritePages(0, 4, w.data()).IsIOError());

  // The two persisted pages verify; the torn-off tail fails closed with
  // the "missing trailer" diagnosis, never serving stale or zero bytes.
  Bytes r(kPayload);
  for (PageId p = 0; p < 2; ++p) {
    EOS_ASSERT_OK(dev.ReadPages(p, 1, r.data()));
    EXPECT_EQ(r, Bytes(w.begin() + p * kPayload,
                       w.begin() + (p + 1) * kPayload));
  }
  for (PageId p = 2; p < 4; ++p) {
    Status s = dev.ReadPages(p, 1, r.data());
    EXPECT_TRUE(s.IsCorruption()) << "page " << p << ": " << s.ToString();
    EXPECT_NE(s.message().find("missing integrity trailer"),
              std::string::npos)
        << s.ToString();
  }
}

// ---- byte-range reads -------------------------------------------------------

// Byte offsets on, just before and just after every page boundary of a
// `pages`-page volume of `page_size`-byte pages, clipped to the volume.
std::vector<uint64_t> BoundaryGrid(uint32_t page_size, uint32_t pages) {
  const uint64_t end = uint64_t{pages} * page_size;
  std::vector<uint64_t> grid;
  for (uint64_t b = 0; b <= end; b += page_size) {
    if (b > 0) grid.push_back(b - 1);
    grid.push_back(b);
    if (b < end) grid.push_back(b + 1);
  }
  return grid;
}

// ReadRange against whole-page reads, on the verified device's own range
// loop and on the base class's staging path of the raw device beneath it:
// the same bytes, nothing written outside `out`, and the same I/O charge
// as ReadPages of the pages the range touches.
TEST(VerifiedDeviceTest, ReadRangeMatchesWholePageReads) {
  constexpr uint32_t kPages = 5;
  constexpr size_t kCanary = 16;
  constexpr uint8_t kCanaryByte = 0xA5;
  MemPageDevice mem(kPhys, kPages);
  VerifiedPageDevice verified(&mem, 1);
  Bytes w = PatternBytes(15, kPages * kPayload);
  EOS_ASSERT_OK(verified.WritePages(0, kPages, w.data()));
  // Charges on the device read and on the raw device beneath it.
  auto reset = [&](PageDevice* dev) {
    for (PageDevice* d : {dev, static_cast<PageDevice*>(&mem)}) {
      d->ResetStats();
      d->ForgetHeadPosition();
    }
  };
  auto charges = [&](PageDevice* dev) {
    return dev->stats().ToString() + " / " + mem.stats().ToString();
  };
  for (PageDevice* dev : {static_cast<PageDevice*>(&verified),
                          static_cast<PageDevice*>(&mem)}) {
    const uint32_t ps = dev->page_size();
    Bytes whole(kPages * ps);
    EOS_ASSERT_OK(dev->ReadPages(0, kPages, whole.data()));
    const std::vector<uint64_t> grid = BoundaryGrid(ps, kPages);
    for (uint64_t lo : grid) {
      for (uint64_t hi : grid) {
        if (hi <= lo) continue;
        SCOPED_TRACE("page size " + std::to_string(ps) + ", range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + ")");
        Bytes out(kCanary + (hi - lo) + kCanary, kCanaryByte);
        reset(dev);
        EOS_ASSERT_OK(dev->ReadRange(0, lo, hi, out.data() + kCanary));
        const std::string range_charges = charges(dev);
        EXPECT_TRUE(std::equal(out.begin() + kCanary, out.end() - kCanary,
                               whole.begin() + lo));
        EXPECT_TRUE(std::all_of(out.begin(), out.begin() + kCanary,
                                [](uint8_t b) { return b == kCanaryByte; }));
        EXPECT_TRUE(std::all_of(out.end() - kCanary, out.end(),
                                [](uint8_t b) { return b == kCanaryByte; }));

        const uint64_t p0 = lo / ps;
        const uint32_t n = static_cast<uint32_t>((hi - 1) / ps - p0 + 1);
        Bytes pages(size_t{n} * ps);
        reset(dev);
        EOS_ASSERT_OK(dev->ReadPages(p0, n, pages.data()));
        EXPECT_EQ(range_charges, charges(dev));
      }
    }
  }
}

// Every staged page is verified, even one the range covers only in part:
// with one page rotted, the ranges that touch it fail closed naming it,
// the ranges that miss it read fine, and only it is quarantined.
TEST(VerifiedDeviceTest, ReadRangeFailsClosedOnlyWhereItTouchesRot) {
  constexpr uint32_t kPages = 5;
  constexpr PageId kRotten = 2;
  RetryPolicy p;
  p.max_attempts = 2;
  MemPageDevice mem(kPhys, kPages);
  VerifiedPageDevice dev(&mem, 1, p);
  Bytes w = PatternBytes(16, kPages * kPayload);
  EOS_ASSERT_OK(dev.WritePages(0, kPages, w.data()));
  mem.raw(kRotten)[kPayload / 2] ^= 0x10;

  const std::vector<uint64_t> grid = BoundaryGrid(kPayload, kPages);
  for (uint64_t lo : grid) {
    for (uint64_t hi : grid) {
      if (hi <= lo) continue;
      SCOPED_TRACE("range [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + ")");
      Bytes out(hi - lo);
      Status s = dev.ReadRange(0, lo, hi, out.data());
      if (lo / kPayload <= kRotten && kRotten <= (hi - 1) / kPayload) {
        EXPECT_TRUE(s.IsCorruption()) << s.ToString();
        EXPECT_NE(s.message().find("page " + std::to_string(kRotten)),
                  std::string::npos)
            << s.ToString();
      } else {
        EOS_EXPECT_OK(s);
        EXPECT_TRUE(std::equal(out.begin(), out.end(), w.begin() + lo));
      }
    }
  }
  EXPECT_EQ(dev.Quarantined(), std::vector<PageId>{kRotten});
}

// ---- write-ahead log CRC framing -------------------------------------------

class LogFramingTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/eos_integrity_log_test.wal";

  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes `n` commit markers (the simplest record) and returns the file
  // size after close.
  uint64_t WriteCommits(int n) {
    auto log = LogManager::CreateFileBacked(path_);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    for (int i = 0; i < n; ++i) {
      EOS_EXPECT_OK((*log)->LogCommit(static_cast<uint64_t>(i + 1)));
    }
    log->reset();  // close fd
    struct stat st{};
    EXPECT_EQ(::stat(path_.c_str(), &st), 0);
    return static_cast<uint64_t>(st.st_size);
  }
};

TEST_F(LogFramingTest, RoundTripAllRecords) {
  WriteCommits(3);
  auto records = LogManager::ReadLogFile(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].object_id, 1u);
  EXPECT_EQ((*records)[2].object_id, 3u);
}

TEST_F(LogFramingTest, TornTailIsEndOfLog) {
  uint64_t full = WriteCommits(3);
  ASSERT_EQ(full % 3, 0u) << "3 identical-size frames expected";
  uint64_t frame = full / 3;
  // A crash tore the last frame: every truncation point inside it yields
  // exactly the two intact records.
  for (uint64_t cut = 1; cut < frame; cut += 3) {
    WriteCommits(3);
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(full - cut)), 0);
    auto records = LogManager::ReadLogFile(path_);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_EQ(records->size(), 2u) << "cut " << cut << " bytes";
  }
}

TEST_F(LogFramingTest, RottedMiddleFrameEndsTheLogThere) {
  uint64_t full = WriteCommits(3);
  uint64_t frame = full / 3;
  // Flip one payload byte of the second frame: the log now ends after the
  // first record — the rot is indistinguishable from a torn tail by
  // design, and recovery proceeds from the intact prefix.
  FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(frame + 9), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  auto records = LogManager::ReadLogFile(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(LogFramingTest, ValidCrcButUnparseablePayloadIsCorruption) {
  // A frame whose CRC holds but whose payload is garbage was not written
  // by a torn append — it is a foreign or damaged file, a hard error.
  Bytes payload = {0xDE, 0xAD, 0xBE, 0xEF};
  Bytes frame(LogManager::kFrameHeaderBytes + payload.size());
  EncodeU32(frame.data(), static_cast<uint32_t>(payload.size()));
  EncodeU32(frame.data() + 4, Crc32c(payload.data(), payload.size()));
  std::memcpy(frame.data() + LogManager::kFrameHeaderBytes, payload.data(),
              payload.size());
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
  std::fclose(f);
  auto records = LogManager::ReadLogFile(path_);
  EXPECT_TRUE(records.status().IsCorruption())
      << records.status().ToString();
}

}  // namespace
}  // namespace eos
