#include "io/verified_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "io/buffer_pool.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"

namespace eos {

namespace {

// Trailer prefix (the part covered by the CRC together with the payload).
constexpr uint32_t kPrefixBytes = 12;  // magic u16 + epoch u16 + page id u64

uint32_t TrailerCrc(const uint8_t* physical, uint32_t physical_page_size) {
  const uint8_t* trailer = physical + physical_page_size -
                           VerifiedPageDevice::kTrailerBytes;
  uint32_t state = Crc32cInit();
  state = Crc32cExtend(state, physical,
                       physical_page_size - VerifiedPageDevice::kTrailerBytes);
  state = Crc32cExtend(state, trailer, kPrefixBytes);
  return Crc32cFinalize(state);
}

}  // namespace

VerifiedPageDevice::VerifiedPageDevice(PageDevice* inner, uint16_t epoch,
                                       const RetryPolicy& retry)
    : PageDevice(inner->page_size() - kTrailerBytes, inner->page_count()),
      inner_(inner),
      epoch_(epoch),
      retry_(retry) {
  assert(inner->page_size() > 2 * kTrailerBytes);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_checksum_fail_ = reg.counter(obs::kIoChecksumFail);
  m_read_retry_ = reg.counter(obs::kIoReadRetry);
  m_write_retry_ = reg.counter(obs::kIoWriteRetry);
  m_quarantined_ = reg.counter(obs::kIoQuarantinedPages);
}

VerifiedPageDevice::VerifiedPageDevice(std::unique_ptr<PageDevice> inner,
                                       uint16_t epoch,
                                       const RetryPolicy& retry)
    : VerifiedPageDevice(inner.get(), epoch, retry) {
  owned_ = std::move(inner);
}

void VerifiedPageDevice::SealPage(uint8_t* physical,
                                  uint32_t physical_page_size, PageId id,
                                  uint16_t epoch) {
  uint8_t* trailer = physical + physical_page_size - kTrailerBytes;
  EncodeU16(trailer, kTrailerMagic);
  EncodeU16(trailer + 2, epoch);
  EncodeU64(trailer + 4, id);
  EncodeU32(trailer + 12, TrailerCrc(physical, physical_page_size));
}

Status VerifiedPageDevice::VerifyPage(const uint8_t* physical,
                                      uint32_t physical_page_size, PageId id,
                                      uint16_t epoch) {
  const uint8_t* trailer = physical + physical_page_size - kTrailerBytes;
  // Failure messages only: a good page must not pay for the string.
  auto page = [id] { return "page " + std::to_string(id); };
  if (DecodeU16(trailer) != kTrailerMagic) {
    return Status::Corruption(page() +
                              ": missing integrity trailer (unwritten, torn "
                              "or pre-checksum page)");
  }
  if (DecodeU16(trailer + 2) != epoch) {
    return Status::Corruption(page() + ": format epoch " +
                              std::to_string(DecodeU16(trailer + 2)) +
                              " does not match volume epoch " +
                              std::to_string(epoch));
  }
  if (DecodeU64(trailer + 4) != id) {
    return Status::Corruption(page() + ": trailer names page " +
                              std::to_string(DecodeU64(trailer + 4)) +
                              " (misdirected I/O)");
  }
  if (DecodeU32(trailer + 12) != TrailerCrc(physical, physical_page_size)) {
    return Status::Corruption(page() + ": checksum mismatch");
  }
  return Status::OK();
}

std::vector<PageId> VerifiedPageDevice::Quarantined() const {
  LatchGuard g(quarantine_latch_);
  return std::vector<PageId>(quarantined_.begin(), quarantined_.end());
}

bool VerifiedPageDevice::IsQuarantined(PageId id) const {
  LatchGuard g(quarantine_latch_);
  return quarantined_.count(id) > 0;
}

size_t VerifiedPageDevice::quarantined_count() const {
  LatchGuard g(quarantine_latch_);
  return quarantined_.size();
}

void VerifiedPageDevice::ClearQuarantine(PageId id) {
  LatchGuard g(quarantine_latch_);
  quarantined_.erase(id);
}

Status VerifiedPageDevice::Grow(uint64_t new_page_count) {
  EOS_RETURN_IF_ERROR(inner_->Grow(new_page_count));
  SetPageCount(inner_->page_count());
  return Status::OK();
}

Status VerifiedPageDevice::Sync() { return inner_->Sync(); }

Status VerifiedPageDevice::ReadAndVerifyOnce(PageId first, uint32_t n,
                                             uint8_t* staging, size_t skip,
                                             size_t len, uint8_t* out,
                                             PageId* bad_page) {
  uint32_t phys = physical_page_size();
  EOS_RETURN_IF_ERROR(inner_->ReadPages(first, n, staging));
  const size_t end = skip + len;
  Status verdict;
  for (uint32_t i = 0; i < n; ++i) {
    const uint8_t* page = staging + size_t{i} * phys;
    Status s = VerifyPage(page, phys, first + i, epoch_);
    if (!s.ok()) {
      m_checksum_fail_->Inc();
      obs::RecordEvent(obs::EventKind::kChecksumFail, "verify_read",
                       first + i, /*b=*/0, /*c=*/0, /*ok=*/false);
      if (verdict.ok()) {
        verdict = std::move(s);
        *bad_page = first + i;
      }
      continue;
    }
    if (!verdict.ok()) continue;  // `out` is unspecified from here on
    const size_t page_lo = size_t{i} * page_size_;
    const size_t from = std::max(skip, page_lo);
    const size_t to = std::min(end, page_lo + page_size_);
    if (from < to) {
      std::memcpy(out + (from - skip), page + (from - page_lo), to - from);
    }
  }
  return verdict;
}

Status VerifiedPageDevice::DoRead(PageId first, uint32_t n, uint8_t* out) {
  return DoReadRange(first, n, 0, size_t{n} * page_size_, out);
}

Status VerifiedPageDevice::DoReadRange(PageId first, uint32_t n, size_t skip,
                                       size_t len, uint8_t* out) {
  {
    LatchGuard g(quarantine_latch_);
    auto it = quarantined_.lower_bound(first);
    if (it != quarantined_.end() && *it < first + n) {
      return Status::Corruption("page " + std::to_string(*it) +
                                " is quarantined");
    }
  }
  // Pooled staging: steady-state reads perform no heap allocation.
  BufferPool::Buffer staging =
      BufferPool::Default()->Acquire(size_t{n} * physical_page_size());
  PageId bad_page = kInvalidPage;
  Status s;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Device errors and checksum mismatches alike get a fresh transfer:
      // a transient fault or bus flip heals, persisted rot does not.
      BackoffSleep(retry_.BackoffUs(attempt));
      m_read_retry_->Inc();
    }
    bad_page = kInvalidPage;
    s = ReadAndVerifyOnce(first, n, staging.data(), skip, len, out,
                          &bad_page);
    if (s.ok()) return s;
    if (!retry_.RetriableError(s) && !s.IsCorruption()) return s;
  }
  if (s.IsCorruption() && bad_page != kInvalidPage) {
    // Out of retries with the checksum still failing: persistent
    // corruption. Quarantine every page of the transfer that still fails
    // verification so later reads fail fast.
    uint32_t phys = physical_page_size();
    uint64_t newly = 0;
    {
      LatchGuard g(quarantine_latch_);
      for (uint32_t i = 0; i < n; ++i) {
        if (!VerifyPage(staging.data() + size_t{i} * phys, phys, first + i,
                        epoch_)
                 .ok()) {
          if (quarantined_.insert(first + i).second) {
            ++newly;
            obs::RecordEvent(obs::EventKind::kQuarantine, "persistent_rot",
                             first + i, /*b=*/0, /*c=*/0, /*ok=*/false);
          }
        }
      }
    }
    if (newly > 0) m_quarantined_->Inc(newly);
  }
  return s;
}

Status VerifiedPageDevice::DoWrite(PageId first, uint32_t n,
                                   const uint8_t* data) {
  uint32_t phys = physical_page_size();
  // Payload and trailer together cover every staged byte, so the pooled
  // (uninitialized) buffer never leaks stale bits to the device.
  BufferPool::Buffer staging =
      BufferPool::Default()->Acquire(size_t{n} * phys);
  for (uint32_t i = 0; i < n; ++i) {
    std::memcpy(staging.data() + size_t{i} * phys,
                data + size_t{i} * page_size_, page_size_);
    SealPage(staging.data() + size_t{i} * phys, phys, first + i, epoch_);
  }
  Status s = RunWithRetry(
      retry_,
      [&] { return inner_->WritePages(first, n, staging.data()); },
      [&] { m_write_retry_->Inc(); });
  if (!s.ok()) return s;
  // A freshly sealed page is good again by definition.
  uint64_t lifted = 0;
  {
    LatchGuard g(quarantine_latch_);
    for (uint32_t i = 0; i < n; ++i) lifted += quarantined_.erase(first + i);
  }
  (void)lifted;
  return Status::OK();
}

Status VerifiedPageDevice::DoWriteRuns(const ConstPageRun* runs, size_t n) {
  uint32_t phys = physical_page_size();
  size_t total_pages = 0;
  for (size_t i = 0; i < n; ++i) total_pages += runs[i].pages;
  BufferPool::Buffer staging =
      BufferPool::Default()->Acquire(total_pages * phys);
  std::vector<ConstPageRun> inner_runs(n);
  uint8_t* dst = staging.data();
  for (size_t i = 0; i < n; ++i) {
    inner_runs[i] = ConstPageRun{runs[i].first, runs[i].pages, dst};
    for (uint32_t p = 0; p < runs[i].pages; ++p) {
      std::memcpy(dst, runs[i].data + size_t{p} * page_size_, page_size_);
      SealPage(dst, phys, runs[i].first + p, epoch_);
      dst += phys;
    }
  }
  Status s = RunWithRetry(
      retry_,
      [&] { return inner_->WriteRuns(inner_runs.data(), n); },
      [&] { m_write_retry_->Inc(); });
  if (!s.ok()) return s;
  {
    LatchGuard g(quarantine_latch_);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t p = 0; p < runs[i].pages; ++p) {
        quarantined_.erase(runs[i].first + p);
      }
    }
  }
  return Status::OK();
}

}  // namespace eos
