#ifndef EOS_IO_VERIFIED_DEVICE_H_
#define EOS_IO_VERIFIED_DEVICE_H_

#include <memory>
#include <set>
#include <vector>

#include "common/latch.h"
#include "common/retry.h"
#include "common/status.h"
#include "io/page_device.h"
#include "obs/metrics.h"

namespace eos {

// Self-verifying page layer (DESIGN.md "Integrity & degraded operation").
//
// Sits between the pager/Database and any raw PageDevice. Each physical
// page of the wrapped device ends in a 16-byte trailer:
//
//   [magic u16][format epoch u16][page id u64][crc32c u32]
//
// where the CRC32C covers the payload followed by the trailer prefix
// (magic, epoch, page id) — so bit-rot anywhere in the page, a page
// written to or read from the wrong address (the id check), and a page
// from a different format generation (the epoch check) all fail closed.
// The payload visible above this layer is page_size() = physical - 16
// bytes; the layer seals the trailer on every write and strips + verifies
// it on every read.
//
// Fault handling on reads, in order:
//   * device errors (IOError/Busy) retry under the bounded
//     exponential-backoff RetryPolicy — transient chaos faults succeed
//     invisibly, with io.read_retry counting the extra attempts;
//   * a trailer that fails verification is re-read up to the same budget
//     (a transient bus flip heals, persisted rot does not);
//   * when the budget is exhausted the failing pages are *quarantined* and
//     the read returns a typed Status::Corruption naming the first bad
//     page. Further reads of a quarantined page fail fast without touching
//     the device. A successful write re-seals the page and lifts the
//     quarantine — that is how repair readmits storage.
//
// An all-zero physical page (no trailer at all) is NOT accepted: the
// layers above never read pages they have not written, so an unwritten
// page on the read path is itself evidence of a torn or misdirected write.
//
// Thread-safe to the same degree as the wrapped device; quarantine state
// is latched.
class VerifiedPageDevice final : public PageDevice {
 public:
  static constexpr uint32_t kTrailerBytes = 16;
  static constexpr uint16_t kTrailerMagic = 0x7C32;  // "|2"

  // Non-owning: `inner` must outlive the wrapper.
  VerifiedPageDevice(PageDevice* inner, uint16_t epoch,
                     const RetryPolicy& retry = RetryPolicy{});
  // Owning.
  VerifiedPageDevice(std::unique_ptr<PageDevice> inner, uint16_t epoch,
                     const RetryPolicy& retry = RetryPolicy{});

  PageDevice* inner() { return inner_; }
  uint16_t epoch() const { return epoch_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // ---- quarantine ---------------------------------------------------------
  std::vector<PageId> Quarantined() const;
  bool IsQuarantined(PageId id) const;
  size_t quarantined_count() const;
  // Lifts a quarantine without rewriting the page (scrub uses this when a
  // later re-read proves the page good; repair relies on writes instead).
  void ClearQuarantine(PageId id);

  Status Grow(uint64_t new_page_count) override;
  Status Sync() override;

  // ---- trailer primitives (shared with tools/tests) -----------------------

  // Seals `physical` (physical_page_size bytes) in place: payload stays,
  // trailer is stamped for (id, epoch).
  static void SealPage(uint8_t* physical, uint32_t physical_page_size,
                       PageId id, uint16_t epoch);

  // OK, or a Corruption explaining which trailer field failed.
  static Status VerifyPage(const uint8_t* physical,
                           uint32_t physical_page_size, PageId id,
                           uint16_t epoch);

 protected:
  // A whole-page read is the byte range that covers every page.
  Status DoRead(PageId first, uint32_t n, uint8_t* out) override;
  Status DoReadRange(PageId first, uint32_t n, size_t skip, size_t len,
                     uint8_t* out) override;
  Status DoWrite(PageId first, uint32_t n, const uint8_t* data) override;
  // Batch writes seal every page into one pooled staging buffer and
  // forward a single vectored batch to the wrapped device. Batch reads use
  // the default per-run loop so each run keeps its own retry/quarantine
  // handling — and is verified on whichever executor worker read it.
  Status DoWriteRuns(const ConstPageRun* runs, size_t n) override;

 private:
  uint32_t physical_page_size() const { return inner_->page_size(); }

  // One physical read attempt of the n pages at `first` into `staging`.
  // Verifies every page, and copies each good page's part of payload
  // bytes [skip, skip + len) into `out` while the page is still in cache.
  // Fills `bad_page` with the first failing page on Corruption; `out` is
  // then unspecified.
  Status ReadAndVerifyOnce(PageId first, uint32_t n, uint8_t* staging,
                           size_t skip, size_t len, uint8_t* out,
                           PageId* bad_page);

  std::unique_ptr<PageDevice> owned_;
  PageDevice* inner_;
  uint16_t epoch_;
  RetryPolicy retry_;

  mutable Latch quarantine_latch_;
  std::set<PageId> quarantined_;

  // Process-wide metric mirrors (stable registry pointers, looked up once).
  obs::Counter* m_checksum_fail_;
  obs::Counter* m_read_retry_;
  obs::Counter* m_write_retry_;
  obs::Counter* m_quarantined_;
};

}  // namespace eos

#endif  // EOS_IO_VERIFIED_DEVICE_H_
