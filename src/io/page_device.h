#ifndef EOS_IO_PAGE_DEVICE_H_
#define EOS_IO_PAGE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "io/io_stats.h"

namespace eos {

// Identifies a page within a volume. Page 0 is the superblock.
using PageId = uint64_t;

constexpr PageId kInvalidPage = ~uint64_t{0};

// A physically contiguous run of pages, the unit the buddy system hands out.
struct Extent {
  PageId first = kInvalidPage;
  uint32_t pages = 0;

  bool valid() const { return first != kInvalidPage && pages > 0; }
  PageId end() const { return first + pages; }
};

inline bool operator==(const Extent& a, const Extent& b) {
  return a.first == b.first && a.pages == b.pages;
}

// One scatter-gather element of a batch transfer: `pages` physically
// adjacent pages starting at `first`, moved to/from `data`
// (pages * page_size bytes). Runs in a batch need not be sorted or
// disjoint; each is charged like one ReadPages/WritePages call.
struct PageRun {
  PageId first = kInvalidPage;
  uint32_t pages = 0;
  uint8_t* data = nullptr;
};

struct ConstPageRun {
  PageId first = kInvalidPage;
  uint32_t pages = 0;
  const uint8_t* data = nullptr;
};

// Random-access array of fixed-size pages with physical-contiguity-aware
// I/O accounting. Subclasses provide the backing store; seek/transfer
// accounting lives here so every backend charges identically.
//
// Thread-safe: accounting is lock-free (relaxed atomic counters plus one
// atomic exchange for the head position, so it never serializes parallel
// transfers), and both backends perform the data transfer itself safely
// under concurrency (pread/pwrite for files; the in-memory backend
// serializes transfers against Grow).
class PageDevice {
 public:
  PageDevice(uint32_t page_size, uint64_t page_count)
      : page_size_(page_size), page_count_(page_count) {}
  virtual ~PageDevice() = default;

  PageDevice(const PageDevice&) = delete;
  PageDevice& operator=(const PageDevice&) = delete;

  uint32_t page_size() const { return page_size_; }
  uint64_t page_count() const {
    return page_count_.load(std::memory_order_relaxed);
  }

  // Reads `n` physically adjacent pages starting at `first` into `out`
  // (n * page_size bytes). Charged as one access: at most one seek.
  Status ReadPages(PageId first, uint32_t n, uint8_t* out);

  // Reads bytes [lo, hi) of the pages from `base` on into `out` (hi - lo
  // bytes; lo < hi). Charged exactly like ReadPages of the pages the range
  // touches, base + lo / page_size through base + (hi - 1) / page_size.
  // On error `out` is unspecified.
  Status ReadRange(PageId base, uint64_t lo, uint64_t hi, uint8_t* out);

  // Writes `n` physically adjacent pages starting at `first`.
  Status WritePages(PageId first, uint32_t n, const uint8_t* data);

  // Scatter-gather batch: transfers every run, charging each run like one
  // ReadPages/WritePages call. The default implementation loops over the
  // runs; FilePageDevice combines file-adjacent runs into single
  // preadv/pwritev submissions. All runs are range-checked up front, so a
  // failed batch has transferred only whole runs.
  Status ReadRuns(const PageRun* runs, size_t n);
  Status WriteRuns(const ConstPageRun* runs, size_t n);

  // Extends the volume to `new_page_count` pages of zeroes.
  virtual Status Grow(uint64_t new_page_count) = 0;

  // Durably flushes buffered writes (no-op for the memory backend).
  virtual Status Sync() { return Status::OK(); }

  IoStats stats() const {
    IoStats s;
    s.read_calls = read_calls_.load(std::memory_order_relaxed);
    s.write_calls = write_calls_.load(std::memory_order_relaxed);
    s.pages_read = pages_read_.load(std::memory_order_relaxed);
    s.pages_written = pages_written_.load(std::memory_order_relaxed);
    s.seeks = seeks_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    read_calls_.store(0, std::memory_order_relaxed);
    write_calls_.store(0, std::memory_order_relaxed);
    pages_read_.store(0, std::memory_order_relaxed);
    pages_written_.store(0, std::memory_order_relaxed);
    seeks_.store(0, std::memory_order_relaxed);
  }

  // Forgets the head position so the next access is charged a seek;
  // benches call this to measure cold costs.
  void ForgetHeadPosition() {
    head_pos_.store(kInvalidPage, std::memory_order_relaxed);
  }

 protected:
  virtual Status DoRead(PageId first, uint32_t n, uint8_t* out) = 0;
  virtual Status DoWrite(PageId first, uint32_t n, const uint8_t* data) = 0;
  // Moves bytes [skip, skip + len) of the n pages at `first` into `out`.
  // The default reads a whole-page range straight into `out` and stages
  // any other through a pooled buffer; VerifiedPageDevice copies each
  // page's part as soon as that page verifies.
  virtual Status DoReadRange(PageId first, uint32_t n, size_t skip,
                             size_t len, uint8_t* out);
  virtual Status DoReadRuns(const PageRun* runs, size_t n);
  virtual Status DoWriteRuns(const ConstPageRun* runs, size_t n);

  // Grow paths record the new size only after the backing store has
  // actually grown; a failed Grow must leave the count untouched, or the
  // range check would admit I/O beyond the real end of the volume.
  // Relaxed: readers racing a concurrent Grow may see either the old or
  // the new count; both are safe (the count never shrinks), and the grow
  // path publishes the new pages to other threads via its own latch.
  void SetPageCount(uint64_t n) {
    page_count_.store(n, std::memory_order_relaxed);
  }

  uint32_t page_size_;

 private:
  Status CheckRange(PageId first, uint32_t n) const;

  // One access worth of accounting: a call, n transferred pages, and a
  // seek when the access does not continue from the previous head
  // position. The head update is a single atomic exchange (the CAS-style
  // serialization point), so concurrent accesses from the worker pool
  // never queue behind a stats mutex; each still observes *some*
  // interleaving's head position, which is exactly what a shared disk arm
  // would serve.
  void Account(bool is_read, PageId first, uint32_t n);

  std::atomic<uint64_t> page_count_;

  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> pages_written_{0};
  std::atomic<uint64_t> seeks_{0};
  std::atomic<PageId> head_pos_{kInvalidPage};  // page the head reads next
};

// Volatile vector-backed device for tests and simulation benches.
class MemPageDevice final : public PageDevice {
 public:
  MemPageDevice(uint32_t page_size, uint64_t page_count);

  // Device pre-loaded with `image` (page_count * page_size bytes, shorter
  // images are zero-padded) — crash simulation re-opens a snapshot of a
  // ChaosPageDevice's persisted bytes this way.
  MemPageDevice(uint32_t page_size, uint64_t page_count,
                std::vector<uint8_t> image);

  Status Grow(uint64_t new_page_count) override;

  // Testing hook: direct access to raw page bytes without I/O accounting.
  uint8_t* raw(PageId id) { return &mem_[id * page_size_]; }

 protected:
  Status DoRead(PageId first, uint32_t n, uint8_t* out) override;
  Status DoWrite(PageId first, uint32_t n, const uint8_t* data) override;

 private:
  mutable SharedLatch mem_latch_;  // Grow is exclusive; transfers shared
  std::vector<uint8_t> mem_;
};

// POSIX file-backed device; the volume is a flat file of pages.
class FilePageDevice final : public PageDevice {
 public:
  ~FilePageDevice() override;

  // Creates a new volume file (truncating any existing one).
  static StatusOr<std::unique_ptr<FilePageDevice>> Create(
      const std::string& path, uint32_t page_size, uint64_t page_count);

  // Opens an existing volume file; page_size must match how it was created
  // (the superblock layer above verifies this).
  static StatusOr<std::unique_ptr<FilePageDevice>> Open(
      const std::string& path, uint32_t page_size);

  Status Grow(uint64_t new_page_count) override;

  // Durability barrier. Page writes never change file metadata the data
  // depends on (the size only moves at Grow, whose ftruncate the next
  // barrier covers), so the default is the cheaper fdatasync. Full fsync
  // can be forced per device with set_full_sync(true) or process-wide with
  // EOS_FULL_SYNC=1 in the environment (read once per device at creation).
  Status Sync() override;

  void set_full_sync(bool on) { full_sync_ = on; }
  bool full_sync() const { return full_sync_; }

 protected:
  Status DoRead(PageId first, uint32_t n, uint8_t* out) override;
  Status DoWrite(PageId first, uint32_t n, const uint8_t* data) override;
  // File-adjacent runs are combined into single preadv/pwritev
  // submissions: one syscall moves many scattered buffers.
  Status DoReadRuns(const PageRun* runs, size_t n) override;
  Status DoWriteRuns(const ConstPageRun* runs, size_t n) override;

 private:
  FilePageDevice(int fd, uint32_t page_size, uint64_t page_count);

  int fd_ = -1;
  bool full_sync_ = false;
};

}  // namespace eos

#endif  // EOS_IO_PAGE_DEVICE_H_
