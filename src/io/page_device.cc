#include "io/page_device.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "io/buffer_pool.h"
#include "obs/event_journal.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span_counts.h"

namespace eos {

namespace {

struct DeviceByteCounters {
  obs::Counter* bytes_read;
  obs::Counter* bytes_written;
};

const DeviceByteCounters& ByteCounters() {
  static DeviceByteCounters* c = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    auto* cc = new DeviceByteCounters();
    cc->bytes_read = r.counter(obs::kIoBytesRead);
    cc->bytes_written = r.counter(obs::kIoBytesWritten);
    return cc;
  }();
  return *c;
}

}  // namespace

Status PageDevice::CheckRange(PageId first, uint32_t n) const {
  if (n == 0) return Status::InvalidArgument("zero-page I/O");
  const uint64_t count = page_count();
  if (first + n > count || first + n < first) {
    return Status::OutOfRange("page range [" + std::to_string(first) + ", " +
                              std::to_string(first + n) + ") beyond volume of " +
                              std::to_string(count) + " pages");
  }
  return Status::OK();
}

void PageDevice::Account(bool is_read, PageId first, uint32_t n) {
  if (is_read) {
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    pages_read_.fetch_add(n, std::memory_order_relaxed);
    ByteCounters().bytes_read->Inc(uint64_t{n} * page_size_);
  } else {
    write_calls_.fetch_add(1, std::memory_order_relaxed);
    pages_written_.fetch_add(n, std::memory_order_relaxed);
    ByteCounters().bytes_written->Inc(uint64_t{n} * page_size_);
  }
  PageId prev = head_pos_.exchange(first + n, std::memory_order_relaxed);
  bool seek = prev != first;
  if (seek) seeks_.fetch_add(1, std::memory_order_relaxed);
  obs::ChargeSpanIo(this, is_read, n, seek);
}

Status PageDevice::ReadPages(PageId first, uint32_t n, uint8_t* out) {
  EOS_RETURN_IF_ERROR(CheckRange(first, n));
  Account(/*is_read=*/true, first, n);
  return DoRead(first, n, out);
}

Status PageDevice::ReadRange(PageId base, uint64_t lo, uint64_t hi,
                             uint8_t* out) {
  if (hi <= lo) return Status::InvalidArgument("empty byte range");
  const uint64_t p0 = lo / page_size_;
  const uint64_t pages = (hi - 1) / page_size_ - p0 + 1;
  if (pages > UINT32_MAX) {
    return Status::OutOfRange("byte range [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + ") is too long");
  }
  const uint32_t n = static_cast<uint32_t>(pages);
  EOS_RETURN_IF_ERROR(CheckRange(base + p0, n));
  Account(/*is_read=*/true, base + p0, n);
  return DoReadRange(base + p0, n, lo - p0 * page_size_, hi - lo, out);
}

Status PageDevice::DoReadRange(PageId first, uint32_t n, size_t skip,
                               size_t len, uint8_t* out) {
  const size_t bytes = size_t{n} * page_size_;
  if (skip == 0 && len == bytes) return DoRead(first, n, out);
  BufferPool::Buffer staging = BufferPool::Default()->Acquire(bytes);
  EOS_RETURN_IF_ERROR(DoRead(first, n, staging.data()));
  std::memcpy(out, staging.data() + skip, len);
  return Status::OK();
}

Status PageDevice::WritePages(PageId first, uint32_t n, const uint8_t* data) {
  EOS_RETURN_IF_ERROR(CheckRange(first, n));
  Account(/*is_read=*/false, first, n);
  return DoWrite(first, n, data);
}

namespace {

obs::Counter* BatchRunsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().counter(obs::kIoBatchRuns);
  return c;
}

}  // namespace

Status PageDevice::ReadRuns(const PageRun* runs, size_t n) {
  if (n == 0) return Status::OK();
  for (size_t i = 0; i < n; ++i) {
    EOS_RETURN_IF_ERROR(CheckRange(runs[i].first, runs[i].pages));
  }
  for (size_t i = 0; i < n; ++i) {
    Account(/*is_read=*/true, runs[i].first, runs[i].pages);
  }
  BatchRunsCounter()->Inc(n);
  obs::RecordEvent(obs::EventKind::kIoBatch, "read_runs", n, /*b=*/0);
  return DoReadRuns(runs, n);
}

Status PageDevice::WriteRuns(const ConstPageRun* runs, size_t n) {
  if (n == 0) return Status::OK();
  for (size_t i = 0; i < n; ++i) {
    EOS_RETURN_IF_ERROR(CheckRange(runs[i].first, runs[i].pages));
  }
  for (size_t i = 0; i < n; ++i) {
    Account(/*is_read=*/false, runs[i].first, runs[i].pages);
  }
  BatchRunsCounter()->Inc(n);
  obs::RecordEvent(obs::EventKind::kIoBatch, "write_runs", n, /*b=*/1);
  return DoWriteRuns(runs, n);
}

Status PageDevice::DoReadRuns(const PageRun* runs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    EOS_RETURN_IF_ERROR(DoRead(runs[i].first, runs[i].pages, runs[i].data));
  }
  return Status::OK();
}

Status PageDevice::DoWriteRuns(const ConstPageRun* runs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    EOS_RETURN_IF_ERROR(DoWrite(runs[i].first, runs[i].pages, runs[i].data));
  }
  return Status::OK();
}

MemPageDevice::MemPageDevice(uint32_t page_size, uint64_t page_count)
    : PageDevice(page_size, page_count),
      mem_(page_size * page_count, 0) {}

MemPageDevice::MemPageDevice(uint32_t page_size, uint64_t page_count,
                             std::vector<uint8_t> image)
    : PageDevice(page_size, page_count), mem_(std::move(image)) {
  mem_.resize(page_size * page_count, 0);
}

Status MemPageDevice::Grow(uint64_t new_page_count) {
  if (new_page_count < page_count()) {
    return Status::InvalidArgument("Grow cannot shrink the volume");
  }
  // Exclusive: resizing may move the backing buffer under readers.
  mem_latch_.AcquireExclusive();
  mem_.resize(new_page_count * page_size_, 0);
  SetPageCount(new_page_count);
  mem_latch_.ReleaseExclusive();
  return Status::OK();
}

Status MemPageDevice::DoRead(PageId first, uint32_t n, uint8_t* out) {
  mem_latch_.AcquireShared();
  std::memcpy(out, &mem_[first * page_size_], size_t{n} * page_size_);
  mem_latch_.ReleaseShared();
  return Status::OK();
}

Status MemPageDevice::DoWrite(PageId first, uint32_t n, const uint8_t* data) {
  mem_latch_.AcquireShared();
  std::memcpy(&mem_[first * page_size_], data, size_t{n} * page_size_);
  mem_latch_.ReleaseShared();
  return Status::OK();
}

FilePageDevice::FilePageDevice(int fd, uint32_t page_size,
                               uint64_t page_count)
    : PageDevice(page_size, page_count), fd_(fd) {
  const char* env = std::getenv("EOS_FULL_SYNC");
  full_sync_ = env != nullptr && env[0] == '1';
}

FilePageDevice::~FilePageDevice() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<FilePageDevice>> FilePageDevice::Create(
    const std::string& path, uint32_t page_size, uint64_t page_count) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(page_count * page_size)) != 0) {
    Status s = Status::IOError("ftruncate(" + path + "): " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  return std::unique_ptr<FilePageDevice>(
      new FilePageDevice(fd, page_size, page_count));
}

StatusOr<std::unique_ptr<FilePageDevice>> FilePageDevice::Open(
    const std::string& path, uint32_t page_size) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  off_t len = ::lseek(fd, 0, SEEK_END);
  if (len < 0 || len % page_size != 0) {
    ::close(fd);
    return Status::Corruption(path + ": size not a multiple of page size");
  }
  return std::unique_ptr<FilePageDevice>(new FilePageDevice(
      fd, page_size, static_cast<uint64_t>(len) / page_size));
}

Status FilePageDevice::Grow(uint64_t new_page_count) {
  if (new_page_count < page_count()) {
    return Status::InvalidArgument("Grow cannot shrink the volume");
  }
  if (::ftruncate(fd_, static_cast<off_t>(new_page_count * page_size_)) != 0) {
    return Status::IOError(std::string("ftruncate: ") + std::strerror(errno));
  }
  SetPageCount(new_page_count);
  return Status::OK();
}

Status FilePageDevice::Sync() {
  if (full_sync_) {
    if (::fsync(fd_) != 0) {
      return Status::IOError(std::string("fsync: ") + std::strerror(errno));
    }
    return Status::OK();
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status FilePageDevice::DoRead(PageId first, uint32_t n, uint8_t* out) {
  size_t want = size_t{n} * page_size_;
  off_t off = static_cast<off_t>(first * page_size_);
  size_t got = 0;
  while (got < want) {
    ssize_t r = ::pread(fd_, out + got, want - got, off + static_cast<off_t>(got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread: ") + std::strerror(errno));
    }
    if (r == 0) return Status::IOError("pread: unexpected EOF");
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

namespace {

#if defined(IOV_MAX)
constexpr size_t kMaxIov = IOV_MAX;
#else
constexpr size_t kMaxIov = 1024;
#endif

// Loops preadv/pwritev until every iovec is fully transferred, advancing
// the array across partial transfers (short counts are legal for both).
Status VectoredIo(int fd, bool is_read, struct iovec* iov, int cnt,
                  off_t off) {
  while (cnt > 0) {
    ssize_t r = is_read ? ::preadv(fd, iov, cnt, off)
                        : ::pwritev(fd, iov, cnt, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(is_read ? "preadv: " : "pwritev: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      // Zero progress; looping on it would spin forever.
      return Status::IOError(is_read ? "preadv: unexpected EOF"
                                     : "pwritev: wrote 0 bytes");
    }
    off += r;
    size_t left = static_cast<size_t>(r);
    while (cnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --cnt;
    }
    if (cnt > 0 && left > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

}  // namespace

Status FilePageDevice::DoReadRuns(const PageRun* runs, size_t n) {
  std::vector<struct iovec> iov;
  size_t i = 0;
  while (i < n) {
    // Group maximal sequences of file-adjacent runs into one preadv.
    iov.clear();
    off_t off = static_cast<off_t>(runs[i].first * page_size_);
    PageId next = runs[i].first;
    size_t j = i;
    while (j < n && runs[j].first == next && iov.size() < kMaxIov) {
      iov.push_back({runs[j].data, size_t{runs[j].pages} * page_size_});
      next = runs[j].first + runs[j].pages;
      ++j;
    }
    EOS_RETURN_IF_ERROR(VectoredIo(fd_, /*is_read=*/true, iov.data(),
                                   static_cast<int>(iov.size()), off));
    i = j;
  }
  return Status::OK();
}

Status FilePageDevice::DoWriteRuns(const ConstPageRun* runs, size_t n) {
  std::vector<struct iovec> iov;
  size_t i = 0;
  while (i < n) {
    iov.clear();
    off_t off = static_cast<off_t>(runs[i].first * page_size_);
    PageId next = runs[i].first;
    size_t j = i;
    while (j < n && runs[j].first == next && iov.size() < kMaxIov) {
      // pwritev never writes through iov_base; the const_cast is the
      // standard POSIX interface seam.
      iov.push_back({const_cast<uint8_t*>(runs[j].data),
                     size_t{runs[j].pages} * page_size_});
      next = runs[j].first + runs[j].pages;
      ++j;
    }
    EOS_RETURN_IF_ERROR(VectoredIo(fd_, /*is_read=*/false, iov.data(),
                                   static_cast<int>(iov.size()), off));
    i = j;
  }
  return Status::OK();
}

Status FilePageDevice::DoWrite(PageId first, uint32_t n, const uint8_t* data) {
  size_t want = size_t{n} * page_size_;
  off_t off = static_cast<off_t>(first * page_size_);
  size_t put = 0;
  while (put < want) {
    ssize_t r = ::pwrite(fd_, data + put, want - put, off + static_cast<off_t>(put));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pwrite: ") + std::strerror(errno));
    }
    if (r == 0) {
      // A 0 return makes no progress; looping on it would spin forever.
      return Status::IOError("pwrite: wrote 0 of the remaining " +
                             std::to_string(want - put) + " bytes at offset " +
                             std::to_string(off + static_cast<off_t>(put)));
    }
    put += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace eos
