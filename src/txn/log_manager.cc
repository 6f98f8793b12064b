#include "txn/log_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span_counts.h"

namespace eos {

StatusOr<std::unique_ptr<LogManager>> LogManager::CreateFileBacked(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                  0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  return std::unique_ptr<LogManager>(new LogManager(fd));
}

LogManager::~LogManager() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::vector<LogRecord>> LogManager::ReadLogFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  Bytes all;
  uint8_t buf[4096];
  ssize_t r;
  while ((r = ::read(fd, buf, sizeof(buf))) > 0) {
    all.insert(all.end(), buf, buf + r);
  }
  ::close(fd);
  if (r < 0) {
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
  // Each frame is [payload_len u32][crc32c u32][payload]. The first frame
  // that is torn (truncated) or fails its CRC marks the end of the log:
  // a crash mid-append leaves exactly such a tail, and everything before
  // it is intact by construction of the append-only write, so the parsed
  // prefix is returned rather than an error.
  std::vector<LogRecord> records;
  size_t pos = 0;
  while (pos + kFrameHeaderBytes <= all.size()) {
    uint32_t len = DecodeU32(all.data() + pos);
    uint32_t crc = DecodeU32(all.data() + pos + 4);
    const uint8_t* payload = all.data() + pos + kFrameHeaderBytes;
    if (pos + kFrameHeaderBytes + uint64_t{len} > all.size()) break;
    if (Crc32c(payload, len) != crc) break;
    size_t consumed = 0;
    StatusOr<LogRecord> rec =
        LogRecord::Parse(ByteView(payload, len), &consumed);
    if (!rec.ok() || consumed != len) {
      // The CRC held but the payload does not parse: the file was written
      // by something else entirely. That is corruption, not a torn tail.
      return Status::Corruption(path + ": log record with valid CRC fails "
                                "to parse");
    }
    records.push_back(std::move(rec).value());
    pos += kFrameHeaderBytes + len;
  }
  return records;
}

Status LogManager::Emit(LobDescriptor* d, LogRecord&& r, uint64_t* lsn_out) {
  LatchGuard g(latch_);
  r.lsn = next_lsn_++;
  if (lsn_out != nullptr) *lsn_out = r.lsn;
  // Write-ahead: the record is durable (appended) before the update is
  // applied; the LSN is placed in the root for idempotence (Section 4.5).
  if (fd_ >= 0) {
    Bytes buf(kFrameHeaderBytes + r.SerializedBytes());
    r.SerializeTo(buf.data() + kFrameHeaderBytes);
    EncodeU32(buf.data(), static_cast<uint32_t>(r.SerializedBytes()));
    EncodeU32(buf.data() + 4, Crc32c(buf.data() + kFrameHeaderBytes,
                                     r.SerializedBytes()));
    size_t put = 0;
    while (put < buf.size()) {
      ssize_t w = ::write(fd_, buf.data() + put, buf.size() - put);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("log write: ") +
                               std::strerror(errno));
      }
      put += static_cast<size_t>(w);
    }
  }
  if (d != nullptr) d->lsn = r.lsn;
  static obs::Counter* log_records =
      obs::MetricsRegistry::Default().counter(obs::kTxnLogRecords);
  static obs::Counter* log_bytes =
      obs::MetricsRegistry::Default().counter(obs::kTxnLogBytes);
  log_records->Inc();
  obs::ChargeSpan(obs::SpanCounter::kLogRecords);
  log_bytes->Inc(r.SerializedBytes());
  records_.push_back(std::move(r));
  return Status::OK();
}

Status LogManager::LogInsert(LobDescriptor* d, uint64_t offset,
                             ByteView data) {
  LogRecord r;
  r.op = LogOp::kInsert;
  r.object_id = d->object_id;
  r.offset = offset;
  r.data = ToBytes(data);
  return Emit(d, std::move(r));
}

Status LogManager::LogDelete(LobDescriptor* d, uint64_t offset,
                             ByteView old_data) {
  LogRecord r;
  r.op = LogOp::kDelete;
  r.object_id = d->object_id;
  r.offset = offset;
  r.old_data = ToBytes(old_data);
  return Emit(d, std::move(r));
}

Status LogManager::LogAppend(LobDescriptor* d, ByteView data) {
  LogRecord r;
  r.op = LogOp::kAppend;
  r.object_id = d->object_id;
  r.offset = d->size();
  r.data = ToBytes(data);
  return Emit(d, std::move(r));
}

Status LogManager::LogReplace(LobDescriptor* d, uint64_t offset,
                              ByteView old_data, ByteView new_data) {
  LogRecord r;
  r.op = LogOp::kReplace;
  r.object_id = d->object_id;
  r.offset = offset;
  r.data = ToBytes(new_data);
  r.old_data = ToBytes(old_data);
  return Emit(d, std::move(r));
}

Status LogManager::LogDestroy(LobDescriptor* d, ByteView old_data) {
  LogRecord r;
  r.op = LogOp::kDestroy;
  r.object_id = d->object_id;
  r.offset = 0;
  r.old_data = ToBytes(old_data);
  return Emit(d, std::move(r));
}

Status LogManager::LogCommit(uint64_t object_id) {
  return LogCommitMarker(object_id, nullptr);
}

Status LogManager::LogCommitDurable(uint64_t object_id) {
  uint64_t marker_lsn = 0;
  EOS_RETURN_IF_ERROR(LogCommitMarker(object_id, &marker_lsn));
  return SyncToLsn(marker_lsn);
}

Status LogManager::LogCommitMarker(uint64_t object_id, uint64_t* lsn_out) {
  LogRecord r;
  r.op = LogOp::kCommit;
  r.object_id = object_id;
  return Emit(nullptr, std::move(r), lsn_out);
}

Status LogManager::SyncToLsn(uint64_t lsn) {
  static obs::Histogram* batch_hist =
      obs::MetricsRegistry::Default().histogram(obs::kTxnGroupCommitBatch);
  std::unique_lock<std::mutex> lk(commit_mu_);
  ++pending_commits_;
  while (durable_lsn_ < lsn) {
    if (!sync_in_flight_) {
      // Leader: one fsync covers every record appended so far, so every
      // committer queued at this point rides the same barrier.
      sync_in_flight_ = true;
      uint32_t covered = pending_commits_;
      uint64_t target;
      {
        LatchGuard g(latch_);
        target = next_lsn_ - 1;
      }
      lk.unlock();
      Status s = Status::OK();
      if (fd_ >= 0 && ::fsync(fd_) != 0) {
        s = Status::IOError(std::string("log fsync: ") +
                            std::strerror(errno));
      }
      lk.lock();
      sync_in_flight_ = false;
      commit_cv_.notify_all();
      if (!s.ok()) {
        // Durability not advanced; a waiter becomes the next leader and
        // retries. This committer reports the failure.
        --pending_commits_;
        return s;
      }
      if (target > durable_lsn_) durable_lsn_ = target;
      batch_hist->Record(covered);
    } else {
      commit_cv_.wait(lk);
    }
  }
  --pending_commits_;
  return Status::OK();
}

uint64_t LogManager::durable_lsn() const {
  std::lock_guard<std::mutex> lk(commit_mu_);
  return durable_lsn_;
}

}  // namespace eos
