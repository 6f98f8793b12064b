#ifndef EOS_TXN_LOG_MANAGER_H_
#define EOS_TXN_LOG_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/latch.h"
#include "common/status.h"
#include "lob/descriptor.h"
#include "txn/log_record.h"

namespace eos {

// Write-ahead log of logical large-object operations (Section 4.5).
//
// Each logged update receives a monotone LSN which is stamped into the
// object's root; recovery compares the root LSN against the log to decide
// idempotently which records to redo or undo. The log lives in memory and
// is optionally mirrored to an append-only file for crash simulation.
//
// On-file framing: every record is wrapped as [payload_len u32]
// [crc32c u32][payload], so a record torn by a crash mid-append — or
// rotted on media afterwards — is detectable on read-back.
class LogManager {
 public:
  static constexpr size_t kFrameHeaderBytes = 8;

  LogManager() = default;

  // Mirrors records to `path` (created/truncated).
  static StatusOr<std::unique_ptr<LogManager>> CreateFileBacked(
      const std::string& path);

  // Reads back the records of a file written by a file-backed manager.
  // The first frame that is truncated or fails its CRC is treated as the
  // end of the log (a crash tears exactly the tail), and the intact prefix
  // is returned — recovery then restores the last consistent state the
  // surviving records describe.
  static StatusOr<std::vector<LogRecord>> ReadLogFile(
      const std::string& path);

  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Update records: each is tagged with d->object_id and stamps its LSN
  // into *d.
  Status LogInsert(LobDescriptor* d, uint64_t offset, ByteView data);
  Status LogDelete(LobDescriptor* d, uint64_t offset, ByteView old_data);
  Status LogAppend(LobDescriptor* d, ByteView data);
  Status LogReplace(LobDescriptor* d, uint64_t offset, ByteView old_data,
                    ByteView new_data);
  Status LogDestroy(LobDescriptor* d, ByteView old_data);

  // Commit marker for `object_id`: declares every earlier record of the
  // object committed (Section 4.5 commit processing). Does not stamp any
  // descriptor — the marker has no effect on object state.
  Status LogCommit(uint64_t object_id);

  // Group commit (DESIGN.md §13): appends the commit marker and returns
  // once it is durable on the backing file. Concurrent committers share
  // fsyncs leader/follower style — the first committer to find no sync in
  // flight syncs every record appended so far (covering the markers of
  // everyone queued behind it); the rest wait for a sync whose coverage
  // includes their marker. Batch sizes are recorded in
  // txn.group_commit_batch. An in-memory log (no backing file) is durable
  // at append, so the call degenerates to LogCommit plus metric upkeep.
  Status LogCommitDurable(uint64_t object_id);

  // The two halves of LogCommitDurable, for callers that must emit the
  // marker while holding a latch that orders it against the object's other
  // records, but wait for durability only after releasing that latch — the
  // wait is where group commit batches, so it must not serialize appends.
  Status LogCommitMarker(uint64_t object_id, uint64_t* lsn_out);
  // Blocks until a completed sync covers `lsn`, becoming the fsync leader
  // if none is in flight.
  Status SyncToLsn(uint64_t lsn);

  // Highest LSN covered by a completed sync (always last_lsn() for an
  // in-memory log).
  uint64_t durable_lsn() const;

  const std::vector<LogRecord>& records() const { return records_; }
  uint64_t last_lsn() const { return next_lsn_ - 1; }

 private:
  explicit LogManager(int fd) : fd_(fd) {}

  // Appends `r` with the next LSN, reporting it through `lsn_out` (may be
  // null) and, for an update record, stamping it into *d (may be null).
  Status Emit(LobDescriptor* d, LogRecord&& r, uint64_t* lsn_out = nullptr);

  Latch latch_;
  std::vector<LogRecord> records_;
  uint64_t next_lsn_ = 1;
  int fd_ = -1;

  // Group-commit state: guarded by commit_mu_, separate from latch_ so a
  // leader's fsync never blocks appends.
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  uint64_t durable_lsn_ = 0;
  bool sync_in_flight_ = false;
  uint32_t pending_commits_ = 0;
};

}  // namespace eos

#endif  // EOS_TXN_LOG_MANAGER_H_
