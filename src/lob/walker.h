#ifndef EOS_LOB_WALKER_H_
#define EOS_LOB_WALKER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "io/buffer_pool.h"
#include "io/io_executor.h"
#include "lob/lob_manager.h"
#include "obs/metrics.h"

namespace eos {

// Iterates the leaf segments of an object left to right starting from a
// byte offset, keeping the ancestor stack like the search algorithm of
// Section 4.2. The descriptor must not be mutated while a walker is live.
class LeafWalker {
 public:
  LeafWalker(LobManager* mgr, const LobDescriptor& d) : mgr_(mgr), d_(d) {}

  // Positions on the leaf containing `offset` (offset < size).
  Status Seek(uint64_t offset);

  // The current leaf segment and the byte offset within it that Seek
  // targeted (0 after Next()).
  const Extent& extent() const { return leaf_.extent; }
  uint64_t leaf_bytes() const { return leaf_.bytes; }
  uint64_t local() const { return local_; }

  // Advances to the next leaf; returns false at the end of the object.
  StatusOr<bool> Next();

  // Looks one leaf ahead without moving: fills *next with the segment
  // Next() would land on, or returns false at the end. Works on a copy of
  // the ancestor stack, so the walker itself is untouched. Read-ahead uses
  // this to start fetching segment k+1 while k is being consumed.
  StatusOr<bool> PeekNextLeaf(Extent* extent, uint64_t* bytes);

  // Advances the intra-leaf position by n consumed bytes.
  void ConsumeLocal(uint64_t n) { local_ += n; }

  // Reads bytes [lo, hi) of the current leaf directly from the device.
  Status ReadLeafBytes(uint64_t lo, uint64_t hi, uint8_t* out) {
    return mgr_->ReadLeafBytes(leaf_, lo, hi, out);
  }

 private:
  friend class LobManager;

  LobManager* mgr_;
  const LobDescriptor& d_;
  std::vector<PathLevel> stack_;
  LobManager::LeafRef leaf_;
  uint64_t local_ = 0;
};

// Forward sequential reader over a large object with an explicit position,
// built on LeafWalker. Useful for streaming consumption (audio/video
// playback, network transfer) without materializing the object.
class LobReader {
 public:
  // The descriptor is captured by reference; do not mutate the object
  // while reading.
  LobReader(LobManager* mgr, const LobDescriptor& d)
      : mgr_(mgr), d_(d), walker_(mgr, d) {}

  ~LobReader();

  uint64_t size() const { return d_.size(); }
  uint64_t position() const { return pos_; }
  bool AtEnd() const { return pos_ >= d_.size(); }

  Status Seek(uint64_t offset);

  // Reads up to `n` bytes into `out`, returning the count (0 at the end).
  StatusOr<uint64_t> Read(uint64_t n, uint8_t* out);

  StatusOr<Bytes> ReadNext(uint64_t n) {
    Bytes out(n);
    EOS_ASSIGN_OR_RETURN(uint64_t got, Read(n, out.data()));
    out.resize(got);
    return out;
  }

  // Sequential-scan read-ahead: while leaf segment k is being consumed,
  // segment k+1 is fetched on `exec` into a pooled buffer; if the scan
  // reaches it the bytes are served from memory (io.prefetch_hit) instead
  // of waiting on the device. A Seek or destruction drains the in-flight
  // fetch (io.prefetch_cancelled if unused). Off by default — prefetching
  // reads pages the caller never asked for, which would skew the
  // seek/transfer accounting the cost-model tests pin down.
  void EnableReadAhead(IoExecutor* exec);

 private:
  // Serves [lo, hi) of the current leaf, from the prefetched buffer when
  // it covers the current segment, from the device otherwise.
  Status ReadCurrentLeaf(uint64_t lo, uint64_t hi, uint8_t* out);

  // Starts fetching the leaf after the current one, if any and not
  // already in flight.
  void ArmPrefetch();

  // Called after walker_.Next() succeeded: promotes a matching in-flight
  // fetch to "serving" or discards a stale one.
  void SettlePrefetch();

  void DropPrefetch(bool cancelled);

  LobManager* mgr_;
  const LobDescriptor& d_;
  LeafWalker walker_;
  uint64_t pos_ = 0;
  bool positioned_ = false;

  IoExecutor* prefetch_exec_ = nullptr;
  IoExecutor::Ticket prefetch_ticket_;
  CancelToken prefetch_cancel_;  // flags the in-flight fetch as abandoned
  BufferPool::Buffer prefetch_buf_;
  Extent prefetch_extent_;       // segment the in-flight fetch targets
  bool prefetch_armed_ = false;  // a fetch is in flight
  bool serving_ = false;         // current leaf is served from prefetch_buf_
  obs::Counter* m_issued_ = nullptr;
  obs::Counter* m_hit_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
};

}  // namespace eos

#endif  // EOS_LOB_WALKER_H_
