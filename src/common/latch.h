#ifndef EOS_COMMON_LATCH_H_
#define EOS_COMMON_LATCH_H_

#include <mutex>
#include <shared_mutex>

namespace eos {

// Short-duration lock in the sense of [Moha90]: held only for the duration
// of one read or update of a shared in-memory structure (such as the buddy
// superdirectory), never to transaction end.
class Latch {
 public:
  Latch() = default;
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void Acquire() { mu_.lock(); }
  bool TryAcquire() { return mu_.try_lock(); }
  void Release() { mu_.unlock(); }

 private:
  friend class LatchGuard;
  std::mutex mu_;
};

class LatchGuard {
 public:
  explicit LatchGuard(Latch& latch) : guard_(latch.mu_) {}

 private:
  std::lock_guard<std::mutex> guard_;
};

// Reader/writer latch for structures that are read far more than written.
class SharedLatch {
 public:
  SharedLatch() = default;
  SharedLatch(const SharedLatch&) = delete;
  SharedLatch& operator=(const SharedLatch&) = delete;

  void AcquireShared() { mu_.lock_shared(); }
  void ReleaseShared() { mu_.unlock_shared(); }
  void AcquireExclusive() { mu_.lock(); }
  bool TryAcquireExclusive() { return mu_.try_lock(); }
  void ReleaseExclusive() { mu_.unlock(); }

 private:
  friend class SharedLatchGuard;
  friend class ExclusiveLatchGuard;
  std::shared_mutex mu_;
};

class SharedLatchGuard {
 public:
  explicit SharedLatchGuard(SharedLatch& latch) : guard_(latch.mu_) {}

 private:
  std::shared_lock<std::shared_mutex> guard_;
};

class ExclusiveLatchGuard {
 public:
  explicit ExclusiveLatchGuard(SharedLatch& latch) : guard_(latch.mu_) {}

 private:
  std::unique_lock<std::shared_mutex> guard_;
};

}  // namespace eos

#endif  // EOS_COMMON_LATCH_H_
