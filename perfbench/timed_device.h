#ifndef PERFBENCH_TIMED_DEVICE_H_
#define PERFBENCH_TIMED_DEVICE_H_

// Bench-side tracing for the traced run: a PageDevice decorator that times
// every call into the device stack below it, and the per-thread span tree
// those timings attach to. The engine is not modified; spans are recorded
// only around calls the bench can see from outside.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "io/page_device.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The layer a child span was recorded in. kVerify sits above the
// VerifiedPageDevice, kDevice directly above the FilePageDevice, so a
// device span always nests inside a verify span.
enum class Layer : uint8_t { kVerify, kDevice };

struct ChildSpan {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  Layer layer = Layer::kDevice;
  uint8_t depth = 0;  // 0 = direct child of the root span
};

// The calling thread's open root span (one client operation) and the child
// spans recorded under it. parallel_io is off, so every device call runs on
// the thread that issued the operation; only that thread touches this.
struct ThreadSpans {
  bool root_open = false;
  uint8_t depth = 0;
  std::vector<ChildSpan> children;
};

inline thread_local ThreadSpans t_spans;

// Forwards every call to `inner`, adding its wall time to a busy counter
// and, while the calling thread has a root span open, recording it as a
// child span. Inherits PageDevice's call/page accounting, so stats() counts
// the transfers that pass through this point of the stack.
class TimedDevice final : public eos::PageDevice {
 public:
  TimedDevice(std::unique_ptr<eos::PageDevice> inner, Layer layer)
      : PageDevice(inner->page_size(), inner->page_count()),
        inner_(std::move(inner)),
        layer_(layer) {}

  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

  eos::Status Grow(uint64_t new_page_count) override {
    eos::Status s = inner_->Grow(new_page_count);
    if (s.ok()) SetPageCount(inner_->page_count());
    return s;
  }

  eos::Status Sync() override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    Timed t(this);
    return inner_->Sync();
  }

 protected:
  eos::Status DoRead(eos::PageId first, uint32_t n, uint8_t* out) override {
    Timed t(this);
    return inner_->ReadPages(first, n, out);
  }
  eos::Status DoWrite(eos::PageId first, uint32_t n,
                      const uint8_t* data) override {
    Timed t(this);
    return inner_->WritePages(first, n, data);
  }
  eos::Status DoReadRuns(const eos::PageRun* runs, size_t n) override {
    Timed t(this);
    return inner_->ReadRuns(runs, n);
  }
  eos::Status DoWriteRuns(const eos::ConstPageRun* runs, size_t n) override {
    Timed t(this);
    return inner_->WriteRuns(runs, n);
  }

 private:
  class Timed {
   public:
    explicit Timed(TimedDevice* dev) : dev_(dev), start_(NowNs()) {
      if (t_spans.root_open) ++t_spans.depth;
    }
    ~Timed() {
      uint64_t end = NowNs();
      dev_->busy_ns_.fetch_add(end - start_, std::memory_order_relaxed);
      if (t_spans.root_open) {
        --t_spans.depth;
        t_spans.children.push_back(
            ChildSpan{start_, end, dev_->layer_, t_spans.depth});
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TimedDevice* dev_;
    uint64_t start_;
  };

  std::unique_ptr<eos::PageDevice> inner_;
  Layer layer_;
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_DEVICE_H_
