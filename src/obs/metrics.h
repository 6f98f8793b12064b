#ifndef EOS_OBS_METRICS_H_
#define EOS_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/latch.h"
#include "obs/json.h"

namespace eos {
namespace obs {

// Process-wide observability switch. Metrics default to ON; the environment
// variable EOS_OBS=0 (checked once, at static init) or SetEnabled(false)
// turns every hook into a relaxed load + branch. Defining EOS_OBS_DISABLED
// at compile time removes the hooks entirely.
namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline constexpr bool CompiledIn() {
#ifdef EOS_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

inline bool Enabled() {
  if (!CompiledIn()) return false;
  return internal::g_enabled.load(std::memory_order_relaxed);
}

void SetEnabled(bool on);

namespace internal {

// Metric cells are striped by thread, so a hot-path update writes memory
// that no other thread writes. Each of the first kStripes threads alive at
// once claims a stripe of its own and updates its cells with a plain load
// and store; threads beyond that share kSharedStripe and update it with
// atomic read-modify-writes. A thread returns its stripe when it exits.
// Readers sum the cells, so values stay exact; a read racing writers sees
// some recent total.
inline constexpr uint32_t kStripes = 32;
inline constexpr uint32_t kSharedStripe = kStripes;
inline constexpr uint32_t kNoStripe = ~uint32_t{0};

inline thread_local uint32_t t_stripe = kNoStripe;

// Claims a stripe for the calling thread (slow path, once per thread).
uint32_t AssignStripe();

inline uint32_t ThisStripe() {
  uint32_t s = t_stripe;
  return s != kNoStripe ? s : AssignStripe();
}

inline void CellAdd(std::atomic<uint64_t>& slot, uint64_t n, uint32_t stripe) {
  if (stripe == kSharedStripe) {
    slot.fetch_add(n, std::memory_order_relaxed);
  } else {
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
}

inline void CellMax(std::atomic<uint64_t>& slot, uint64_t v, uint32_t stripe) {
  uint64_t prev = slot.load(std::memory_order_relaxed);
  if (v <= prev) return;
  if (stripe != kSharedStripe) {
    slot.store(v, std::memory_order_relaxed);
    return;
  }
  while (v > prev &&
         !slot.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

// One cache-line-aligned cell per stripe, allocated the first time a
// thread of that stripe writes, so memory grows with the threads that
// actually update a metric.
template <typename Cell>
class Stripes {
 public:
  Stripes() = default;
  ~Stripes() {
    for (auto& c : cells_) delete c.load(std::memory_order_relaxed);
  }
  Stripes(const Stripes&) = delete;
  Stripes& operator=(const Stripes&) = delete;

  Cell& Local(uint32_t stripe) {
    Cell* c = cells_[stripe].load(std::memory_order_acquire);
    return c != nullptr ? *c : Make(stripe);
  }

  // Visits every allocated cell. Cells are owned, not part of the
  // object's value, so a const visit may still reset them.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& p : cells_) {
      if (Cell* c = p.load(std::memory_order_acquire)) fn(*c);
    }
  }

 private:
  Cell& Make(uint32_t stripe) {
    Cell* fresh = new Cell();
    Cell* expected = nullptr;
    if (cells_[stripe].compare_exchange_strong(expected, fresh,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;  // another thread of the shared stripe won the race
    return *expected;
  }

  std::atomic<Cell*> cells_[kStripes + 1] = {};
};

struct alignas(64) ScalarCell {
  std::atomic<uint64_t> v{0};
};

}  // namespace internal

// Monotone event counter. Inc writes only the calling thread's stripe;
// value() sums the stripes.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    if (!Enabled()) return;
    uint32_t s = internal::ThisStripe();
    internal::CellAdd(cells_.Local(s).v, n, s);
  }
  uint64_t value() const;
  void Reset();

 private:
  internal::Stripes<internal::ScalarCell> cells_;
};

// Point-in-time signed value (free pages, cached pages, tree level). Add
// writes only the calling thread's stripe; Set stores a base chosen so
// that value(), the base plus the stripes, reads `v` — exact when no Add
// races it.
class Gauge {
 public:
  void Set(int64_t v) {
    if (!Enabled()) return;
    base_.store(v - StripeSum(), std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!Enabled()) return;
    uint32_t s = internal::ThisStripe();
    internal::CellAdd(cells_.Local(s).v, static_cast<uint64_t>(d), s);
  }
  int64_t value() const {
    return base_.load(std::memory_order_relaxed) + StripeSum();
  }
  void Reset();

 private:
  int64_t StripeSum() const;

  std::atomic<int64_t> base_{0};
  internal::Stripes<internal::ScalarCell> cells_;
};

// Fixed-bucket power-of-two histogram for latencies (microseconds) and
// sizes (pages, bytes). Bucket 0 holds the value 0; bucket b >= 1 holds
// values in [2^(b-1), 2^b). Percentile() returns the inclusive upper bound
// of the bucket containing the requested rank, clamped to the max, so
// reported quantiles are conservative (never understated) yet never above
// the largest recorded value. Each stripe's cell holds 65 bucket counts,
// the sum and the max; count() is the sum of the buckets.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v) {
    if (!Enabled()) return;
    uint32_t s = internal::ThisStripe();
    Cell& c = cells_.Local(s);
    internal::CellAdd(c.buckets[BucketOf(v)], 1, s);
    internal::CellAdd(c.sum, v, s);
    internal::CellMax(c.max, v, s);
  }

  uint64_t count() const { return Totals().count; }
  uint64_t sum() const { return Totals().sum; }
  uint64_t max() const { return Totals().max; }
  double mean() const { return Totals().mean(); }
  uint64_t bucket(size_t b) const;

  // p in [0, 1]; e.g. 0.5 and 0.99. Returns 0 for an empty histogram.
  uint64_t Percentile(double p) const;

  void Reset();

  static size_t BucketOf(uint64_t v) {
    return static_cast<size_t>(std::bit_width(v));
  }
  // Inclusive upper bound of bucket b (0 for bucket 0).
  static uint64_t BucketUpperBound(size_t b);

 private:
  friend class MetricsRegistry;

  struct alignas(64) Cell {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  // The stripes summed once, so one report reads consistent figures.
  struct Merged {
    uint64_t buckets[kBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  Merged Totals() const;
  static uint64_t PercentileOf(const Merged& t, double p);

  internal::Stripes<Cell> cells_;
};

// Runs `acquire`, a blocking latch acquisition whose try-lock has just
// failed, and records the wait in microseconds into `wait_us`. Callers
// try first, so the histogram holds contended waits alone.
template <typename Acquire>
void TimeLatchWait(Histogram* wait_us, Acquire&& acquire) {
  if (!Enabled()) {
    acquire();
    return;
  }
  auto start = std::chrono::steady_clock::now();
  acquire();
  wait_us->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

// Holds `latch` for its scope. An uncontended acquisition is one
// try-lock; only a contended one is timed into `wait_us`.
class TimedLatchGuard {
 public:
  TimedLatchGuard(Latch& latch, Histogram* wait_us) : latch_(latch) {
    if (!latch_.TryAcquire()) TimeLatchWait(wait_us, [&] { latch_.Acquire(); });
  }
  ~TimedLatchGuard() { latch_.Release(); }

  TimedLatchGuard(const TimedLatchGuard&) = delete;
  TimedLatchGuard& operator=(const TimedLatchGuard&) = delete;

 private:
  Latch& latch_;
};

// Named metric registry. Registration takes a latch; the returned pointers
// are stable for the registry's lifetime, so instrumented components look
// a metric up once (constructor or function-local static) and update its
// stripe thereafter. ResetAll() zeroes values but never invalidates
// pointers; a reset is exact only while no thread records.
class MetricsRegistry {
 public:
  // The process-wide registry every built-in hook reports to.
  static MetricsRegistry& Default();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  void ResetAll();

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,mean,
  //  p50,p90,p99,max}}}
  JsonValue ToJsonValue() const;
  std::string ToJson() const;

  // Prometheus text exposition (version 0.0.4). Metric names gain an
  // "eos_" prefix and dots become underscores: counters render as
  // eos_<name>_total, gauges as eos_<name>, histograms as the cumulative
  // eos_<name>_bucket{le="..."} series plus _sum and _count. Only
  // non-empty power-of-two buckets are emitted (plus the mandatory +Inf),
  // keeping scrapes proportional to live data.
  std::string RenderPrometheus() const;

 private:
  mutable Latch latch_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_METRICS_H_
