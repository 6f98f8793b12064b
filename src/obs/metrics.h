#ifndef EOS_OBS_METRICS_H_
#define EOS_OBS_METRICS_H_

#include <atomic>
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

// Monotone event counter. Updates are relaxed atomics: hooks sit on hot
// paths (pager fetch, buddy allocate) and must never contend.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    if (!Enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time signed value (free pages, cached pages, tree level).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!Enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!Enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket power-of-two histogram for latencies (microseconds) and
// sizes (pages, bytes). Bucket 0 holds the value 0; bucket b >= 1 holds
// values in [2^(b-1), 2^b). Percentile() returns the inclusive upper bound
// of the bucket containing the requested rank, clamped to the max, so
// reported quantiles are conservative (never understated) yet never above
// the largest recorded value; the memory cost is 65 atomics.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v) {
    if (!Enabled()) return;
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  // p in [0, 1]; e.g. 0.5 and 0.99. Returns 0 for an empty histogram.
  uint64_t Percentile(double p) const;

  void Reset();

  static size_t BucketOf(uint64_t v);
  // Inclusive upper bound of bucket b (0 for bucket 0).
  static uint64_t BucketUpperBound(size_t b);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_{0};
};

// Named metric registry. Registration takes a latch; the returned pointers
// are stable for the registry's lifetime, so instrumented components look
// a metric up once (constructor or function-local static) and update it
// with plain atomics thereafter. ResetAll() zeroes values but never
// invalidates pointers.
class MetricsRegistry {
 public:
  // The process-wide registry every built-in hook reports to.
  static MetricsRegistry& Default();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  void ResetAll();

  // Human-readable multi-line listing (sorted by name).
  std::string ToText() const;
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
