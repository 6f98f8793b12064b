#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace eos {
namespace obs {

namespace internal {

namespace {
bool InitFromEnv() {
  const char* e = std::getenv("EOS_OBS");
  return e == nullptr || std::strcmp(e, "0") != 0;
}
}  // namespace

std::atomic<bool> g_enabled{InitFromEnv()};

}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

namespace internal {

namespace {

static_assert(kStripes <= 64, "stripe ownership is one 64-bit mask");

std::atomic<uint64_t> g_stripes_taken{0};

// Returns the thread's stripe at exit. Updates made later in the thread's
// teardown go to the shared stripe.
struct StripeRelease {
  ~StripeRelease() {
    uint32_t s = t_stripe;
    t_stripe = kSharedStripe;
    if (s < kStripes) {
      g_stripes_taken.fetch_and(~(uint64_t{1} << s),
                                std::memory_order_release);
    }
  }
};

}  // namespace

uint32_t AssignStripe() {
  thread_local StripeRelease release;
  (void)release;
  constexpr uint64_t kAll =
      kStripes == 64 ? ~uint64_t{0} : (uint64_t{1} << kStripes) - 1;
  uint64_t taken = g_stripes_taken.load(std::memory_order_relaxed);
  for (;;) {
    uint64_t free_mask = ~taken & kAll;
    if (free_mask == 0) return t_stripe = kSharedStripe;
    uint32_t s = static_cast<uint32_t>(std::countr_zero(free_mask));
    // Acquire: the thread that last held this stripe wrote its cells with
    // plain stores before releasing it.
    if (g_stripes_taken.compare_exchange_weak(taken,
                                              taken | (uint64_t{1} << s),
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      return t_stripe = s;
    }
  }
}

}  // namespace internal

uint64_t Counter::value() const {
  uint64_t total = 0;
  cells_.ForEach([&](const internal::ScalarCell& c) {
    total += c.v.load(std::memory_order_relaxed);
  });
  return total;
}

void Counter::Reset() {
  cells_.ForEach([](internal::ScalarCell& c) {
    c.v.store(0, std::memory_order_relaxed);
  });
}

int64_t Gauge::StripeSum() const {
  uint64_t total = 0;  // two's-complement deltas, summed modulo 2^64
  cells_.ForEach([&](const internal::ScalarCell& c) {
    total += c.v.load(std::memory_order_relaxed);
  });
  return static_cast<int64_t>(total);
}

void Gauge::Reset() {
  base_.store(0, std::memory_order_relaxed);
  cells_.ForEach([](internal::ScalarCell& c) {
    c.v.store(0, std::memory_order_relaxed);
  });
}

uint64_t Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

Histogram::Merged Histogram::Totals() const {
  Merged t;
  cells_.ForEach([&](const Cell& c) {
    for (size_t b = 0; b < kBuckets; ++b) {
      t.buckets[b] += c.buckets[b].load(std::memory_order_relaxed);
    }
    t.sum += c.sum.load(std::memory_order_relaxed);
    t.max = std::max(t.max, c.max.load(std::memory_order_relaxed));
  });
  for (uint64_t n : t.buckets) t.count += n;
  return t;
}

uint64_t Histogram::bucket(size_t b) const {
  uint64_t total = 0;
  cells_.ForEach([&](const Cell& c) {
    total += c.buckets[b].load(std::memory_order_relaxed);
  });
  return total;
}

uint64_t Histogram::Percentile(double p) const {
  return PercentileOf(Totals(), p);
}

uint64_t Histogram::PercentileOf(const Merged& t, double p) {
  if (t.count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested quantile, 1-based: ceil(p * total), at least 1.
  // Rounding up keeps the result conservative — p99 over two samples must
  // report the larger one, not the smaller.
  double exact = p * static_cast<double>(t.count);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += t.buckets[b];
    // The bucket's upper bound can lie above every recorded value; the
    // max is the tighter bound then.
    if (seen >= rank) return std::min(BucketUpperBound(b), t.max);
  }
  return t.max;
}

void Histogram::Reset() {
  cells_.ForEach([](Cell& c) {
    for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
    c.sum.store(0, std::memory_order_relaxed);
    c.max.store(0, std::memory_order_relaxed);
  });
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  LatchGuard g(latch_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  LatchGuard g(latch_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  LatchGuard g(latch_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  LatchGuard g(latch_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, gg] : gauges_) gg->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

JsonValue MetricsRegistry::ToJsonValue() const {
  LatchGuard g(latch_);
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : counters_) {
    counters.Set(name, JsonValue::Number(static_cast<double>(c->value())));
  }
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gg] : gauges_) {
    gauges.Set(name, JsonValue::Number(static_cast<double>(gg->value())));
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms_) {
    Histogram::Merged t = h->Totals();
    JsonValue hist = JsonValue::Object();
    hist.Set("count", JsonValue::Number(static_cast<double>(t.count)));
    hist.Set("sum", JsonValue::Number(static_cast<double>(t.sum)));
    hist.Set("mean", JsonValue::Number(t.mean()));
    for (auto [key, p] : {std::pair{"p50", 0.50}, std::pair{"p90", 0.90},
                          std::pair{"p99", 0.99}}) {
      hist.Set(key, JsonValue::Number(
                        static_cast<double>(Histogram::PercentileOf(t, p))));
    }
    hist.Set("max", JsonValue::Number(static_cast<double>(t.max)));
    histograms.Set(name, std::move(hist));
  }
  root.Set("counters", std::move(counters));
  root.Set("gauges", std::move(gauges));
  root.Set("histograms", std::move(histograms));
  return root;
}

std::string MetricsRegistry::ToJson() const { return ToJsonValue().Dump(); }

namespace {

std::string PromName(const std::string& name) {
  std::string out = "eos_";
  for (char ch : name) {
    out += (ch == '.' || ch == '-') ? '_' : ch;
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  LatchGuard g(latch_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + "_total counter\n";
    out += p + "_total " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, gg] : gauges_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(gg->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    Histogram::Merged t = h->Totals();
    uint64_t cum = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t n = t.buckets[b];
      if (n == 0) continue;
      cum += n;
      out += p + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(t.count) + "\n";
    out += p + "_sum " + std::to_string(t.sum) + "\n";
    out += p + "_count " + std::to_string(t.count) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace eos
