// End-to-end benchmark program for eos::Database.
//
// One process runs one workload (hot_read, update_many or large_edit; see
// METRICS.md): it builds the workload's initial volume --setups times, timing
// each build, then runs one closed-loop timed window per entry of --clients
// on the last volume. Every read is checked byte for byte against the
// bench's own copy of the objects; after the last window every object is
// compared whole, and CheckIntegrity() and LeakCheck() must pass. The last
// line of standard output is one JSON object with the raw results;
// perfbench/run.py turns processes into named metrics.
//
//   eosbench --workload hot_read --seed 1 --seconds 2.5 --clients 4,1
//            --setups 1 --trace 1 --workdir DIR
//
// --trace 1 stacks the integrity layer itself, between two TimedDevice
// decorators, so each operation's wall time splits into engine self time,
// checksum verification and device transfer. --trace 0 opens the volume
// exactly as a user would, with checksums=true and no decorator.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "eos/database.h"
#include "io/verified_device.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "timed_device.h"
#include "txn/log_manager.h"

namespace perfbench {
namespace {

using eos::Bytes;
using eos::ByteView;
using eos::Database;
using eos::Random;
using eos::Status;
using eos::obs::JsonValue;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;
constexpr uint32_t kPageSize = 4096;
// Latency samples kept per client and op class. Runs with more operations
// keep a uniform reservoir sample, so memory does not grow with throughput.
constexpr size_t kReservoirSlots = size_t{1} << 18;
constexpr int kMaxSetups = 50;

// ----- workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  uint32_t objects = 0;
  uint64_t object_bytes = 0;
  size_t cache_bytes = 0;
  bool wal = false;
};

bool FindWorkload(const std::string& name, Workload* w) {
  static const Workload kAll[] = {
      {"hot_read", 1024, 16 * kKiB, 64 * kMiB, false},
      {"update_many", 4096, 4 * kKiB, 64 * kMiB, true},
      {"large_edit", 32, 4 * kMiB, 32 * kMiB, false},
  };
  for (const Workload& x : kAll) {
    if (x.name == name) {
      *w = x;
      return true;
    }
  }
  return false;
}

enum OpKind : uint8_t {
  kRead,
  kSnapshotRead,
  kAppend,
  kInsert,
  kDelete,
  kReplace,
  kNumKinds
};
constexpr const char* kKindNames[kNumKinds] = {
    "read", "snapshot_read", "append", "insert", "delete", "replace"};

bool IsWrite(OpKind k) { return k >= kAppend; }

struct Op {
  OpKind kind = kRead;
  size_t obj = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
};

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Stream(uint64_t seed, uint64_t a, uint64_t b) {
  return Mix(Mix(Mix(seed) ^ a) ^ (b * 0x632be59bd9b4e019ULL));
}

void FillRandom(Random* rng, uint8_t* p, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t v = rng->Next();
    std::memcpy(p + i, &v, 8);
  }
  if (i < n) {
    uint64_t v = rng->Next();
    std::memcpy(p + i, &v, n - i);
  }
}

double UniformDouble(Random* rng) {
  return static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
}

// Zipf(theta) over ranks 0..n-1 by inverse CDF; rank r maps to object
// perm[r], a seeded permutation, so the hot objects are spread over the
// volume instead of being the first ones created.
class Zipf {
 public:
  Zipf(size_t n, double theta, uint64_t seed) : cdf_(n), perm_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    std::iota(perm_.begin(), perm_.end(), size_t{0});
    Random rng(seed);
    for (size_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.Uniform(i)]);
  }
  size_t Sample(Random* rng) const {
    double u = UniformDouble(rng);
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(r, perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> perm_;
};

// Offset of a len-byte range inside a size-byte object.
uint64_t RangeStart(Random* rng, uint64_t size, uint64_t len) {
  return rng->Uniform(size - len + 1);
}

// Strictly inside the object when it has an inside.
uint64_t MidOffset(Random* rng, uint64_t size) {
  return size < 2 ? size : 1 + rng->Uniform(size - 1);
}

Op NextHotRead(Random* rng, const Zipf& zipf,
               const std::vector<Bytes>& objects) {
  Op op;
  op.obj = zipf.Sample(rng);
  op.kind = rng->OneIn(2) ? kRead : kSnapshotRead;
  uint64_t size = objects[op.obj].size();
  op.len = std::min<uint64_t>(size, rng->Range(512, 4 * kKiB));
  op.offset = RangeStart(rng, size, op.len);
  return op;
}

Op NextUpdateMany(Random* rng, size_t obj, uint64_t size) {
  Op op;
  op.obj = obj;
  uint64_t r = rng->Uniform(100);
  uint64_t small = rng->Range(16, 512);
  if (r < 40 || size == 0) {
    op.kind = kAppend;
    op.offset = size;
    op.len = 100;
  } else if (r < 55) {
    op.kind = kInsert;
    op.offset = MidOffset(rng, size);
    op.len = small;
  } else if (r < 80) {
    op.kind = r < 70 ? kDelete : kReplace;
    op.len = std::min(size, small);
    op.offset = RangeStart(rng, size, op.len);
  } else {
    op.kind = kRead;
    op.len = std::min<uint64_t>(size, 512);
    op.offset = RangeStart(rng, size, op.len);
  }
  return op;
}

// Object sizes stay within +-25% of the start size: growth past the upper
// bound turns into a delete, shrinkage past the lower bound into an insert.
Op NextLargeEdit(Random* rng, size_t obj, uint64_t size, uint64_t start) {
  const uint64_t lo = start - start / 4;
  const uint64_t hi = start + start / 4;
  Op op;
  op.obj = obj;
  uint64_t r = rng->Uniform(100);
  if (r < 60) {
    op.kind = kRead;
    op.len = std::min(size, rng->Range(64 * kKiB, kMiB));
    op.offset = RangeStart(rng, size, op.len);
    return op;
  }
  if (r < 85) {
    op.kind = rng->OneIn(2) ? kInsert : kDelete;
    op.len = rng->Range(kKiB, 64 * kKiB);
  } else if (r < 95) {
    op.kind = kAppend;
    op.len = rng->Range(16 * kKiB, 256 * kKiB);
  } else {
    op.kind = kReplace;
    op.len = std::min(size, rng->Range(kKiB, 64 * kKiB));
  }
  if ((op.kind == kInsert || op.kind == kAppend) && size + op.len > hi) {
    op.kind = kDelete;
  } else if (op.kind == kDelete && size < lo + op.len) {
    op.kind = kInsert;
  }
  switch (op.kind) {
    case kAppend: op.offset = size; break;
    case kInsert: op.offset = MidOffset(rng, size); break;
    default: op.offset = RangeStart(rng, size, op.len); break;
  }
  return op;
}

// ----- samples -------------------------------------------------------------

// Latencies in nanoseconds: a uniform sample of the `seen` ops of a class.
struct Sample {
  std::vector<uint32_t> values;
  uint64_t seen = 0;
};

// Uniform reservoir of per-op latencies (Algorithm R): exact while the
// client has run at most kReservoirSlots ops of the class. The slots are
// allocated and zero-filled up front, so resident memory does not depend on
// how fast the engine is.
class Reservoir {
 public:
  explicit Reservoir(uint64_t seed) : rng_(seed) {
    sample_.values.resize(kReservoirSlots);
  }

  void Add(uint32_t v) {
    std::vector<uint32_t>& slots = sample_.values;
    if (sample_.seen < slots.size()) {
      slots[sample_.seen] = v;
    } else {
      uint64_t j = rng_.Uniform(sample_.seen + 1);
      if (j < slots.size()) slots[j] = v;
    }
    ++sample_.seen;
  }
  // The filled slots; invalidates the reservoir.
  Sample Take() {
    sample_.values.resize(std::min<uint64_t>(sample_.seen, kReservoirSlots));
    return std::move(sample_);
  }

 private:
  Sample sample_;
  Random rng_;
};

// Pools samples into one of at most `cap` values in which every part is
// represented in proportion to the ops it saw. Values come out sorted.
Sample MergeSamples(std::vector<Sample>* parts, size_t cap, uint64_t seed) {
  Sample out;
  for (const Sample& p : *parts) out.seen += p.seen;
  double scale = out.seen == 0 ? 1.0
                               : std::min(1.0, static_cast<double>(cap) /
                                                   static_cast<double>(out.seen));
  for (const Sample& p : *parts) {
    if (p.seen > 0) {
      scale = std::min(scale, static_cast<double>(p.values.size()) /
                                  static_cast<double>(p.seen));
    }
  }
  Random rng(seed);
  for (Sample& p : *parts) {
    size_t kept = p.values.size();
    size_t take = std::min<size_t>(
        kept, static_cast<size_t>(std::llround(scale * p.seen)));
    for (size_t i = 0; i < take; ++i) {  // partial Fisher-Yates
      std::swap(p.values[i], p.values[i + rng.Uniform(kept - i)]);
      out.values.push_back(p.values[i]);
    }
  }
  std::sort(out.values.begin(), out.values.end());
  return out;
}

// Nearest-rank percentile of an ascending sample, in microseconds.
double PercentileUs(const std::vector<uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1] / 1000.0;
}

JsonValue LatencyJson(const Sample& s) {
  const std::vector<uint32_t>& v = s.values;
  JsonValue o = JsonValue::Object();
  o.Set("ops", JsonValue::Number(static_cast<double>(s.seen)));
  o.Set("samples", JsonValue::Number(static_cast<double>(v.size())));
  o.Set("p50_us", JsonValue::Number(PercentileUs(v, 0.50)));
  o.Set("p90_us", JsonValue::Number(PercentileUs(v, 0.90)));
  o.Set("p99_us", JsonValue::Number(PercentileUs(v, 0.99)));
  // p999 only where at least ten samples lie beyond it.
  if (v.size() >= 10000) {
    o.Set("p999_us", JsonValue::Number(PercentileUs(v, 0.999)));
  }
  o.Set("max_us", JsonValue::Number(v.empty() ? 0.0 : v.back() / 1000.0));
  return o;
}

uint32_t ClampNs(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

// ----- traced-run breakdown -------------------------------------------------

// Span sums for one op kind. eos self = wall - covered (the part of the
// root span no child covers); verify self = verify - device_in_verify.
struct Breakdown {
  uint64_t count = 0;
  uint64_t wall_ns = 0;
  uint64_t covered_ns = 0;
  uint64_t verify_ns = 0;
  uint64_t device_ns = 0;
  uint64_t device_in_verify_ns = 0;

  void Add(const Breakdown& o) {
    count += o.count;
    wall_ns += o.wall_ns;
    covered_ns += o.covered_ns;
    verify_ns += o.verify_ns;
    device_ns += o.device_ns;
    device_in_verify_ns += o.device_in_verify_ns;
  }
  double eos_ns() const {
    return static_cast<double>(wall_ns) - static_cast<double>(covered_ns);
  }
  double verify_self_ns() const {
    return static_cast<double>(verify_ns) -
           static_cast<double>(device_in_verify_ns);
  }
};

// Per-op means of a span sum, in microseconds.
JsonValue BreakdownJson(const Breakdown& b) {
  double cnt = static_cast<double>(std::max<uint64_t>(1, b.count));
  JsonValue e = JsonValue::Object();
  e.Set("count", JsonValue::Number(static_cast<double>(b.count)));
  e.Set("wall_us", JsonValue::Number(static_cast<double>(b.wall_ns) / 1e3 / cnt));
  e.Set("eos_us", JsonValue::Number(b.eos_ns() / 1e3 / cnt));
  e.Set("verify_us", JsonValue::Number(b.verify_self_ns() / 1e3 / cnt));
  e.Set("device_us",
        JsonValue::Number(static_cast<double>(b.device_ns) / 1e3 / cnt));
  return e;
}

// Closes the calling thread's root span [start, end] into `b`.
void CloseRootSpan(uint64_t start, uint64_t end, Breakdown* b) {
  std::vector<ChildSpan>& kids = t_spans.children;
  t_spans.root_open = false;
  b->count++;
  b->wall_ns += end - start;
  // Union of the direct children, clipped to the root interval.
  std::sort(kids.begin(), kids.end(), [](const ChildSpan& x, const ChildSpan& y) {
    return x.start_ns < y.start_ns;
  });
  uint64_t cur_lo = 0, cur_hi = 0;
  for (const ChildSpan& c : kids) {
    uint64_t d = c.end_ns - c.start_ns;
    if (c.layer == Layer::kDevice) {
      b->device_ns += d;
      if (c.depth > 0) b->device_in_verify_ns += d;
    } else {
      b->verify_ns += d;
    }
    if (c.depth > 0) continue;
    uint64_t lo = std::max(c.start_ns, start), hi = std::min(c.end_ns, end);
    if (lo >= hi) continue;
    if (lo > cur_hi) {
      b->covered_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  b->covered_ns += cur_hi - cur_lo;
  kids.clear();
}

// ----- the volume ------------------------------------------------------------

struct Volume {
  std::string path;
  std::unique_ptr<eos::LogManager> log;  // outlives db (declared first)
  std::unique_ptr<Database> db;
  TimedDevice* device = nullptr;  // traced run only
  TimedDevice* verify = nullptr;  // traced run only
  std::vector<uint64_t> ids;

  Volume() = default;
  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;
  ~Volume() { Close(); }

  void Close() {
    db.reset();
    log.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "eosbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

// Builds the workload's initial volume: create every object from
// `initial`, then one Checkpoint(). Returns the wall time of the whole
// build; per-create latencies are appended to `create_ns`, and on a traced
// volume each create is a root span summed into `create_spans`.
double Setup(const Workload& w, const std::vector<Bytes>& initial,
             const std::string& dir, bool traced, Volume* vol,
             std::vector<uint32_t>* create_ns, Breakdown* create_spans) {
  vol->path = dir + "/volume.eos";
  eos::DatabaseOptions opt;
  opt.page_size = kPageSize;
  opt.mvcc = true;
  opt.cache_bytes = w.cache_bytes;
  opt.checksums = true;
  opt.parallel_io = false;
  opt.crash_safe = false;
  opt.defrag.enabled = false;
  uint64_t t0 = NowNs();
  if (traced) {
    // file -> TimedDevice(device) -> VerifiedPageDevice -> TimedDevice(verify)
    auto file = eos::FilePageDevice::Create(vol->path, kPageSize, 1);
    if (!file.ok()) Die("create volume", file.status());
    auto dev = std::make_unique<TimedDevice>(std::move(file).value(),
                                             Layer::kDevice);
    vol->device = dev.get();
    auto verified = std::make_unique<eos::VerifiedPageDevice>(
        std::move(dev), Database::kFormatEpoch, opt.io_retry);
    auto top = std::make_unique<TimedDevice>(std::move(verified),
                                             Layer::kVerify);
    vol->verify = top.get();
    opt.checksums = false;  // already stacked above
    opt.page_size = top->page_size();
    auto db = Database::CreateOnDevice(std::move(top), opt);
    if (!db.ok()) Die("create database", db.status());
    vol->db = std::move(db).value();
  } else {
    auto db = Database::Create(vol->path, opt);
    if (!db.ok()) Die("create database", db.status());
    vol->db = std::move(db).value();
  }
  for (const Bytes& b : initial) {
    if (traced) t_spans.root_open = true;
    uint64_t c0 = NowNs();
    auto id = vol->db->CreateObjectFrom(ByteView(b));
    uint64_t c1 = NowNs();
    if (traced) CloseRootSpan(c0, c1, create_spans);
    create_ns->push_back(ClampNs(c1 - c0));
    if (!id.ok()) Die("create object", id.status());
    vol->ids.push_back(*id);
  }
  Status s = vol->db->Checkpoint();
  if (!s.ok()) Die("checkpoint", s);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// ----- one timed window --------------------------------------------------------

// Operation counts of one client, or summed over all clients.
struct Tally {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t mutations = 0;
  uint64_t kind_count[kNumKinds] = {};
  uint64_t kind_ns[kNumKinds] = {};
  Breakdown breakdown[kNumKinds];
  std::string first_error;

  void Add(const Tally& o) {
    ops += o.ops;
    failed += o.failed;
    mismatches += o.mismatches;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    mutations += o.mutations;
    for (int k = 0; k < kNumKinds; ++k) {
      kind_count[k] += o.kind_count[k];
      kind_ns[k] += o.kind_ns[k];
      breakdown[k].Add(o.breakdown[k]);
    }
    if (first_error.empty()) first_error = o.first_error;
  }
  void Fail(const Status& s) {
    failed++;
    if (first_error.empty()) first_error = s.ToString();
  }
};

struct ClientResult {
  explicit ClientResult(uint64_t seed) : read_lat(seed), write_lat(seed + 1) {}
  Tally tally;
  uint64_t end_ns = 0;
  Reservoir read_lat;
  Reservoir write_lat;
};

// Engine counters read before and after a window, with no client running.
struct Counters {
  uint64_t pager_hits = 0, pager_misses = 0, pager_writebacks = 0;
  eos::ExtentCache::Stats cache;
  uint64_t alloc_calls = 0;
  eos::IoStats io;
  uint64_t device_busy_ns = 0, verify_busy_ns = 0, syncs = 0;
  uint64_t log_bytes = 0;
  uint64_t commit_batches = 0, commit_batch_sum = 0;
  uint64_t cost_reads = 0, cost_read_sum = 0;
};

// Bytes the log's records take in the on-file framing.
uint64_t LogBytes(const eos::LogManager* log) {
  uint64_t n = 0;
  if (log == nullptr) return n;
  for (const eos::LogRecord& r : log->records()) {
    n += eos::LogManager::kFrameHeaderBytes + r.SerializedBytes();
  }
  return n;
}

Counters ReadCounters(Volume* vol) {
  Counters c;
  Database* db = vol->db.get();
  c.pager_hits = db->pager()->hits();
  c.pager_misses = db->pager()->misses();
  c.pager_writebacks = db->pager()->dirty_writebacks();
  if (db->extent_cache() != nullptr) c.cache = db->extent_cache()->GetStats();
  c.alloc_calls = db->allocator()->alloc_calls();
  if (vol->device != nullptr) {
    c.io = vol->device->stats();
    c.device_busy_ns = vol->device->busy_ns();
    c.syncs = vol->device->syncs();
    c.verify_busy_ns = vol->verify->busy_ns();
  }
  c.log_bytes = LogBytes(vol->log.get());
  auto& reg = eos::obs::MetricsRegistry::Default();
  const eos::obs::Histogram* batch = reg.histogram(eos::obs::kTxnGroupCommitBatch);
  c.commit_batches = batch->count();
  c.commit_batch_sum = batch->sum();
  const eos::obs::Histogram* cost = reg.histogram(eos::obs::kCostReadRatio);
  c.cost_reads = cost->count();
  c.cost_read_sum = cost->sum();
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct WindowConfig {
  uint32_t clients = 1;
  double seconds = 1;
  uint64_t seed = 0;
  uint32_t pass = 0;
  bool traced = false;
};

// Each window's latency sample, kept for the percentiles over all windows.
struct Pools {
  std::vector<Sample> read;
  std::vector<Sample> write;
};

// Runs `cfg.clients` closed-loop clients against the volume for
// cfg.seconds. Writer workloads give client c the objects whose index is
// c modulo the client count, so each client's copy of its objects is
// exact; hot_read clients read every object.
JsonValue RunWindow(const Workload& w, const WindowConfig& cfg, Volume* vol,
                    std::vector<Bytes>* objects, const Zipf& zipf,
                    Pools* pools, bool* correct) {
  Database* db = vol->db.get();
  if (w.wal) {
    // A fresh log per window, so the records the log keeps in memory do not
    // pile up across windows. It has no backing file: commits group-commit
    // their markers but never fsync (see METRICS.md).
    auto log = std::make_unique<eos::LogManager>();
    db->AttachLog(log.get());
    vol->log = std::move(log);
  }
  const uint32_t n = cfg.clients;
  std::vector<std::unique_ptr<ClientResult>> results;
  for (uint32_t c = 0; c < n; ++c) {
    results.push_back(std::make_unique<ClientResult>(
        Stream(cfg.seed, 1000 + cfg.pass, c)));
  }
  Counters before = ReadCounters(vol);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  auto client = [&](uint32_t c) {
    ClientResult& res = *results[c];
    Random rng(Stream(cfg.seed, cfg.pass, c));
    std::vector<size_t> owned;
    for (size_t i = c; i < objects->size(); i += n) owned.push_back(i);
    Bytes payload;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_relaxed)) {
      Op op;
      if (w.name == "hot_read") {
        op = NextHotRead(&rng, zipf, *objects);
      } else {
        size_t obj = owned[rng.Uniform(owned.size())];
        uint64_t size = (*objects)[obj].size();
        op = w.name == "update_many"
                 ? NextUpdateMany(&rng, obj, size)
                 : NextLargeEdit(&rng, obj, size, w.object_bytes);
      }
      uint64_t id = vol->ids[op.obj];
      if (IsWrite(op.kind) && op.kind != kDelete) {
        payload.resize(op.len);
        FillRandom(&rng, payload.data(), payload.size());
      }
      Status st;
      eos::StatusOr<Bytes> got = Bytes{};
      if (cfg.traced) t_spans.root_open = true;
      uint64_t t0 = NowNs();
      switch (op.kind) {
        case kRead:
          got = db->Read(id, op.offset, op.len);
          break;
        case kSnapshotRead: {
          auto snap = db->BeginSnapshot(id);
          if (!snap.ok()) {
            got = snap.status();
          } else {
            got = db->SnapshotRead(*snap, op.offset, op.len);
            snap->Release();
          }
          break;
        }
        case kAppend: st = db->Append(id, ByteView(payload)); break;
        case kInsert: st = db->Insert(id, op.offset, ByteView(payload)); break;
        case kDelete: st = db->Delete(id, op.offset, op.len); break;
        case kReplace:
          st = db->Replace(id, op.offset, ByteView(payload));
          break;
        default: break;
      }
      uint64_t t1 = NowNs();
      Tally& t = res.tally;
      if (cfg.traced) CloseRootSpan(t0, t1, &t.breakdown[op.kind]);
      t.ops++;
      t.kind_count[op.kind]++;
      t.kind_ns[op.kind] += t1 - t0;
      Bytes& oracle = (*objects)[op.obj];
      if (!IsWrite(op.kind)) {
        res.read_lat.Add(ClampNs(t1 - t0));
        if (!got.ok()) {
          t.Fail(got.status());
          continue;
        }
        t.read_bytes += got->size();
        if (got->size() != op.len ||
            std::memcmp(got->data(), oracle.data() + op.offset, op.len) != 0) {
          t.mismatches++;
        }
        continue;
      }
      res.write_lat.Add(ClampNs(t1 - t0));
      if (!st.ok()) {
        t.Fail(st);
        continue;
      }
      t.mutations++;
      switch (op.kind) {
        case kAppend:
          oracle.insert(oracle.end(), payload.begin(), payload.end());
          break;
        case kInsert:
          oracle.insert(oracle.begin() + static_cast<ptrdiff_t>(op.offset),
                        payload.begin(), payload.end());
          break;
        case kDelete:
          oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(op.offset),
                       oracle.begin() +
                           static_cast<ptrdiff_t>(op.offset + op.len));
          break;
        default:
          std::memcpy(oracle.data() + op.offset, payload.data(), op.len);
          break;
      }
      if (op.kind != kDelete) t.write_bytes += op.len;
    }
    res.end_ns = NowNs();
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < n; ++c) threads.emplace_back(client, c);
  uint64_t start = NowNs();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  Counters after = ReadCounters(vol);

  Tally total;
  uint64_t end = start;
  std::vector<Sample> reads, writes;
  for (auto& r : results) {
    total.Add(r->tally);
    end = std::max(end, r->end_ns);
    reads.push_back(r->read_lat.Take());
    writes.push_back(r->write_lat.Take());
  }
  results.clear();
  const Breakdown* bd = total.breakdown;
  if (total.mismatches > 0) *correct = false;
  double secs = static_cast<double>(end - start) / 1e9;

  JsonValue o = JsonValue::Object();
  auto num = [](double v) { return JsonValue::Number(v); };
  o.Set("clients", num(n));
  o.Set("seconds", num(secs));
  o.Set("ops", num(static_cast<double>(total.ops)));
  o.Set("failed", num(static_cast<double>(total.failed)));
  o.Set("mismatches", num(static_cast<double>(total.mismatches)));
  if (!total.first_error.empty()) {
    o.Set("first_error", JsonValue::Str(total.first_error));
  }
  o.Set("ops_s", num(Ratio(static_cast<double>(total.ops), secs)));
  o.Set("read_mb_s",
        num(Ratio(static_cast<double>(total.read_bytes) / 1e6, secs)));
  pools->read.push_back(
      MergeSamples(&reads, kReservoirSlots, Stream(cfg.seed, 7, cfg.pass)));
  pools->write.push_back(
      MergeSamples(&writes, kReservoirSlots, Stream(cfg.seed, 8, cfg.pass)));
  o.Set("read", LatencyJson(pools->read.back()));
  o.Set("write", LatencyJson(pools->write.back()));
  JsonValue kinds = JsonValue::Object();
  for (int k = 0; k < kNumKinds; ++k) {
    if (total.kind_count[k] == 0) continue;
    JsonValue e = JsonValue::Object();
    e.Set("count", num(static_cast<double>(total.kind_count[k])));
    e.Set("mean_us", num(static_cast<double>(total.kind_ns[k]) / 1e3 /
                         static_cast<double>(total.kind_count[k])));
    kinds.Set(kKindNames[k], std::move(e));
  }
  o.Set("kinds", std::move(kinds));

  // Per-layer counter deltas over the window, per operation.
  const double ops = static_cast<double>(std::max<uint64_t>(1, total.ops));
  JsonValue layers = JsonValue::Object();
  uint64_t ph = after.pager_hits - before.pager_hits;
  uint64_t pm = after.pager_misses - before.pager_misses;
  layers.Set("pager.hit_rate", num(Ratio(static_cast<double>(ph),
                                         static_cast<double>(ph + pm))));
  layers.Set("pager.writebacks_per_op",
             num(static_cast<double>(after.pager_writebacks -
                                     before.pager_writebacks) / ops));
  uint64_t ch = after.cache.hits - before.cache.hits;
  uint64_t cm = after.cache.misses - before.cache.misses;
  layers.Set("cache.hit_rate", num(Ratio(static_cast<double>(ch),
                                         static_cast<double>(ch + cm))));
  layers.Set("cache.evictions_per_kop",
             num(static_cast<double>(after.cache.evicted -
                                     before.cache.evicted) * 1000.0 / ops));
  layers.Set("buddy.alloc_calls_per_op",
             num(static_cast<double>(after.alloc_calls - before.alloc_calls) /
                 ops));
  uint64_t batches = after.commit_batches - before.commit_batches;
  layers.Set("wal.commit_batch_mean",
             num(Ratio(static_cast<double>(after.commit_batch_sum -
                                           before.commit_batch_sum),
                       static_cast<double>(batches))));
  layers.Set("wal.bytes_per_write",
             num(Ratio(static_cast<double>(after.log_bytes - before.log_bytes),
                       static_cast<double>(total.mutations))));
  // cost.read_actual_over_model records percent.
  layers.Set("lob.read_cost_ratio",
             num(Ratio(static_cast<double>(after.cost_read_sum -
                                           before.cost_read_sum) / 100.0,
                       static_cast<double>(after.cost_reads -
                                           before.cost_reads))));
  if (cfg.traced) {
    eos::IoStats io = after.io - before.io;
    double dev_ns = static_cast<double>(after.device_busy_ns -
                                        before.device_busy_ns);
    double ver_ns = static_cast<double>(after.verify_busy_ns -
                                        before.verify_busy_ns);
    layers.Set("device.busy_us_per_op", num(dev_ns / 1e3 / ops));
    layers.Set("device.read_calls_per_op",
               num(static_cast<double>(io.read_calls) / ops));
    layers.Set("device.pages_read_per_op",
               num(static_cast<double>(io.pages_read) / ops));
    layers.Set("device.pages_written_per_op",
               num(static_cast<double>(io.pages_written) / ops));
    layers.Set("device.syncs_per_op",
               num(static_cast<double>(after.syncs - before.syncs) / ops));
    layers.Set("device.write_amp",
               num(Ratio(static_cast<double>(io.pages_written) * kPageSize,
                         static_cast<double>(total.write_bytes))));
    layers.Set("device.read_amp",
               num(Ratio(static_cast<double>(io.pages_read) * kPageSize,
                         static_cast<double>(total.read_bytes))));
    layers.Set("verify.busy_us_per_op", num((ver_ns - dev_ns) / 1e3 / ops));

    Breakdown reads_bd, writes_bd;
    JsonValue table = JsonValue::Object();
    for (int k = 0; k < kNumKinds; ++k) {
      const Breakdown& b = bd[k];
      if (b.count == 0) continue;
      (IsWrite(static_cast<OpKind>(k)) ? writes_bd : reads_bd).Add(b);
      table.Set(kKindNames[k], BreakdownJson(b));
    }
    o.Set("breakdown", std::move(table));
    layers.Set("eos.read_self_us",
               num(Ratio(reads_bd.eos_ns() / 1e3,
                         static_cast<double>(reads_bd.count))));
    layers.Set("eos.write_self_us",
               num(Ratio(writes_bd.eos_ns() / 1e3,
                         static_cast<double>(writes_bd.count))));
  }
  o.Set("layers", std::move(layers));
  return o;
}

// ----- end-of-run checks and shape -----------------------------------------

// Compares every object whole, then runs the engine's own audits. Failures
// are appended to `errors`.
void FinalChecks(Volume* vol, const std::vector<Bytes>& objects,
                 std::vector<std::string>* errors) {
  Database* db = vol->db.get();
  for (size_t i = 0; i < objects.size(); ++i) {
    auto size = db->Size(vol->ids[i]);
    auto got = db->Read(vol->ids[i], 0, objects[i].size());
    if (!size.ok() || *size != objects[i].size()) {
      errors->push_back("object " + std::to_string(i) +
                        " has the wrong size");
    } else if (!got.ok()) {
      errors->push_back("final read of object " + std::to_string(i) + ": " +
                        got.status().ToString());
    } else if (*got != objects[i]) {
      errors->push_back("object " + std::to_string(i) +
                        " differs from the bench copy");
    }
    if (errors->size() > 8) return;
  }
  Status s = db->CheckIntegrity();
  if (!s.ok()) errors->push_back("CheckIntegrity: " + s.ToString());
  eos::LeakCheckReport report;
  s = db->LeakCheck(&report);
  if (!s.ok()) errors->push_back("LeakCheck: " + s.ToString());
}

JsonValue ShapeJson(Volume* vol, const std::vector<Bytes>& objects) {
  Database* db = vol->db.get();
  auto num = [](double v) { return JsonValue::Number(v); };
  uint64_t live = 0, segments = 0, leaf_pages = 0;
  uint32_t depth = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    live += objects[i].size();
    auto st = db->ObjectStats(vol->ids[i]);
    if (!st.ok()) Die("object stats", st.status());
    segments += st->num_segments;
    leaf_pages += st->leaf_pages;
    depth = std::max(depth, st->depth);
  }
  eos::SegmentAllocator* alloc = db->allocator();
  uint64_t total_pages =
      uint64_t{alloc->num_spaces()} * alloc->geometry().space_pages;
  uint64_t allocated = total_pages - alloc->free_pages_fast();
  JsonValue o = JsonValue::Object();
  o.Set("live_bytes", num(static_cast<double>(live)));
  o.Set("space_amp", num(Ratio(static_cast<double>(allocated) * kPageSize,
                               static_cast<double>(live))));
  o.Set("buddy.allocated_pages", num(static_cast<double>(allocated)));
  o.Set("lob.segments_per_mib",
        num(Ratio(static_cast<double>(segments),
                  static_cast<double>(live) / kMiB)));
  o.Set("lob.depth_max", num(depth));
  o.Set("lob.leaf_utilization",
        num(Ratio(static_cast<double>(live),
                  static_cast<double>(leaf_pages) *
                      db->device()->page_size())));
  auto dir = db->lob()->Stats(db->dir_object());
  if (!dir.ok()) Die("directory stats", dir.status());
  o.Set("eos.dir_pages",
        num(static_cast<double>(dir->leaf_pages + dir->index_pages)));
  return o;
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 1;
  std::vector<uint32_t> clients;
  int setups = 1;
  double setup_seconds = 0;
  bool traced = false;
  std::string workdir;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "eosbench: %s\nusage: eosbench --workload NAME --seed N "
               "--seconds S --clients C[,C...] --setups K "
               "[--setup-seconds T] --trace 0|1 --workdir DIR\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--clients") {
      for (size_t pos = 0; pos <= v.size();) {
        size_t comma = v.find(',', pos);
        if (comma == std::string::npos) comma = v.size();
        a.clients.push_back(static_cast<uint32_t>(
            std::strtoul(v.substr(pos, comma - pos).c_str(), nullptr, 10)));
        pos = comma + 1;
      }
    } else if (k == "--setups") {
      a.setups = std::atoi(v.c_str());
    } else if (k == "--setup-seconds") {
      a.setup_seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.traced = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty() || a.workdir.empty()) Usage("missing flag");
  if (!(a.seconds > 0) || a.seconds > 600) Usage("bad --seconds");
  if (a.setups < 1 || a.setups > kMaxSetups) Usage("bad --setups");
  if (!(a.setup_seconds >= 0) || a.setup_seconds > 60) {
    Usage("bad --setup-seconds");
  }
  if (a.clients.empty()) Usage("missing --clients");
  for (uint32_t c : a.clients) {
    if (c < 1 || c > 64) Usage("bad --clients");
  }
  return a;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  Workload w;
  if (!FindWorkload(args.workload, &w)) Usage("unknown workload");

  // The inputs: every object's initial bytes, from the seed alone.
  std::vector<Bytes> initial(w.objects);
  for (uint32_t i = 0; i < w.objects; ++i) {
    Random rng(Stream(args.seed, 0xB0D1E5, i));
    initial[i].resize(w.object_bytes);
    FillRandom(&rng, initial[i].data(), initial[i].size());
  }
  Zipf zipf(w.objects, 0.99, Stream(args.seed, 0x21FF, 0));

  JsonValue setup_s = JsonValue::Array();
  JsonValue setup_create = JsonValue::Array();  // per set-up
  Breakdown create_spans;                       // traced set-ups only
  auto vol = std::make_unique<Volume>();
  // At least --setups builds, and more until they add up to
  // --setup-seconds, so a fast set-up is still timed over enough work.
  double setup_total = 0;
  for (int k = 0; k < args.setups ||
                  (setup_total < args.setup_seconds && k < kMaxSetups);
       ++k) {
    if (k > 0) vol = std::make_unique<Volume>();  // the previous one is removed
    Sample creates;
    double secs =
        Setup(w, initial, args.workdir, args.traced, vol.get(), &creates.values,
              &create_spans);
    setup_total += secs;
    setup_s.Push(JsonValue::Number(secs));
    creates.seen = creates.values.size();
    std::sort(creates.values.begin(), creates.values.end());
    setup_create.Push(LatencyJson(creates));
  }

  // The bench's copy of every object, updated by each successful mutation.
  std::vector<Bytes> objects = std::move(initial);
  if (w.name == "large_edit") {
    for (Bytes& b : objects) b.reserve(w.object_bytes + w.object_bytes / 2);
  }

  bool correct = true;
  Pools pools;
  JsonValue passes = JsonValue::Array();
  for (size_t p = 0; p < args.clients.size(); ++p) {
    WindowConfig cfg;
    cfg.clients = args.clients[p];
    cfg.seconds = args.seconds;
    cfg.seed = args.seed;
    cfg.pass = static_cast<uint32_t>(p);
    cfg.traced = args.traced;
    passes.Push(RunWindow(w, cfg, vol.get(), &objects, zipf, &pools, &correct));
  }
  // Percentiles over every window together.
  JsonValue pooled = JsonValue::Object();
  pooled.Set("read", LatencyJson(MergeSamples(&pools.read, 4 * kReservoirSlots,
                                              Stream(args.seed, 9, 0))));
  pooled.Set("write", LatencyJson(MergeSamples(
                          &pools.write, 4 * kReservoirSlots,
                          Stream(args.seed, 10, 0))));
  pools = Pools();

  std::vector<std::string> errors;
  FinalChecks(vol.get(), objects, &errors);
  if (!errors.empty()) correct = false;
  JsonValue shape = ShapeJson(vol.get(), objects);
  vol.reset();

  JsonValue out = JsonValue::Object();
  out.Set("workload", JsonValue::Str(w.name));
  out.Set("correct", JsonValue::Bool(correct));
  JsonValue errs = JsonValue::Array();
  for (const std::string& e : errors) errs.Push(JsonValue::Str(e));
  out.Set("errors", std::move(errs));
  out.Set("setup_s", std::move(setup_s));
  out.Set("setup_create", std::move(setup_create));
  if (args.traced) out.Set("setup_breakdown", BreakdownJson(create_spans));
  out.Set("passes", std::move(passes));
  out.Set("pooled", std::move(pooled));
  out.Set("shape", std::move(shape));
  out.Set("peak_rss_mb", JsonValue::Number(PeakRssMb()));
  std::printf("%s\n", out.Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
