// Experiment B10 (DESIGN.md §15): what the multi-volume layer costs and
// buys. Two questions:
//
//   * Scrub: with parallel_io on a 3-member mirrored set, Scrub fans the
//     per-object walk out across the members. With per-page device latency
//     injected (so the run is IO-bound like a real disk array), the
//     parallel pass should beat the serial one by well over the gate's
//     1.3x.
//   * Degraded reads: with 1 of 3 members offline, every read of a chunk
//     whose primary copy is on the dead member fails over to the replica.
//     Throughput must stay in the same ballpark as the healthy set — the
//     failover path marks the member offline after its first failure and
//     skips it thereafter, so the tax is one probe every few dozen reads,
//     not one failed attempt per read.
//
// Emits one {"bench":"volumes","metric":...,"value":...} line per result;
// tools/run_checks.sh re-runs this bench and gates scrub_parallel_speedup,
// degraded_read_ratio and failover_reads (tools/bench_gate.py).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "eos/database.h"
#include "io/chaos_device.h"
#include "io/volume_set.h"

namespace eos {
namespace bench {
namespace {

constexpr uint32_t kPage = 512;
constexpr int kMembers = 3;
constexpr int kObjects = 24;
constexpr uint64_t kObjectBytes = 32u << 10;
// Per-page read latency injected into every member, so both experiments
// measure an IO-bound stack rather than memcpy.
constexpr uint32_t kReadLatencyUs = 20;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct SetStack {
  std::unique_ptr<Database> db;
  std::vector<ChaosPageDevice*> chaos;
  std::vector<uint64_t> ids;
};

SetStack MakeSet(bool parallel_io, uint64_t seed) {
  SetStack s;
  std::vector<std::unique_ptr<PageDevice>> members;
  for (int i = 0; i < kMembers; ++i) {
    auto chaos = std::make_unique<ChaosPageDevice>(
        std::make_unique<MemPageDevice>(kPage, 0), seed + i);
    s.chaos.push_back(chaos.get());
    members.push_back(std::move(chaos));
  }
  DatabaseOptions opt;
  opt.page_size = kPage;
  // Small pager so reads actually reach the devices instead of the cache,
  // and small buddy spaces so chunks stripe finely across the members.
  opt.pager_frames = 32;
  opt.space_pages = 32;
  opt.parallel_io = parallel_io;
  s.db = Stack::Unwrap(Database::CreateOnVolumeSet(std::move(members),
                                                   VolumeSetOptions{}, opt),
                       "create volume set");
  Random rng(seed);
  for (int i = 0; i < kObjects; ++i) {
    Bytes payload = RandomBytes(&rng, kObjectBytes);
    s.ids.push_back(Stack::Unwrap(s.db->CreateObjectFrom(payload),
                                  "create object"));
  }
  Stack::Check(s.db->Flush(), "flush");
  // Populate ran at memory speed; the measured phases pay per-page IO.
  for (ChaosPageDevice* c : s.chaos) {
    c->InjectLatency(kReadLatencyUs, 0, 0);
  }
  return s;
}

double TimeScrubMs(Database* db) {
  auto t0 = std::chrono::steady_clock::now();
  ScrubReport rep;
  Stack::Check(db->Scrub(&rep), "scrub");
  if (!rep.clean()) {
    std::fprintf(stderr, "scrub reported %zu issue(s)\n", rep.issues.size());
    std::exit(1);
  }
  return MsSince(t0);
}

// Reads every object end to end; returns MB/s of payload delivered.
double ReadAllMbps(Database* db, const std::vector<uint64_t>& ids) {
  auto t0 = std::chrono::steady_clock::now();
  uint64_t bytes = 0;
  for (uint64_t id : ids) {
    uint64_t size = Stack::Unwrap(db->Size(id), "size");
    Bytes data = Stack::Unwrap(db->Read(id, 0, size), "read");
    bytes += data.size();
  }
  double ms = MsSince(t0);
  return static_cast<double>(bytes) / (1u << 20) / (ms / 1000.0);
}

}  // namespace
}  // namespace bench
}  // namespace eos

int main() {
  using namespace eos;
  using namespace eos::bench;

  PrintHeader("B10: parallel per-volume scrub");
  SetStack serial = MakeSet(/*parallel_io=*/false, 4242);
  SetStack parallel = MakeSet(/*parallel_io=*/true, 4242);
  double serial_ms = TimeScrubMs(serial.db.get());
  double parallel_ms = TimeScrubMs(parallel.db.get());
  double speedup = serial_ms / parallel_ms;
  std::printf("scrub over %d objects x %llu KB on %d mirrored members "
              "(%u us/page read latency):\n  serial   %8.2f ms\n"
              "  parallel %8.2f ms  (%.2fx)\n",
              kObjects, (unsigned long long)(kObjectBytes >> 10), kMembers,
              kReadLatencyUs, serial_ms, parallel_ms, speedup);
  EmitJsonResult("volumes", "scrub_serial_ms", serial_ms);
  EmitJsonResult("volumes", "scrub_parallel_ms", parallel_ms);
  EmitJsonResult("volumes", "scrub_parallel_speedup", speedup);

  PrintHeader("B10: degraded-mode read throughput (1 of 3 offline)");
  double healthy = ReadAllMbps(parallel.db.get(), parallel.ids);
  parallel.chaos[1]->SetOffline(true);
  double degraded = ReadAllMbps(parallel.db.get(), parallel.ids);
  double ratio = degraded / healthy;
  VolumeSetDevice* set = parallel.db->volume_set();
  std::printf("  healthy  %8.2f MB/s\n  degraded %8.2f MB/s  (%.2fx, "
              "%llu failover reads)\n",
              healthy, degraded, ratio,
              (unsigned long long)set->failover_reads());
  EmitJsonResult("volumes", "read_healthy_mbps", healthy);
  EmitJsonResult("volumes", "read_degraded_mbps", degraded);
  EmitJsonResult("volumes", "degraded_read_ratio", ratio);
  EmitJsonResult("volumes", "failover_reads", (double)set->failover_reads());
  EmitMetricsBlock("volumes");
  return 0;
}
