#include "obs/snapshot.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/op_tracer.h"

namespace eos {
namespace obs {

std::string SnapshotJson() {
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Number(1));
  root.Set("enabled", JsonValue::Bool(Enabled()));
  root.Set("metrics", MetricsRegistry::Default().ToJsonValue());
  root.Set("trace", OpTracer::Default().ToJsonValue());
  return root.Dump();
}

std::string SnapshotPathFor(const std::string& volume_path) {
  return volume_path + ".obs.json";
}

Status WriteSnapshotFile(const std::string& path) {
  return WriteJsonFile(path, SnapshotJson());
}

std::string ChromeTraceJson(const JsonValue& snapshot) {
  JsonValue events = JsonValue::Array();
  const JsonValue* trace = snapshot.Find("trace");
  uint64_t synth_ts = 0;  // fallback clock for spans without start_us
  if (trace != nullptr && trace->is_array()) {
    for (const JsonValue& s : trace->elements()) {
      if (!s.is_object()) continue;
      double dur = s.NumberOr("wall_us", 0);
      double ts;
      if (s.Find("start_us") != nullptr) {
        ts = s.NumberOr("start_us", 0);
      } else {
        ts = static_cast<double>(synth_ts);
        synth_ts += static_cast<uint64_t>(dur) + 1;
      }
      JsonValue e = JsonValue::Object();
      const JsonValue* op = s.Find("op");
      e.Set("name", JsonValue::Str(
                        op != nullptr && op->is_string() ? op->str() : "op"));
      e.Set("cat", JsonValue::Str("eos"));
      e.Set("ph", JsonValue::Str("X"));
      e.Set("ts", JsonValue::Number(ts));
      e.Set("dur", JsonValue::Number(dur));
      e.Set("pid", JsonValue::Number(1));
      // One row per recording thread; nested spans stack inside their
      // parent on it. Sidecars from before spans carried a tid use one row.
      e.Set("tid", JsonValue::Number(s.NumberOr("tid", 0)));
      JsonValue args = JsonValue::Object();
      args.Set("object", JsonValue::Number(s.NumberOr("object", 0)));
      args.Set("seeks", JsonValue::Number(s.NumberOr("seeks", 0)));
      args.Set("pages_read", JsonValue::Number(s.NumberOr("pages_read", 0)));
      args.Set("pages_written",
               JsonValue::Number(s.NumberOr("pages_written", 0)));
      const JsonValue* ok = s.Find("ok");
      args.Set("ok", JsonValue::Bool(ok == nullptr || ok->boolean()));
      e.Set("args", std::move(args));
      events.Push(std::move(e));
    }
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", JsonValue::Str("ms"));
  return root.Dump();
}

StatusOr<JsonValue> ReadSnapshotFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no snapshot at " + path);
    }
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  std::string all;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    all.append(buf, n);
  }
  int rerr = std::ferror(f);
  std::fclose(f);
  if (rerr != 0) {
    return Status::IOError("read(" + path + ") failed");
  }
  return JsonValue::Parse(all);
}

// ----- background snapshot writer --------------------------------------------

SnapshotWriter::~SnapshotWriter() { Stop(); }

void SnapshotWriter::Start(std::string path, uint64_t interval_ms) {
  Stop();
  std::lock_guard<std::mutex> g(mu_);
  path_ = std::move(path);
  interval_ms_ = interval_ms == 0 ? 1000 : interval_ms;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void SnapshotWriter::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> g(mu_);
  running_ = false;
}

bool SnapshotWriter::running() const {
  std::lock_guard<std::mutex> g(mu_);
  return running_;
}

uint64_t SnapshotWriter::writes() const {
  std::lock_guard<std::mutex> g(mu_);
  return writes_;
}

void SnapshotWriter::Loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::string path = path_;
    lk.unlock();
    Status s = WriteSnapshotFile(path);
    lk.lock();
    if (s.ok()) ++writes_;
    if (stop_) return;  // the write above was the final one
    cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
    if (stop_) {
      // One last write so the file reflects the state at Stop().
      std::string final_path = path_;
      lk.unlock();
      if (WriteSnapshotFile(final_path).ok()) {
        lk.lock();
        ++writes_;
      } else {
        lk.lock();
      }
      return;
    }
  }
}

}  // namespace obs
}  // namespace eos
