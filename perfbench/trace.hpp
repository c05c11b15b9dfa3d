// In-memory span recorder for the benchmark driver.
//
// The driver wraps every call it makes into a TinyADC module in a span
// named "<layer>.<operation>" (layer = module name: serve, msim, artifact,
// nn, core, xbar, fault, data, runtime). Spans live in memory while the
// workload runs and are written once at the end as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open directly. Each span records its
// parent (the innermost span open on the same thread when it began) and a
// flow id, so the spans of one request or one pruning flow share an id.
//
// A disabled recorder costs one branch per span: begin() returns 0 and
// end(0) returns immediately.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;  ///< relative to the recorder's origin
    std::int64_t end_ns = 0;
    std::int64_t parent = 0;  ///< span id of the parent, 0 = root
    std::uint64_t flow = 0;   ///< request / flow id shared by related spans
    int tid = 0;              ///< small per-thread index
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  std::int64_t begin(const std::string& name, std::uint64_t flow = 0);
  /// Closes the span `id` opened by begin() on the same thread.
  void end(std::int64_t id);
  /// Records an already-measured span (e.g. a request whose start and end
  /// were observed on different threads). No parent.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint64_t flow);

  std::size_t size() const;

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part of its interval covered by its direct children, summed by the
  /// layer prefix of the span name (text before the first '.').
  std::map<std::string, double> self_ms_by_layer() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events with
  /// span id, parent id and flow id in args).
  void write_chrome_json(const std::string& path) const;

 private:
  std::int64_t to_ns(Clock::time_point t) const;
  int thread_index();

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_ and tids_
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, int> tids_;
};

/// RAII span: begin() on construction, end() on destruction.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, std::uint64_t flow = 0)
      : tracer_(tracer), id_(tracer.begin(name, flow)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
