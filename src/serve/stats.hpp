// Serving-side observability: a log-linear latency histogram (bounded
// memory, ~±2 % relative resolution) and the ServeStats snapshot every
// FleetServer tenant (and the one-tenant InferenceEngine) exposes.
//
// The histogram follows the HDR-histogram idea scaled down: bucket i
// covers latencies in [2^(i/kSub), 2^((i+1)/kSub)) microseconds, so
// every octave is split into kSub geometric sub-buckets. Percentiles are
// reported as the geometric midpoint of the bucket holding the requested
// rank — an approximation bounded by the bucket width, which is what a
// production serving stack records (exact per-request latencies are not
// retained).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace tinyadc::serve {

/// Log-linear latency histogram over microseconds.
class LatencyHistogram {
 public:
  static constexpr int kSub = 16;          ///< sub-buckets per octave
  static constexpr std::size_t kBuckets = 512;  ///< covers up to ~2^32 us

  /// Records one latency observation (clamped to [1us, top bucket]).
  void record(double us);

  /// Number of recorded observations.
  std::uint64_t count() const { return count_; }
  /// Arithmetic mean of the raw (unbucketed) observations.
  double mean_us() const { return count_ ? sum_us_ / count_ : 0.0; }
  /// Largest raw observation.
  double max_us() const { return max_us_; }
  /// Approximate percentile `p` in [0, 100]; 0 when empty.
  double percentile(double p) const;
  /// Adds every observation of `other` into this histogram.
  void merge(const LatencyHistogram& other);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
  double max_us_ = 0.0;
};

/// Point-in-time snapshot of one tenant's (or a fleet's aggregate) counters.
struct ServeStats {
  std::uint64_t requests = 0;   ///< completed requests
  std::uint64_t batches = 0;    ///< executed batches
  std::uint64_t rejected = 0;   ///< submits refused by the queue bound
  double wall_s = 0.0;          ///< seconds since the tenant registered
  double qps = 0.0;             ///< requests / wall_s
  double p50_us = 0.0;          ///< request latency percentiles
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  double mean_batch = 0.0;      ///< requests / batches
  /// batch_hist[b] = number of executed batches of size b (index 0 unused).
  std::vector<std::uint64_t> batch_hist;
  std::size_t max_queue_depth = 0;  ///< deepest queue seen at submit time
  // Aggregate ADC/DAC activity absorbed from the shared layer sims since
  // the tenant registered (deltas, so tenants over one compiled network
  // report only their own traffic).
  std::int64_t adc_conversions = 0;
  std::int64_t adc_clip_events = 0;
  std::int64_t dac_cycles = 0;
  /// Process peak resident set (ru_maxrss), snapshotted with the stats.
  std::int64_t peak_rss_kb = 0;
  /// Artifact load-phase breakdown (artifact::LoadPhases), injected by the
  /// serving entry points when the tenant was cold-started from an
  /// artifact; all zero for in-process construction.
  double load_map_ms = 0.0;
  double load_validate_ms = 0.0;
  double load_stream_ms = 0.0;

  /// Human-readable stats table (the `serve`/`loadgen` CLI output).
  std::string to_table() const;
  /// Flat JSON object (no trailing newline) with every counter above.
  std::string to_json() const;
};

/// Escapes `s` for embedding inside a double-quoted JSON string: backslash,
/// double quote, and control characters (\b \f \n \r \t, \u00XX otherwise).
std::string json_escape(const std::string& s);

/// FNV-1a digest of raw bytes; `h` chains calls (pass the previous digest).
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

/// Peak resident-set size of this process in KiB (getrusage ru_maxrss);
/// 0 if the platform cannot report it.
std::int64_t peak_rss_kb();

}  // namespace tinyadc::serve
