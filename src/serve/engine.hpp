// Single-model serving: a FleetServer with one tenant.
//
// Requests (single images) are batched and executed exactly as a fleet
// tenant's (serve/fleet.hpp): a pool of `workers` threads, each with its
// own AnalogSession replica over the shared compiled plans, takes batches
// of up to `max_batch` requests, holding a partial batch until the oldest
// request's `max_wait_us` deadline. Mixed (C, H, W) input shapes are
// bucketed per shape, and every result reports version 1 (an engine never
// hot-swaps).
//
// Determinism contract (`ServeConfig::deterministic`): batches are
// consecutive arrival-order groups of exactly `max_batch` requests, and
// partials are released only when the engine drains (wait_idle/shutdown),
// so outputs and the ADC/clip/DAC counter deltas are byte-identical at any
// worker count. Latency/queue-depth statistics are timing-dependent and
// excluded from the contract.
#pragma once

#include <cstdint>
#include <future>

#include "msim/analog_network.hpp"
#include "serve/fleet.hpp"

namespace tinyadc::serve {

/// Engine tuning knobs (one tenant's TenantConfig plus the pool size).
struct ServeConfig {
  int workers = 1;               ///< worker sessions (threads)
  std::size_t max_batch = 8;     ///< batch coalescing limit
  std::int64_t max_wait_us = 1000;  ///< partial-batch flush deadline
  bool deterministic = false;    ///< pin batch composition by arrival order
  std::size_t max_queue = 0;     ///< 0 = unbounded; else reject when full
};

/// Serves one calibrated AnalogNetwork, which must outlive the engine.
/// `submit` is safe from any number of producer threads.
class InferenceEngine {
 public:
  InferenceEngine(const msim::AnalogNetwork& compiled, ServeConfig config)
      : fleet_(FleetConfig{config.workers}),
        tenant_(fleet_.add_tenant(
            TenantConfig{.name = "engine",
                         .max_batch = config.max_batch,
                         .max_wait_us = config.max_wait_us,
                         .max_queue = config.max_queue,
                         .deterministic = config.deterministic},
            compiled)) {}

  /// Enqueues one (C, H, W) image; the future carries an exception if the
  /// queue bound rejected the submit or the forward pass failed.
  std::future<InferenceResult> submit(Tensor image) {
    return fleet_.submit(tenant_, std::move(image));
  }
  /// Blocks until every submitted request has completed (releasing
  /// deterministic partial batches).
  void wait_idle() { fleet_.wait_idle(); }
  /// Stops accepting work, serves everything still queued and joins the
  /// workers. Idempotent; also run by the destructor.
  void shutdown() { fleet_.shutdown(); }
  /// Live counter snapshot; safe to call while serving.
  ServeStats stats() const { return fleet_.stats().tenants[0].stats; }

 private:
  FleetServer fleet_;
  int tenant_;
};

}  // namespace tinyadc::serve
