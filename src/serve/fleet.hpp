// The serving core: one registry, many deployments.
//
// A FleetServer owns N named tenants. Each tenant is one deployed model —
// loaded from a `.tadc` artifact (copied or mmap path) or hooked to an
// in-process AnalogNetwork — with its own batching policy, queue bound,
// priority class and fair-share weight. Every tenant is served by one
// shared pool of `FleetConfig::workers` threads; each worker holds one
// AnalogSession replica (a cheap Model::clone() hooked to the shared
// compiled plans) per tenant version, so plan compilation and calibration
// happen once per deployment. Single-model serving is the one-tenant case
// (serve/engine.hpp is a facade over it).
//
// Admission and scheduling:
//  * `max_queue` rejection is per tenant — one tenant flooding its queue
//    never consumes another tenant's budget (each rejection is reported in
//    that tenant's stats).
//  * Dequeue across tenants is strict-priority between classes (priority 0
//    is served before priority 1 whenever it has a ready batch, so a
//    saturated low-priority tenant cannot starve a high-priority one) and
//    weighted-fair within a class (start-time fair queueing: each flow
//    carries a virtual finish time advanced by batch_cost/weight; the
//    backlogged flow with the smallest virtual start tag is served next,
//    so long-run service is proportional to the configured weights).
//
// Shape-bucketed batching: a tenant accepts mixed (C, H, W) input sizes;
// requests land in per-shape buckets and batches are formed within one
// bucket, so mixed-size traffic still batches instead of degenerating to
// singletons. The per-tenant determinism contract survives: in
// deterministic mode each bucket releases only consecutive arrival-order
// groups of exactly `max_batch` (partials at drain), so batch composition
// — and therefore outputs, per-request digests and the tenant's ADC
// counter deltas — is byte-identical at any worker count and unaffected by
// co-tenant load. The cross-tenant *interleaving* is timing-dependent and
// outside the contract; nothing a tenant reports depends on it.
//
// Live hot-swap: swap_tenant() loads a new artifact version off to the
// side (no lock held — traffic keeps flowing), then blocks the tenant's
// dequeues, waits for its in-flight batches to drain, retires the old
// version's counter delta into the tenant's accumulated stats, flips the
// version pointer and re-captures the ADC baseline, and unblocks. Queued
// and newly submitted requests are never dropped — they simply execute on
// the new version. Because every batch pins the version it was popped
// under (a shared_ptr captured at dequeue, before the swap can flip), no
// batch ever spans two versions, and each response carries the version
// ordinal that served it.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.hpp"
#include "msim/analog_network.hpp"
#include "serve/stats.hpp"

namespace tinyadc::serve {

/// Outcome of one served request.
struct InferenceResult {
  std::uint64_t seq = 0;         ///< per-tenant arrival sequence number
  std::vector<float> logits;     ///< class scores
  std::int64_t label = 0;        ///< argmax of logits
  double latency_us = 0.0;       ///< submit-to-completion (not deterministic)
  std::uint64_t batch_seq = 0;   ///< which batch served this request
  std::size_t batch_size = 0;    ///< size of that batch
  /// Model-version ordinal that served this request: 1 for the version a
  /// tenant started with, incremented by every hot-swap (so always 1 for
  /// an InferenceEngine, which never swaps).
  std::uint64_t version = 0;
};

/// Per-tenant deployment + admission policy.
struct TenantConfig {
  std::string name;                 ///< unique registry key
  std::size_t max_batch = 8;        ///< batch coalescing limit
  std::int64_t max_wait_us = 1000;  ///< partial-batch flush deadline
  std::size_t max_queue = 0;        ///< 0 = unbounded; else reject when full
  bool deterministic = false;       ///< pin batch composition per bucket
  int priority = 0;    ///< strict admission class; 0 is served first
  double weight = 1.0; ///< fair share within the priority class (> 0)
};

/// Fleet-wide knobs.
struct FleetConfig {
  int workers = 1;  ///< shared worker threads serving every tenant
};

/// One tenant's slice of a FleetStats snapshot.
struct TenantStats {
  std::string name;
  std::uint64_t version = 0;  ///< active version ordinal (1 = initial)
  int priority = 0;
  double weight = 1.0;
  std::size_t queued = 0;     ///< requests waiting in the shape buckets
  std::string artifact_path;  ///< active version's file ("" = in-process)
  std::uint64_t artifact_digest = 0;  ///< artifact::ArtifactInfo digest
  ServeStats stats;           ///< the shared per-tenant schema
};

/// Point-in-time snapshot of the whole fleet.
struct FleetStats {
  ServeStats aggregate;  ///< summed/merged across tenants
  std::vector<TenantStats> tenants;

  /// Human-readable fleet table (the `fleet` CLI output).
  std::string to_table() const;
  /// {"aggregate": {...}, "tenants": [{"name": ..., "stats": {...}}, ...]}.
  std::string to_json() const;
};

/// Start-time fair queueing over a fixed set of flows, with strict
/// priority between classes. Public so the admission-control property
/// tests can drive it directly against randomized arrival orders.
///
/// pick() is pure; after executing the chosen flow's batch the caller
/// reports the service cost via account(), which advances the class
/// virtual clock and the flow's virtual finish time by cost/weight.
class WeightedFairPicker {
 public:
  /// Registers the next flow (index = registration order).
  void add(int priority, double weight);

  /// Index of the flow to serve next among those with `ready[i] != 0`,
  /// or -1 when none is ready. Strict priority first; within the top
  /// ready class, the smallest virtual start tag max(vfinish, vclock)
  /// wins, ties broken by lowest index.
  int pick(const std::vector<char>& ready) const;

  /// Charges `cost` units of service to flow `idx` (chosen by pick()).
  void account(int idx, double cost);

  std::size_t size() const { return flows_.size(); }

 private:
  struct Flow {
    int priority = 0;
    double weight = 1.0;
    double vfinish = 0.0;  ///< virtual finish time of the last batch
  };
  /// Virtual start tag flow i would dequeue with right now.
  double start_tag(std::size_t i) const;

  std::vector<Flow> flows_;
  double vclock_ = 0.0;  ///< start tag of the most recent dequeue
};

/// The registry. Construction starts the shared worker pool; tenants may
/// be added before or after traffic starts. All public methods are safe
/// to call concurrently from any number of threads (swap_tenant for
/// *different* tenants included; swaps of one tenant serialize).
class FleetServer {
 public:
  explicit FleetServer(FleetConfig config);
  ~FleetServer();
  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Registers a tenant served from a `.tadc` artifact (version ordinal 1).
  /// `mmap` selects the zero-copy load path with async section streaming.
  /// Returns the tenant's index.
  int add_tenant(const TenantConfig& config, const std::string& artifact_path,
                 bool mmap = false);

  /// Registers a tenant over an in-process compiled network, which must
  /// outlive the fleet (or the tenant's first swap, whichever is earlier).
  int add_tenant(const TenantConfig& config,
                 const msim::AnalogNetwork& compiled);

  /// Index of the tenant named `name`; throws when unknown.
  int tenant_id(const std::string& name) const;

  /// Active version ordinal of a tenant (1 until the first swap).
  std::uint64_t tenant_version(const std::string& name) const;

  /// Enqueues one (C, H, W) image for a tenant. The future carries an
  /// exception when the tenant's queue bound rejects the submit or the
  /// forward pass fails. Mixed shapes are fine (shape-bucketed batching).
  std::future<InferenceResult> submit(int tenant, Tensor image);
  std::future<InferenceResult> submit(const std::string& name, Tensor image);

  /// Hot-swaps `name` to the artifact at `path` under traffic: drains the
  /// tenant's in-flight batches, flips the version, re-captures the ADC
  /// baseline. No queued or in-flight request is dropped. Returns the new
  /// version ordinal. Throws (leaving the tenant untouched) when the
  /// artifact is unloadable or its class count differs.
  std::uint64_t swap_tenant(const std::string& name, const std::string& path,
                            bool mmap = false);

  /// Blocks until every tenant's queue and in-flight set is empty; also
  /// releases deterministic partial batches (the drain is part of each
  /// tenant's deterministic request stream).
  void wait_idle();

  /// Stops accepting work, serves everything still queued, joins all
  /// threads. Idempotent; also run by the destructor.
  void shutdown();

  /// Live fleet snapshot; safe to call while serving and mid-swap.
  FleetStats stats() const;

  const FleetConfig& config() const { return config_; }
  std::size_t tenant_count() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::uint64_t seq = 0;
    Tensor image;
    Clock::time_point t_submit;
    std::promise<InferenceResult> promise;
  };

  /// One (C, H, W) shape class within a tenant's queue.
  struct Bucket {
    std::array<std::int64_t, 3> shape{};
    std::deque<Pending> items;
  };

  /// One deployed model version. Batches pin their version with a
  /// shared_ptr copied at dequeue, so a retired version stays alive until
  /// its last batch completes. Member order is destruction order in
  /// reverse: the sessions go first, the deployment last.
  struct Version {
    std::uint64_t ordinal = 1;
    std::optional<artifact::Deployment> deployment;  ///< empty = in-process
    const msim::AnalogNetwork* analog = nullptr;
    /// One session replica per shared worker.
    std::vector<std::unique_ptr<msim::AnalogSession>> sessions;
    /// Counter totals at activation; guarded by stats_mu_.
    msim::MsimStats baseline;
  };

  struct Tenant {
    TenantConfig cfg;
    Clock::time_point t_start;

    // Queue state — guarded by FleetServer::mu_. (A deque: growing the
    // bucket set must not relocate the move-only promise queues.)
    std::deque<Bucket> buckets;
    std::size_t queued = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t next_batch_seq = 0;
    std::size_t inflight = 0;
    bool swap_blocked = false;  ///< dequeues held while a swap drains/flips
    std::uint64_t rejected = 0;
    std::size_t max_queue_depth = 0;
    std::uint64_t next_ordinal = 2;
    std::shared_ptr<Version> current;

    // Completion stats — guarded by FleetServer::stats_mu_.
    LatencyHistogram latency;
    std::uint64_t completed = 0;
    std::uint64_t batches_done = 0;
    std::vector<std::uint64_t> batch_hist;
    /// Accumulated counter deltas of retired (swapped-out) versions.
    msim::MsimStats retired;
  };

  /// A dequeued batch: everything a worker needs with mu_ released.
  /// `tenant` is captured under mu_ so workers never index tenants_
  /// unlocked (register_tenant may reallocate the vector under traffic);
  /// the Tenant object itself is stable for the fleet's lifetime.
  struct Popped {
    Tenant* tenant = nullptr;
    std::vector<Pending> batch;
    std::uint64_t batch_seq = 0;
    std::shared_ptr<Version> version;  ///< pinned at dequeue — never torn
  };

  /// Builds a Version over a calibrated network (one session per shared
  /// worker), taking ownership of its deployment when it has one. No locks
  /// taken.
  std::shared_ptr<Version> build_version(
      const msim::AnalogNetwork& analog,
      std::optional<artifact::Deployment> deployment = std::nullopt);
  int register_tenant(const TenantConfig& config,
                      std::shared_ptr<Version> version);
  int tenant_id_locked(const std::string& name) const;

  /// True when `bucket` can release a batch right now (full, flushing,
  /// or — non-deterministic tenants only — past the deadline).
  bool bucket_ready(const Tenant& t, const Bucket& bucket,
                    Clock::time_point now) const;
  /// True when tenant `t` has any ready bucket (and isn't swap-blocked).
  bool tenant_ready(const Tenant& t, Clock::time_point now) const;
  /// Earliest partial-batch flush deadline across `t`'s buckets, if any.
  std::optional<Clock::time_point> tenant_deadline(const Tenant& t) const;

  /// Pops the next batch for tenant `idx` (caller holds mu_ and has
  /// established readiness). Picks the ready bucket with the oldest
  /// front sequence number — deterministic given arrival order.
  Popped pop_batch(int idx);

  /// Shared-pool dequeue: waits for any ready tenant, picks one via the
  /// weighted-fair picker, pops. False when the pool should exit (stopping
  /// and nothing left to serve).
  bool take_shared(Popped& out);

  void worker_main(int worker);

  /// Copies the batch's images into one (B, C, H, W) tensor.
  static Tensor assemble(const std::vector<Pending>& batch);
  /// Fulfills promises, stamps the version ordinal, merges latency/batch
  /// stats into tenant `t`.
  void finish_batch(Tenant& t, std::vector<Pending>& batch,
                    std::uint64_t batch_seq, std::uint64_t version,
                    const Tensor& logits, std::exception_ptr error);
  /// Retires `n` in-flight requests of tenant `t`, waking drain/swap
  /// waiters when the tenant (or the fleet) goes idle.
  void complete_inflight(Tenant& t, std::size_t n);

  const FleetConfig config_;
  Clock::time_point t_start_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;  ///< guards tenant queue state + the picker
  std::condition_variable cv_;       ///< work / stop / swap-unblocked
  std::condition_variable idle_cv_;  ///< a tenant (or the fleet) drained
  std::vector<std::unique_ptr<Tenant>> tenants_;
  WeightedFairPicker picker_;
  int drain_waiters_ = 0;
  bool stop_ = false;

  mutable std::mutex stats_mu_;  ///< guards completion stats + baselines
};

}  // namespace tinyadc::serve
