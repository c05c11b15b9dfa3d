#include "serve/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace tinyadc::serve {

namespace {

/// Sum of the locked per-layer counter snapshots of a compiled network.
msim::MsimStats sims_total(const msim::AnalogNetwork& compiled) {
  msim::MsimStats total;
  for (const auto& sim : compiled.sims()) {
    const msim::MsimStats s = sim->stats_snapshot();
    total.adc_conversions += s.adc_conversions;
    total.adc_clip_events += s.adc_clip_events;
    total.dac_cycles += s.dac_cycles;
  }
  return total;
}

/// into += now - baseline.
void accumulate_delta(msim::MsimStats& into, const msim::MsimStats& now,
                      const msim::MsimStats& baseline) {
  into.adc_conversions += now.adc_conversions - baseline.adc_conversions;
  into.adc_clip_events += now.adc_clip_events - baseline.adc_clip_events;
  into.dac_cycles += now.dac_cycles - baseline.dac_cycles;
}

}  // namespace

// ---------------------------------------------------------------------------
// WeightedFairPicker

void WeightedFairPicker::add(int priority, double weight) {
  TINYADC_CHECK(weight > 0.0, "fair-share weight must be > 0, got " << weight);
  Flow f;
  f.priority = priority;
  f.weight = weight;
  f.vfinish = 0.0;
  flows_.push_back(f);
}

double WeightedFairPicker::start_tag(std::size_t i) const {
  return std::max(flows_[i].vfinish, vclock_);
}

int WeightedFairPicker::pick(const std::vector<char>& ready) const {
  TINYADC_CHECK(ready.size() == flows_.size(),
                "ready mask size " << ready.size() << " != flow count "
                                   << flows_.size());
  int best = -1;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (ready[i] == 0) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Flow& b = flows_[static_cast<std::size_t>(best)];
    const Flow& f = flows_[i];
    if (f.priority < b.priority ||
        (f.priority == b.priority &&
         start_tag(i) < start_tag(static_cast<std::size_t>(best))))
      best = static_cast<int>(i);
  }
  return best;
}

void WeightedFairPicker::account(int idx, double cost) {
  TINYADC_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < flows_.size(),
                "account on unknown flow " << idx);
  Flow& f = flows_[static_cast<std::size_t>(idx)];
  const double start = start_tag(static_cast<std::size_t>(idx));
  vclock_ = start;
  f.vfinish = start + cost / f.weight;
}

// ---------------------------------------------------------------------------
// FleetServer

FleetServer::FleetServer(FleetConfig config)
    : config_(config), t_start_(Clock::now()) {
  TINYADC_CHECK(config_.workers >= 1, "fleet needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

FleetServer::~FleetServer() { shutdown(); }

std::shared_ptr<FleetServer::Version> FleetServer::build_version(
    const msim::AnalogNetwork& analog,
    std::optional<artifact::Deployment> deployment) {
  TINYADC_CHECK(analog.calibrated(),
                "fleet tenants require a calibrated AnalogNetwork");
  auto v = std::make_shared<Version>();
  v->deployment = std::move(deployment);
  v->analog = &analog;
  for (int w = 0; w < config_.workers; ++w)
    v->sessions.push_back(std::make_unique<msim::AnalogSession>(analog));
  return v;
}

namespace {

/// Loads an artifact for a new tenant version: mapped (async streaming) or
/// copied, then waits for the streamer so the version is complete.
artifact::Deployment load_deployment(const std::string& path, bool mmap) {
  artifact::Deployment dep = mmap ? artifact::load_artifact_mapped(path, true)
                                  : artifact::load_artifact(path);
  dep.finish_streaming();
  TINYADC_CHECK(dep.analog != nullptr,
                "artifact deployment has no analog network");
  return dep;
}

}  // namespace

int FleetServer::register_tenant(const TenantConfig& config,
                                 std::shared_ptr<Version> version) {
  TINYADC_CHECK(!config.name.empty(), "tenant needs a name");
  TINYADC_CHECK(config.max_batch >= 1, "max_batch must be >= 1");
  TINYADC_CHECK(config.weight > 0.0, "tenant weight must be > 0");
  TINYADC_CHECK(config.priority >= 0, "tenant priority must be >= 0");
  {
    // Counters accumulated before the tenant existed (calibration runs,
    // other tenants over the same in-process network) are not its traffic.
    std::lock_guard<std::mutex> sl(stats_mu_);
    version->baseline = sims_total(*version->analog);
  }
  std::lock_guard<std::mutex> lk(mu_);
  TINYADC_CHECK(!stop_, "add_tenant after shutdown");
  for (const auto& tp : tenants_)
    TINYADC_CHECK(tp->cfg.name != config.name,
                  "duplicate tenant name '" << config.name << "'");
  const int idx = static_cast<int>(tenants_.size());
  auto tenant = std::make_unique<Tenant>();
  tenant->cfg = config;
  tenant->t_start = Clock::now();
  tenant->batch_hist.assign(config.max_batch + 1, 0);
  tenant->current = std::move(version);
  picker_.add(config.priority, config.weight);
  tenants_.push_back(std::move(tenant));
  return idx;
}

int FleetServer::add_tenant(const TenantConfig& config,
                            const std::string& artifact_path, bool mmap) {
  artifact::Deployment dep = load_deployment(artifact_path, mmap);
  const msim::AnalogNetwork& analog = *dep.analog;
  return register_tenant(config, build_version(analog, std::move(dep)));
}

int FleetServer::add_tenant(const TenantConfig& config,
                            const msim::AnalogNetwork& compiled) {
  return register_tenant(config, build_version(compiled));
}

int FleetServer::tenant_id_locked(const std::string& name) const {
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    if (tenants_[i]->cfg.name == name) return static_cast<int>(i);
  TINYADC_CHECK(false, "unknown tenant '" << name << "'");
  return -1;
}

int FleetServer::tenant_id(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenant_id_locked(name);
}

std::uint64_t FleetServer::tenant_version(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_[static_cast<std::size_t>(tenant_id_locked(name))]
      ->current->ordinal;
}

std::size_t FleetServer::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.size();
}

std::future<InferenceResult> FleetServer::submit(int tenant, Tensor image) {
  TINYADC_CHECK(image.ndim() == 3, "submit expects a (C, H, W) image, got "
                                       << image.ndim() << " dims");
  std::lock_guard<std::mutex> lk(mu_);
  TINYADC_CHECK(!stop_, "submit after shutdown");
  TINYADC_CHECK(tenant >= 0 && static_cast<std::size_t>(tenant) <
                                   tenants_.size(),
                "unknown tenant index " << tenant);
  Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  if (t.cfg.max_queue > 0 && t.queued >= t.cfg.max_queue) {
    // Per-tenant admission: this tenant's flood never consumes another
    // tenant's queue budget.
    ++t.rejected;
    std::promise<InferenceResult> p;
    p.set_exception(std::make_exception_ptr(std::runtime_error(
        "tenant '" + t.cfg.name + "' queue full (max_queue reached)")));
    return p.get_future();
  }
  const std::array<std::int64_t, 3> shape = {image.dim(0), image.dim(1),
                                             image.dim(2)};
  Bucket* bucket = nullptr;
  for (Bucket& b : t.buckets)
    if (b.shape == shape) {
      bucket = &b;
      break;
    }
  if (bucket == nullptr) {
    t.buckets.emplace_back();
    bucket = &t.buckets.back();
    bucket->shape = shape;
  }
  Pending pending;
  pending.seq = t.next_seq++;
  pending.image = std::move(image);
  pending.t_submit = Clock::now();
  auto future = pending.promise.get_future();
  bucket->items.push_back(std::move(pending));
  ++t.queued;
  t.max_queue_depth = std::max(t.max_queue_depth, t.queued);
  // Wake the workers only when this submit can change what a sleeping
  // worker would pick: the bucket filled, or its first request set a new
  // deadline (non-deterministic) or is ready at once (draining). Any other
  // submit would wake every worker to find nothing new.
  const bool first = bucket->items.size() == 1 &&
                     (!t.cfg.deterministic || drain_waiters_ > 0);
  if (first || bucket->items.size() >= t.cfg.max_batch) cv_.notify_all();
  return future;
}

std::future<InferenceResult> FleetServer::submit(const std::string& name,
                                                Tensor image) {
  return submit(tenant_id(name), std::move(image));
}

bool FleetServer::bucket_ready(const Tenant& t, const Bucket& bucket,
                               Clock::time_point now) const {
  if (bucket.items.empty()) return false;
  if (bucket.items.size() >= t.cfg.max_batch) return true;
  if (stop_ || drain_waiters_ > 0) return true;  // flushing partials
  if (t.cfg.deterministic) return false;  // partials wait for a drain
  return now >= bucket.items.front().t_submit +
                    std::chrono::microseconds(t.cfg.max_wait_us);
}

bool FleetServer::tenant_ready(const Tenant& t, Clock::time_point now) const {
  if (t.swap_blocked) return false;
  for (const Bucket& b : t.buckets)
    if (bucket_ready(t, b, now)) return true;
  return false;
}

std::optional<FleetServer::Clock::time_point> FleetServer::tenant_deadline(
    const Tenant& t) const {
  if (t.swap_blocked || t.cfg.deterministic) return std::nullopt;
  std::optional<Clock::time_point> dl;
  for (const Bucket& b : t.buckets) {
    if (b.items.empty() || b.items.size() >= t.cfg.max_batch) continue;
    const auto d = b.items.front().t_submit +
                   std::chrono::microseconds(t.cfg.max_wait_us);
    if (!dl || d < *dl) dl = d;
  }
  return dl;
}

FleetServer::Popped FleetServer::pop_batch(int idx) {
  Tenant& t = *tenants_[static_cast<std::size_t>(idx)];
  const auto now = Clock::now();
  std::size_t best = t.buckets.size();
  for (std::size_t b = 0; b < t.buckets.size(); ++b) {
    if (!bucket_ready(t, t.buckets[b], now)) continue;
    if (best == t.buckets.size() ||
        t.buckets[b].items.front().seq < t.buckets[best].items.front().seq)
      best = b;
  }
  TINYADC_CHECK(best < t.buckets.size(), "pop_batch with no ready bucket");
  Bucket& bucket = t.buckets[best];
  const std::size_t take = std::min(t.cfg.max_batch, bucket.items.size());
  Popped out;
  out.tenant = &t;
  out.batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.batch.push_back(std::move(bucket.items.front()));
    bucket.items.pop_front();
  }
  if (bucket.items.empty())
    t.buckets.erase(t.buckets.begin() + static_cast<std::ptrdiff_t>(best));
  out.batch_seq = t.next_batch_seq++;
  // Pin the version under the same lock hold as the pop: a swap can only
  // flip the pointer after this batch drains, so no batch spans versions.
  out.version = t.current;
  t.inflight += take;
  t.queued -= take;
  return out;
}

bool FleetServer::take_shared(Popped& out) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const auto now = Clock::now();
    std::vector<char> ready(tenants_.size(), 0);
    bool any = false;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      if (tenant_ready(*tenants_[i], now)) {
        ready[i] = 1;
        any = true;
      }
    }
    if (any) {
      const int idx = picker_.pick(ready);
      out = pop_batch(idx);
      picker_.account(idx, static_cast<double>(out.batch.size()));
      lk.unlock();
      cv_.notify_all();  // more ready work may remain for other takers
      return true;
    }
    // Exit only when stopping AND every tenant is empty. A swap-blocked
    // tenant with queued work keeps the pool alive: the swap unblocks it
    // (and notifies cv_) before swap_tenant returns.
    bool pending = false;
    for (const auto& tp : tenants_)
      if (tp->queued > 0) pending = true;
    if (stop_ && !pending) return false;
    std::optional<Clock::time_point> dl;
    for (const auto& tp : tenants_) {
      const auto d = tenant_deadline(*tp);
      if (d && (!dl || *d < *dl)) dl = d;
    }
    if (dl)
      cv_.wait_until(lk, *dl);
    else
      cv_.wait(lk);
  }
}

Tensor FleetServer::assemble(const std::vector<Pending>& batch) {
  const auto b = static_cast<std::int64_t>(batch.size());
  const Tensor& first = batch.front().image;
  const std::int64_t chw = first.numel();
  Tensor images({b, first.dim(0), first.dim(1), first.dim(2)});
  for (std::int64_t i = 0; i < b; ++i)
    std::memcpy(images.data() + i * chw,
                batch[static_cast<std::size_t>(i)].image.data(),
                static_cast<std::size_t>(chw) * sizeof(float));
  return images;
}

void FleetServer::worker_main(int worker) {
  for (;;) {
    Popped p;
    if (!take_shared(p)) return;
    Tenant& t = *p.tenant;
    Tensor logits;
    std::exception_ptr error;
    try {
      msim::AnalogSession& session =
          *p.version->sessions[static_cast<std::size_t>(worker)];
      logits = session.forward(assemble(p.batch));
    } catch (...) {
      error = std::current_exception();
    }
    finish_batch(t, p.batch, p.batch_seq, p.version->ordinal, logits, error);
    const std::size_t n = p.batch.size();
    p.version.reset();  // drop the version pin before waking swap waiters
    complete_inflight(t, n);
  }
}

void FleetServer::finish_batch(Tenant& t, std::vector<Pending>& batch,
                               std::uint64_t batch_seq, std::uint64_t version,
                               const Tensor& logits,
                               std::exception_ptr error) {
  if (error) {
    for (Pending& p : batch) p.promise.set_exception(error);
    return;
  }
  const auto b = static_cast<std::int64_t>(batch.size());
  const auto t_done = Clock::now();
  const std::int64_t k = logits.dim(1);

  const auto latency_us = [t_done](const Pending& p) {
    return std::chrono::duration<double, std::micro>(t_done - p.t_submit)
        .count();
  };
  // Stats before results: a caller whose future is ready must find its
  // request counted in stats().
  LatencyHistogram local;
  for (const Pending& p : batch) local.record(latency_us(p));
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    t.latency.merge(local);
    t.completed += batch.size();
    ++t.batches_done;
    ++t.batch_hist[batch.size()];
  }
  for (std::int64_t i = 0; i < b; ++i) {
    Pending& p = batch[static_cast<std::size_t>(i)];
    InferenceResult result;
    result.seq = p.seq;
    result.logits.assign(logits.data() + i * k, logits.data() + (i + 1) * k);
    result.label = argmax_range(logits, i * k, (i + 1) * k);
    result.latency_us = latency_us(p);
    result.batch_seq = batch_seq;
    result.batch_size = batch.size();
    result.version = version;
    p.promise.set_value(std::move(result));
  }
}

void FleetServer::complete_inflight(Tenant& t, std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  t.inflight -= n;
  // Wakes both swap_tenant (waiting on one tenant's inflight) and
  // wait_idle (waiting on the whole fleet); both recheck their predicates.
  idle_cv_.notify_all();
}

std::uint64_t FleetServer::swap_tenant(const std::string& name,
                                      const std::string& path, bool mmap) {
  // Load and validate the candidate entirely outside the locks — traffic
  // keeps flowing (on the old version) while the artifact parses.
  artifact::Deployment dep = load_deployment(path, mmap);
  int idx = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    idx = tenant_id_locked(name);
    const Tenant& t = *tenants_[static_cast<std::size_t>(idx)];
    if (t.current->deployment) {
      TINYADC_CHECK(
          dep.meta.model_config.num_classes ==
              t.current->deployment->meta.model_config.num_classes,
          "hot-swap for tenant '" << name << "' changes the class count ("
                                  << t.current->deployment->meta.model_config
                                         .num_classes
                                  << " -> "
                                  << dep.meta.model_config.num_classes
                                  << ")");
    }
  }
  const msim::AnalogNetwork& analog = *dep.analog;
  std::shared_ptr<Version> next = build_version(analog, std::move(dep));

  std::shared_ptr<Version> old;
  std::uint64_t ordinal = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    Tenant& t = *tenants_[static_cast<std::size_t>(idx)];
    // Swaps of one tenant serialize; co-tenant swaps proceed in parallel.
    cv_.wait(lk, [&t, this] { return !t.swap_blocked || stop_; });
    TINYADC_CHECK(!stop_, "swap_tenant after shutdown");
    t.swap_blocked = true;  // dequeues held; submits keep landing
    idle_cv_.wait(lk, [&t] { return t.inflight == 0; });
    {
      // The old version gets no further traffic (pops are blocked and its
      // in-flight set just drained), so its delta is final: retire it into
      // the tenant's accumulated stats and start the new version's delta
      // from its own baseline. stats() keeps reporting exact totals
      // through the flip.
      std::lock_guard<std::mutex> sl(stats_mu_);
      accumulate_delta(t.retired, sims_total(*t.current->analog),
                       t.current->baseline);
      next->baseline = sims_total(*next->analog);
    }
    ordinal = t.next_ordinal++;
    next->ordinal = ordinal;
    old = std::move(t.current);
    t.current = std::move(next);
    t.swap_blocked = false;
  }
  cv_.notify_all();  // release the held dequeues (and any queued swap)
  old.reset();  // tear the retired version down outside the locks
  return ordinal;
}

void FleetServer::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  ++drain_waiters_;
  cv_.notify_all();  // release deterministic partial batches
  idle_cv_.wait(lk, [this] {
    for (const auto& tp : tenants_)
      if (tp->queued > 0 || tp->inflight > 0) return false;
    return true;
  });
  --drain_waiters_;
}

void FleetServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

FleetStats FleetServer::stats() const {
  FleetStats out;
  const auto now = Clock::now();
  const std::int64_t rss = peak_rss_kb();
  struct Snap {
    const Tenant* tenant = nullptr;
    std::shared_ptr<Version> version;
    std::size_t queued = 0;
    std::size_t max_queue_depth = 0;
    std::uint64_t rejected = 0;
  };
  std::vector<Snap> snaps;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snaps.reserve(tenants_.size());
    for (const auto& tp : tenants_) {
      Snap s;
      s.tenant = tp.get();
      s.version = tp->current;
      s.queued = tp->queued;
      s.max_queue_depth = tp->max_queue_depth;
      s.rejected = tp->rejected;
      snaps.push_back(std::move(s));
    }
  }
  ServeStats& agg = out.aggregate;
  LatencyHistogram agg_latency;
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    for (const Snap& s : snaps) {
      const Tenant& t = *s.tenant;
      TenantStats ts;
      ts.name = t.cfg.name;
      ts.version = s.version->ordinal;
      ts.priority = t.cfg.priority;
      ts.weight = t.cfg.weight;
      ts.queued = s.queued;
      if (s.version->deployment) {
        const artifact::Deployment& dep = *s.version->deployment;
        ts.artifact_path = dep.info.path;
        ts.artifact_digest = dep.info.content_digest;
        ts.stats.load_map_ms = dep.load_phases.map_ms;
        ts.stats.load_validate_ms = dep.load_phases.validate_ms;
        ts.stats.load_stream_ms = dep.load_phases.stream_ms;
      }
      ServeStats& st = ts.stats;
      st.requests = t.completed;
      st.batches = t.batches_done;
      st.rejected = s.rejected;
      st.max_queue_depth = s.max_queue_depth;
      st.batch_hist = t.batch_hist;
      st.p50_us = t.latency.percentile(50.0);
      st.p95_us = t.latency.percentile(95.0);
      st.p99_us = t.latency.percentile(99.0);
      st.mean_us = t.latency.mean_us();
      st.max_us = t.latency.max_us();
      st.wall_s = std::chrono::duration<double>(now - t.t_start).count();
      st.qps = st.wall_s > 0.0
                   ? static_cast<double>(st.requests) / st.wall_s
                   : 0.0;
      st.mean_batch =
          st.batches ? static_cast<double>(st.requests) / st.batches : 0.0;
      // Exact through swaps: the active version's live delta plus the
      // accumulated deltas of every retired version. A swap that lands
      // after this snapshot cannot double-count — a version is only
      // retired once its traffic stopped, so its delta is frozen.
      msim::MsimStats delta = t.retired;
      accumulate_delta(delta, sims_total(*s.version->analog),
                       s.version->baseline);
      st.adc_conversions = delta.adc_conversions;
      st.adc_clip_events = delta.adc_clip_events;
      st.dac_cycles = delta.dac_cycles;
      st.peak_rss_kb = rss;

      agg.requests += st.requests;
      agg.batches += st.batches;
      agg.rejected += st.rejected;
      agg.max_queue_depth = std::max(agg.max_queue_depth, st.max_queue_depth);
      agg.adc_conversions += st.adc_conversions;
      agg.adc_clip_events += st.adc_clip_events;
      agg.dac_cycles += st.dac_cycles;
      if (agg.batch_hist.size() < st.batch_hist.size())
        agg.batch_hist.resize(st.batch_hist.size(), 0);
      for (std::size_t b = 0; b < st.batch_hist.size(); ++b)
        agg.batch_hist[b] += st.batch_hist[b];
      agg_latency.merge(t.latency);
      out.tenants.push_back(std::move(ts));
    }
  }
  agg.p50_us = agg_latency.percentile(50.0);
  agg.p95_us = agg_latency.percentile(95.0);
  agg.p99_us = agg_latency.percentile(99.0);
  agg.mean_us = agg_latency.mean_us();
  agg.max_us = agg_latency.max_us();
  agg.wall_s = std::chrono::duration<double>(now - t_start_).count();
  agg.qps =
      agg.wall_s > 0.0 ? static_cast<double>(agg.requests) / agg.wall_s : 0.0;
  agg.mean_batch =
      agg.batches ? static_cast<double>(agg.requests) / agg.batches : 0.0;
  agg.peak_rss_kb = rss;
  return out;
}

// ---------------------------------------------------------------------------
// FleetStats

std::string FleetStats::to_table() const {
  char line[200];
  std::string out;
  std::snprintf(line, sizeof(line),
                "%-12s %4s %4s %6s %10s %9s %8s %9s %12s\n", "tenant", "ver",
                "prio", "weight", "requests", "rejected", "qps", "p99(us)",
                "adc-conv");
  out += line;
  for (const TenantStats& t : tenants) {
    std::snprintf(line, sizeof(line),
                  "%-12s %4llu %4d %6.2f %10llu %9llu %8.1f %9.0f %12lld\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.version),
                  t.priority, t.weight,
                  static_cast<unsigned long long>(t.stats.requests),
                  static_cast<unsigned long long>(t.stats.rejected),
                  t.stats.qps, t.stats.p99_us,
                  static_cast<long long>(t.stats.adc_conversions));
    out += line;
  }
  out += "---- aggregate ----\n";
  out += aggregate.to_table();
  return out;
}

std::string FleetStats::to_json() const {
  std::ostringstream out;
  out << "{\"aggregate\": " << aggregate.to_json() << ", \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantStats& t = tenants[i];
    out << (i ? ", " : "") << "{\"name\": \"" << json_escape(t.name)
        << "\", \"version\": " << t.version
        << ", \"priority\": " << t.priority << ", \"weight\": " << t.weight
        << ", \"queued\": " << t.queued << ", \"artifact_path\": \""
        << json_escape(t.artifact_path) << "\", \"artifact_digest\": \""
        << std::hex
        << t.artifact_digest << std::dec << "\", \"stats\": "
        << t.stats.to_json() << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace tinyadc::serve
