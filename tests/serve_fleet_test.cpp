// Multi-tenant fleet serving: weighted-fair/strict-priority admission
// properties, per-tenant determinism across worker counts and co-tenant
// load, shape-bucketed batching, hot-swap under traffic (zero drops, no
// torn batches, ADC baselines re-captured), per-tenant queue bounds, and
// a concurrent submit/swap/stats soak (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "artifact/artifact.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "serve/loadgen.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::serve {
namespace {

/// One deployable model version: the in-process network doubles as the
/// bit-identity oracle for the artifact the fleet tenants load.
struct Bundle {
  std::unique_ptr<nn::Model> model;
  xbar::MappedNetwork net;
  std::unique_ptr<msim::AnalogNetwork> analog;
  artifact::ArtifactMeta meta;
};

/// Two tiny untrained resnet18 versions (distinct init seeds, so their
/// outputs differ) saved as artifacts, plus 8×8 and 10×10 synthetic data
/// (GlobalAvgPool makes mixed spatial sizes forward correctly).
struct Fixture {
  data::DatasetPair data;    ///< 8×8 images (the tenants' main traffic)
  data::DatasetPair data10;  ///< 10×10 images (shape-bucket tests)
  Bundle v1, v2;
  std::string v1_path = "fleet_test_v1.tadc";
  std::string v2_path = "fleet_test_v2.tadc";

  Fixture() {
    data::SyntheticSpec spec;
    spec.num_classes = 4;
    spec.image_size = 8;
    spec.train_per_class = 8;
    spec.test_per_class = 6;
    spec.seed = 91;
    data = data::make_synthetic(spec);

    data::SyntheticSpec spec10;
    spec10.num_classes = 4;
    spec10.image_size = 10;
    spec10.train_per_class = 2;
    spec10.test_per_class = 2;
    spec10.seed = 23;
    data10 = data::make_synthetic(spec10);

    init_bundle(v1, 42);
    init_bundle(v2, 7);
    artifact::save_artifact(
        v1_path, artifact::ArtifactInputs{v1.meta, *v1.model, v1.net,
                                          *v1.analog, {}, {}});
    artifact::save_artifact(
        v2_path, artifact::ArtifactInputs{v2.meta, *v2.model, v2.net,
                                          *v2.analog, {}, {}});
  }

  ~Fixture() {
    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());
  }

  /// Builds a bundle in place (the analog network references the mapped
  /// network by address, so Bundle must never move after this).
  void init_bundle(Bundle& b, std::uint64_t seed) {
    nn::ModelConfig mc;
    mc.num_classes = 4;
    mc.image_size = 8;
    mc.width_mult = 0.0625F;
    mc.seed = seed;
    b.model = nn::build_model("resnet18", mc);
    b.meta.arch = "resnet18";
    b.meta.model_name = b.model->name();
    b.meta.model_config = mc;
    xbar::MappingConfig cfg;
    cfg.dims = {16, 16};
    b.net = xbar::map_model(*b.model, cfg);
    b.analog = std::make_unique<msim::AnalogNetwork>(*b.model, b.net,
                                                     msim::MsimConfig{});
    b.analog->calibrate(data.train, 8);
  }
};

/// The fixture is expensive (two model builds + two artifact saves), so it
/// is shared; bundles are read-only apart from commutative sim counters.
Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Copies test example `i` of `ds` into a standalone (C, H, W) tensor.
Tensor extract_image(const data::Dataset& ds, std::int64_t i) {
  const std::int64_t chw = ds.images.numel() / ds.images.dim(0);
  Tensor img({ds.images.dim(1), ds.images.dim(2), ds.images.dim(3)});
  std::memcpy(img.data(), ds.images.data() + i * chw,
              static_cast<std::size_t>(chw) * sizeof(float));
  return img;
}

/// Examples [start, start + n) of `ds` as one (n, C, H, W) batch.
Tensor make_batch(const data::Dataset& ds, std::int64_t start,
                  std::int64_t n) {
  const std::int64_t chw = ds.images.numel() / ds.images.dim(0);
  Tensor b({n, ds.images.dim(1), ds.images.dim(2), ds.images.dim(3)});
  std::memcpy(b.data(), ds.images.data() + start * chw,
              static_cast<std::size_t>(n * chw) * sizeof(float));
  return b;
}

/// Sequential single-image oracle through a bundle's in-process network
/// (bit-identical to the artifact the fleet serves the same version from).
std::vector<float> oracle(Bundle& b, const data::Dataset& ds,
                          std::int64_t i) {
  const Tensor logits = b.analog->forward(make_batch(ds, i, 1));
  return std::vector<float>(logits.data(), logits.data() + logits.numel());
}

std::uint64_t digest_results(const std::vector<InferenceResult>& results) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& r : results) {
    h = fnv1a(r.logits.data(), r.logits.size() * sizeof(float), h);
    h = fnv1a(&r.label, sizeof(r.label), h);
  }
  return h;
}

std::vector<InferenceResult> collect(
    std::vector<std::future<InferenceResult>>& futures) {
  std::vector<InferenceResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

/// Snapshot slice for tenant `name` (copied: outlives the FleetStats).
TenantStats tenant_stats(const FleetStats& fs, const std::string& name) {
  for (const TenantStats& t : fs.tenants)
    if (t.name == name) return t;
  ADD_FAILURE() << "no tenant '" << name << "' in snapshot";
  return {};
}

/// Sum of the per-layer counter snapshots of a compiled network.
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

// ---------------------------------------------------------------------------
// WeightedFairPicker properties (driven directly, no serving involved)

TEST(FleetPicker, FullBacklogServiceIsProportionalToWeights) {
  WeightedFairPicker p;
  p.add(0, 3.0);
  p.add(0, 1.0);
  p.add(0, 2.0);
  const std::vector<char> ready = {1, 1, 1};
  int served[3] = {0, 0, 0};
  for (int round = 0; round < 600; ++round) {
    const int idx = p.pick(ready);
    ASSERT_GE(idx, 0);
    p.account(idx, 1.0);
    ++served[idx];
  }
  // Start-time fair queueing with unit costs: 3:1:2 shares, near-exact.
  EXPECT_NEAR(served[0], 300, 6);
  EXPECT_NEAR(served[1], 100, 6);
  EXPECT_NEAR(served[2], 200, 6);
}

TEST(FleetPicker, WeightedShareHoldsUnderRandomizedCosts) {
  WeightedFairPicker p;
  p.add(0, 2.0);
  p.add(0, 1.0);
  const std::vector<char> ready = {1, 1};
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> cost(1, 4);
  double service[2] = {0.0, 0.0};
  for (int round = 0; round < 2000; ++round) {
    const int idx = p.pick(ready);
    ASSERT_GE(idx, 0);
    const double c = static_cast<double>(cost(rng));
    p.account(idx, c);
    service[idx] += c;
  }
  // Long-run service (in cost units) proportional to weights, 10 %
  // tolerance: randomized batch costs shift individual rounds but not
  // the virtual-time shares.
  const double ratio = service[0] / service[1];
  EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(FleetPicker, RandomizedArrivalsNeverStarveAReadyFlow) {
  WeightedFairPicker p;
  p.add(0, 1.0);
  p.add(0, 2.0);
  p.add(0, 4.0);
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> coin(0, 9);
  std::uniform_int_distribution<int> cost(1, 3);
  int unserved_streak[3] = {0, 0, 0};
  for (int round = 0; round < 1000; ++round) {
    std::vector<char> ready(3, 0);
    bool any = false;
    for (std::size_t i = 0; i < 3; ++i) {
      ready[i] = coin(rng) < 6 ? 1 : 0;
      any = any || ready[i] != 0;
    }
    const int idx = p.pick(ready);
    if (!any) {
      EXPECT_EQ(idx, -1);
      continue;
    }
    ASSERT_GE(idx, 0);
    ASSERT_NE(ready[static_cast<std::size_t>(idx)], 0)
        << "picked a flow that was not ready";
    p.account(idx, static_cast<double>(cost(rng)));
    for (int i = 0; i < 3; ++i) {
      if (ready[static_cast<std::size_t>(i)] == 0 || i == idx)
        unserved_streak[i] = 0;
      else
        ++unserved_streak[i];
      // SFQ delay bound: a backlogged flow is served within roughly
      // total_weight / own_weight rounds; 25 is a generous ceiling for
      // weights 1:2:4 with costs up to 3×.
      EXPECT_LT(unserved_streak[i], 25) << "flow " << i << " starved";
    }
  }
}

TEST(FleetPicker, StrictPriorityBetweenClasses) {
  WeightedFairPicker p;
  p.add(1, 100.0);  // low-priority, huge weight: weight must not matter
  p.add(0, 0.5);
  p.add(0, 1.0);
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> coin(0, 1);
  int low_served = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<char> ready = {1, static_cast<char>(coin(rng)),
                               static_cast<char>(coin(rng))};
    const int idx = p.pick(ready);
    ASSERT_GE(idx, 0);
    if (ready[1] != 0 || ready[2] != 0)
      EXPECT_NE(idx, 0) << "priority-1 flow beat a ready priority-0 flow";
    else
      EXPECT_EQ(idx, 0);  // high-priority idle: low priority is not starved
    if (idx == 0) ++low_served;
    p.account(idx, 1.0);
  }
  EXPECT_GT(low_served, 0);
  EXPECT_EQ(p.pick({0, 0, 0}), -1);
}

// ---------------------------------------------------------------------------
// Determinism matrix

TEST(Fleet, DeterministicAcrossWorkerCountsAndCoTenantLoad) {
  Fixture& f = fixture();
  const std::int64_t n = f.data.test.size();
  struct TenantOut {
    std::uint64_t digest = 0;
    TenantStats stats;
  };
  std::map<std::string, TenantOut> outs[2];
  const int worker_counts[2] = {1, 4};

  for (int run = 0; run < 2; ++run) {
    FleetConfig fc;
    fc.workers = worker_counts[run];
    FleetServer fleet(fc);

    TenantConfig a;
    a.name = "a";
    a.max_batch = 4;
    a.deterministic = true;
    const int ida = fleet.add_tenant(a, f.v1_path);

    TenantConfig b;
    b.name = "b";
    b.max_batch = 8;
    b.deterministic = true;
    const int idb = fleet.add_tenant(b, f.v2_path, /*mmap=*/true);

    TenantConfig pl;
    pl.name = "p";
    pl.max_batch = 4;
    pl.deterministic = true;
    const int idp = fleet.add_tenant(pl, f.v1_path);

    // "a" and "p" get the *same* 12-image stream: two tenants over one
    // version must report identical outputs and counter deltas.
    std::vector<std::future<InferenceResult>> fa, fb, fp;
    for (std::int64_t i = 0; i < 20; ++i) {
      if (i < 12) fa.push_back(fleet.submit(ida, extract_image(f.data.test, i)));
      fb.push_back(fleet.submit(idb, extract_image(f.data.test, (i * 5 + 3) % n)));
      if (i < 12) fp.push_back(fleet.submit(idp, extract_image(f.data.test, i)));
    }
    fleet.wait_idle();

    const FleetStats fs = fleet.stats();
    const auto ra = collect(fa);
    const auto rb = collect(fb);
    const auto rp = collect(fp);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].seq, i);
      EXPECT_EQ(ra[i].version, 1U);
    }
    outs[run]["a"] = {digest_results(ra), tenant_stats(fs, "a")};
    outs[run]["b"] = {digest_results(rb), tenant_stats(fs, "b")};
    outs[run]["p"] = {digest_results(rp), tenant_stats(fs, "p")};

    // Pinned batch composition: 3×4 for "a"/"p", 2×8 + drained 4 for "b".
    EXPECT_EQ(outs[run]["a"].stats.stats.batch_hist[4], 3U);
    EXPECT_EQ(outs[run]["b"].stats.stats.batch_hist[8], 2U);
    EXPECT_EQ(outs[run]["b"].stats.stats.batch_hist[4], 1U);
    EXPECT_EQ(outs[run]["p"].stats.stats.batch_hist[4], 3U);

    // Same stream, same version ⇒ same ADC work, whichever tenant.
    EXPECT_EQ(outs[run]["a"].stats.stats.adc_conversions,
              outs[run]["p"].stats.stats.adc_conversions);
    EXPECT_EQ(outs[run]["a"].stats.stats.dac_cycles,
              outs[run]["p"].stats.stats.dac_cycles);
    EXPECT_EQ(outs[run]["a"].digest, outs[run]["p"].digest);
  }

  for (const char* name : {"a", "b", "p"}) {
    SCOPED_TRACE(name);
    const TenantOut& w1 = outs[0][name];
    const TenantOut& w4 = outs[1][name];
    EXPECT_EQ(w1.digest, w4.digest);
    EXPECT_EQ(w1.stats.stats.requests, w4.stats.stats.requests);
    EXPECT_EQ(w1.stats.stats.adc_conversions, w4.stats.stats.adc_conversions);
    EXPECT_EQ(w1.stats.stats.adc_clip_events, w4.stats.stats.adc_clip_events);
    EXPECT_EQ(w1.stats.stats.dac_cycles, w4.stats.stats.dac_cycles);
    EXPECT_EQ(w1.stats.stats.batch_hist, w4.stats.stats.batch_hist);
  }

  // Tenant isolation: "a" served alone produces the same digest and the
  // same counter delta as "a" under full co-tenant load.
  FleetConfig fc;
  fc.workers = 2;
  FleetServer solo(fc);
  TenantConfig a;
  a.name = "a";
  a.max_batch = 4;
  a.deterministic = true;
  const int ida = solo.add_tenant(a, f.v1_path);
  std::vector<std::future<InferenceResult>> fa;
  for (std::int64_t i = 0; i < 12; ++i)
    fa.push_back(solo.submit(ida, extract_image(f.data.test, i)));
  solo.wait_idle();
  const auto ra = collect(fa);
  const TenantStats ts = tenant_stats(solo.stats(), "a");
  EXPECT_EQ(digest_results(ra), outs[0]["a"].digest);
  EXPECT_EQ(ts.stats.adc_conversions, outs[0]["a"].stats.stats.adc_conversions);
  EXPECT_EQ(ts.stats.dac_cycles, outs[0]["a"].stats.stats.dac_cycles);
}

// ---------------------------------------------------------------------------
// Shape-bucketed batching

TEST(Fleet, ShapeBucketedBatchingServesMixedSizes) {
  Fixture& f = fixture();
  FleetConfig fc;
  fc.workers = 2;
  FleetServer fleet(fc);
  TenantConfig tc;
  tc.name = "mix";
  tc.max_batch = 4;
  tc.deterministic = true;
  const int id = fleet.add_tenant(tc, f.v1_path);

  struct Tagged {
    const data::Dataset* ds = nullptr;
    std::int64_t index = 0;
    std::future<InferenceResult> fut;
  };
  std::vector<Tagged> tagged;
  for (std::int64_t i = 0; i < 8; ++i) {  // interleave 8×8 and 10×10
    tagged.push_back({&f.data.test, i,
                      fleet.submit(id, extract_image(f.data.test, i))});
    tagged.push_back({&f.data10.test, i,
                      fleet.submit(id, extract_image(f.data10.test, i))});
  }
  fleet.wait_idle();

  // Each shape formed two full batches of 4 — mixed-size traffic batches
  // per bucket instead of degenerating to singletons, and a mixed batch
  // would corrupt the assembled tensor (caught by the oracle check).
  for (Tagged& t : tagged) {
    const InferenceResult r = t.fut.get();
    EXPECT_EQ(r.batch_size, 4U);
    const std::vector<float> want = oracle(f.v1, *t.ds, t.index);
    ASSERT_EQ(r.logits.size(), want.size());
    EXPECT_EQ(std::memcmp(r.logits.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "index " << t.index;
  }
  const TenantStats ts = tenant_stats(fleet.stats(), "mix");
  EXPECT_EQ(ts.stats.requests, 16U);
  EXPECT_EQ(ts.stats.batches, 4U);
  ASSERT_LT(4U, ts.stats.batch_hist.size());
  EXPECT_EQ(ts.stats.batch_hist[4], 4U);
}

// ---------------------------------------------------------------------------
// Hot-swap

TEST(Fleet, HotSwapUnderTrafficNoDropsNoTornBatches) {
  Fixture& f = fixture();
  const std::int64_t n = f.data.test.size();
  std::vector<std::vector<float>> want_v1, want_v2;
  for (std::int64_t i = 0; i < n; ++i) {
    want_v1.push_back(oracle(f.v1, f.data.test, i));
    want_v2.push_back(oracle(f.v2, f.data.test, i));
  }

  FleetConfig fc;
  fc.workers = 2;
  FleetServer fleet(fc);
  TenantConfig tc;
  tc.name = "hot";
  tc.max_batch = 4;
  tc.max_wait_us = 200;
  const int id = fleet.add_tenant(tc, f.v1_path);
  const std::int64_t comp0 = msim::AnalogLayerSim::plan_compilations();
  const std::int64_t cal0 = msim::AnalogNetwork::calibration_runs();

  struct Tagged {
    std::int64_t index = 0;
    std::future<InferenceResult> fut;
  };
  std::vector<Tagged> tagged;
  // Phase 1: drained before the swap — guaranteed version-1 results.
  for (std::int64_t i = 0; i < 16; ++i)
    tagged.push_back({i % n, fleet.submit(id, extract_image(f.data.test, i % n))});
  fleet.wait_idle();

  // Phase 2: swap while a submitter keeps traffic flowing.
  std::mutex mid_mu;
  std::vector<Tagged> mid;
  std::atomic<bool> swapping{true};
  std::thread submitter([&] {
    std::int64_t i = 0;
    while (swapping.load() && i < 400) {
      Tagged t{i % n, fleet.submit(id, extract_image(f.data.test, i % n))};
      {
        std::lock_guard<std::mutex> lk(mid_mu);
        mid.push_back(std::move(t));
      }
      ++i;
      if (i % 8 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(fleet.swap_tenant("hot", f.v2_path), 2U);
  swapping.store(false);
  submitter.join();

  // Phase 3: submitted after the swap returned — guaranteed version 2.
  for (std::int64_t i = 0; i < 16; ++i)
    tagged.push_back({i % n, fleet.submit(id, extract_image(f.data.test, i % n))});
  fleet.wait_idle();
  for (Tagged& t : mid) tagged.push_back(std::move(t));

  // The swap loads an artifact: no plan compilation, no calibration.
  EXPECT_EQ(msim::AnalogLayerSim::plan_compilations(), comp0);
  EXPECT_EQ(msim::AnalogNetwork::calibration_runs(), cal0);

  // Zero drops; every response is attributable to exactly one version,
  // batches are never torn across the flip, and each response is
  // byte-identical to the sequential oracle of the version that served it.
  std::map<std::uint64_t, std::uint64_t> batch_version;
  bool saw_v1 = false;
  bool saw_v2 = false;
  for (Tagged& t : tagged) {
    InferenceResult r;
    ASSERT_NO_THROW(r = t.fut.get());
    ASSERT_TRUE(r.version == 1 || r.version == 2) << r.version;
    (r.version == 1 ? saw_v1 : saw_v2) = true;
    const auto it = batch_version.emplace(r.batch_seq, r.version);
    if (!it.second) {
      EXPECT_EQ(it.first->second, r.version)
          << "batch " << r.batch_seq << " torn across versions";
    }
    const auto& want =
        r.version == 1 ? want_v1[static_cast<std::size_t>(t.index)]
                       : want_v2[static_cast<std::size_t>(t.index)];
    ASSERT_EQ(r.logits.size(), want.size());
    EXPECT_EQ(std::memcmp(r.logits.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "index " << t.index << " version " << r.version;
  }
  EXPECT_TRUE(saw_v1);
  EXPECT_TRUE(saw_v2);
  // The version a batch ran on never goes backwards in dispatch order.
  std::uint64_t prev = 1;
  for (const auto& bv : batch_version) {
    EXPECT_GE(bv.second, prev);
    prev = bv.second;
  }
  const TenantStats ts = tenant_stats(fleet.stats(), "hot");
  EXPECT_EQ(ts.stats.requests, tagged.size());
  EXPECT_EQ(ts.stats.rejected, 0U);
  EXPECT_EQ(ts.version, 2U);
  EXPECT_EQ(fleet.tenant_version("hot"), 2U);
}

TEST(Fleet, HotSwapRecapturesAdcBaseline) {
  Fixture& f = fixture();
  FleetConfig fc;
  fc.workers = 1;
  FleetServer fleet(fc);
  TenantConfig tc;
  tc.name = "t";
  tc.max_batch = 4;
  tc.deterministic = true;
  const int id = fleet.add_tenant(tc, f.v1_path);

  std::vector<std::future<InferenceResult>> futs;
  for (std::int64_t i = 0; i < 8; ++i)
    futs.push_back(fleet.submit(id, extract_image(f.data.test, i)));
  fleet.wait_idle();
  for (auto& fu : futs) (void)fu.get();
  const ServeStats d1 = tenant_stats(fleet.stats(), "t").stats;
  EXPECT_GT(d1.adc_conversions, 0);
  EXPECT_GT(d1.dac_cycles, 0);

  // An idle swap must not move the delta: the old version's counters
  // retire exactly, the new baseline absorbs the fresh load.
  EXPECT_EQ(fleet.swap_tenant("t", f.v2_path), 2U);
  const ServeStats d1b = tenant_stats(fleet.stats(), "t").stats;
  EXPECT_EQ(d1b.adc_conversions, d1.adc_conversions);
  EXPECT_EQ(d1b.adc_clip_events, d1.adc_clip_events);
  EXPECT_EQ(d1b.dac_cycles, d1.dac_cycles);

  futs.clear();
  for (std::int64_t i = 0; i < 8; ++i)
    futs.push_back(fleet.submit(id, extract_image(f.data.test, i)));
  fleet.wait_idle();
  for (auto& fu : futs) EXPECT_EQ(fu.get().version, 2U);
  const ServeStats d2 = tenant_stats(fleet.stats(), "t").stats;

  // Post-swap growth must equal a reference run of the same traffic on
  // a fresh load of v2 — i.e. the delta is v1-served + v2-served with
  // nothing double-counted.
  artifact::Deployment dep = artifact::load_artifact(f.v2_path);
  const msim::MsimStats before = sims_total(*dep.analog);
  msim::AnalogSession session(*dep.analog);
  (void)session.forward(make_batch(f.data.test, 0, 4));
  (void)session.forward(make_batch(f.data.test, 4, 4));
  const msim::MsimStats after = sims_total(*dep.analog);
  EXPECT_EQ(d2.adc_conversions - d1.adc_conversions,
            after.adc_conversions - before.adc_conversions);
  EXPECT_EQ(d2.adc_clip_events - d1.adc_clip_events,
            after.adc_clip_events - before.adc_clip_events);
  EXPECT_EQ(d2.dac_cycles - d1.dac_cycles,
            after.dac_cycles - before.dac_cycles);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Fleet, MaxQueueRejectionIsPerTenant) {
  Fixture& f = fixture();
  FleetConfig fc;
  fc.workers = 1;
  FleetServer fleet(fc);
  // Deterministic with max_batch > max_queue: nothing dequeues until the
  // drain, so the queue bound is hit by construction.
  TenantConfig full;
  full.name = "full";
  full.max_batch = 8;
  full.max_queue = 3;
  full.deterministic = true;
  const int id_full = fleet.add_tenant(full, f.v1_path);
  TenantConfig co;
  co.name = "co";
  co.max_batch = 4;
  co.deterministic = true;
  const int id_co = fleet.add_tenant(co, f.v2_path);

  std::vector<std::future<InferenceResult>> f_full, f_co;
  for (std::int64_t i = 0; i < 6; ++i)
    f_full.push_back(fleet.submit(id_full, extract_image(f.data.test, i)));
  for (std::int64_t i = 0; i < 8; ++i)
    f_co.push_back(fleet.submit(id_co, extract_image(f.data.test, i)));
  // Rejections are immediate and carry an exception naming the tenant.
  for (int i = 3; i < 6; ++i) {
    try {
      (void)f_full[static_cast<std::size_t>(i)].get();
      FAIL() << "submit " << i << " was not rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("full"), std::string::npos);
    }
  }
  fleet.wait_idle();  // flushes the accepted partial batch of 3
  for (int i = 0; i < 3; ++i)
    EXPECT_NO_THROW((void)f_full[static_cast<std::size_t>(i)].get());
  for (auto& fu : f_co) EXPECT_NO_THROW((void)fu.get());

  // One tenant's flood never consumes the co-tenant's budget.
  const FleetStats fs = fleet.stats();
  const TenantStats ts_full = tenant_stats(fs, "full");
  const TenantStats ts_co = tenant_stats(fs, "co");
  EXPECT_EQ(ts_full.stats.rejected, 3U);
  EXPECT_EQ(ts_full.stats.requests, 3U);
  EXPECT_EQ(ts_full.stats.batch_hist[3], 1U);
  EXPECT_EQ(ts_co.stats.rejected, 0U);
  EXPECT_EQ(ts_co.stats.requests, 8U);
  EXPECT_EQ(fs.aggregate.rejected, 3U);
}

TEST(Fleet, SaturatedLowPriorityCannotStarveHighPriority) {
  Fixture& f = fixture();
  FleetConfig fc;
  fc.workers = 1;
  FleetServer fleet(fc);
  TenantConfig bulk;
  bulk.name = "bulk";
  bulk.priority = 1;
  bulk.max_batch = 4;
  bulk.max_wait_us = 0;
  const int id_bulk = fleet.add_tenant(bulk, f.v1_path);
  TenantConfig lat;
  lat.name = "latency";
  lat.priority = 0;
  lat.max_batch = 1;
  lat.max_wait_us = 0;
  const int id_lat = fleet.add_tenant(lat, f.v2_path);

  // Saturate the low-priority tenant, then run a closed loop of
  // high-priority requests. Strict priority means each of them is served
  // at the very next dequeue — long before the bulk backlog drains.
  constexpr std::int64_t kBulk = 400;
  std::vector<std::future<InferenceResult>> f_bulk;
  for (std::int64_t i = 0; i < kBulk; ++i)
    f_bulk.push_back(
        fleet.submit(id_bulk, extract_image(f.data.test, i % f.data.test.size())));
  for (std::int64_t i = 0; i < 10; ++i) {
    auto fut = fleet.submit(id_lat, extract_image(f.data.test, i));
    EXPECT_NO_THROW((void)fut.get());
  }
  // The whole high-priority loop finished while low-priority work was
  // still backlogged — a FIFO (or starving) scheduler would have made it
  // wait for all 400.
  const TenantStats ts_bulk = tenant_stats(fleet.stats(), "bulk");
  EXPECT_GT(ts_bulk.queued, 0U);
  EXPECT_LT(ts_bulk.stats.requests, static_cast<std::uint64_t>(kBulk));
  fleet.wait_idle();
  for (auto& fu : f_bulk) EXPECT_NO_THROW((void)fu.get());
  EXPECT_EQ(tenant_stats(fleet.stats(), "bulk").stats.requests,
            static_cast<std::uint64_t>(kBulk));
}

// ---------------------------------------------------------------------------
// Loadgen + reporting schema

TEST(Fleet, FleetLoadgenAndJsonSchema) {
  Fixture& f = fixture();
  FleetConfig fc;
  fc.workers = 2;
  FleetServer fleet(fc);
  TenantConfig a;
  a.name = "a";
  a.max_batch = 4;
  a.deterministic = true;
  fleet.add_tenant(a, f.v1_path);
  TenantConfig b;
  b.name = "b";
  b.max_batch = 4;
  b.deterministic = true;
  fleet.add_tenant(b, f.v2_path, /*mmap=*/true);
  TenantConfig c;
  c.name = "c";
  c.max_batch = 4;
  fleet.add_tenant(c, f.v1_path, /*mmap=*/true);
  EXPECT_EQ(fleet.tenant_count(), 3U);
  EXPECT_EQ(fleet.tenant_version("a"), 1U);

  // Artifact identity: nonzero digests, equal across load paths for the
  // same file, distinct across files.
  {
    const FleetStats fs = fleet.stats();
    const TenantStats ta = tenant_stats(fs, "a");
    const TenantStats tb = tenant_stats(fs, "b");
    const TenantStats tc = tenant_stats(fs, "c");
    EXPECT_EQ(ta.artifact_path, f.v1_path);
    EXPECT_NE(ta.artifact_digest, 0U);
    EXPECT_EQ(ta.artifact_digest, tc.artifact_digest);
    EXPECT_NE(ta.artifact_digest, tb.artifact_digest);
  }

  std::vector<TenantLoadSpec> specs(2);
  specs[0].name = "a";
  specs[0].dataset = &f.data.test;
  specs[0].requests = 24;
  specs[1].name = "b";
  specs[1].dataset = &f.data.test;
  specs[1].requests = 16;
  specs[1].qps = 2000.0;
  specs[1].burst_factor = 2.0;
  specs[1].burst_period_s = 0.004;
  const FleetLoadgenReport report = run_fleet_loadgen(fleet, specs);

  ASSERT_EQ(report.tenants.size(), 2U);
  for (const TenantLoadReport& t : report.tenants) {
    EXPECT_EQ(t.completed, t.submitted);
    EXPECT_EQ(t.rejected, 0);
    EXPECT_GT(t.achieved_qps, 0.0);
    EXPECT_GE(t.accuracy, 0.0);
    EXPECT_LE(t.accuracy, 1.0);
    EXPECT_NE(t.output_digest, 0U);
  }
  EXPECT_EQ(report.tenants[0].submitted, 24);
  EXPECT_EQ(report.tenants[1].submitted, 16);
  EXPECT_EQ(report.fleet.aggregate.requests, 40U);

  const std::string json = report.to_json();
  for (const char* key :
       {"\"aggregate\"", "\"tenants\"", "\"loadgen\"", "\"artifact_digest\"",
        "\"output_digest\"", "\"adc_conversions\"", "\"name\": \"a\"",
        "\"batch_hist\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  const std::string table = report.fleet.to_table();
  EXPECT_NE(table.find("tenant"), std::string::npos);
  EXPECT_NE(table.find("aggregate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Soak: concurrent submits + hot-swaps + stats polling (TSan in CI)

TEST(Fleet, SoakConcurrentSubmitsSwapsAndStats) {
  Fixture& f = fixture();
  FleetConfig fc;
  fc.workers = 4;
  FleetServer fleet(fc);
  TenantConfig x;
  x.name = "x";
  x.max_batch = 4;
  x.max_wait_us = 100;
  const int idx = fleet.add_tenant(x, f.v1_path);
  TenantConfig y;
  y.name = "y";
  y.max_batch = 4;
  y.max_wait_us = 100;
  const int idy = fleet.add_tenant(y, f.v1_path);
  const std::int64_t comp0 = msim::AnalogLayerSim::plan_compilations();
  const std::int64_t cal0 = msim::AnalogNetwork::calibration_runs();

  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load()) {
      const FleetStats fs = fleet.stats();
      ASSERT_EQ(fs.tenants.size(), 2U);
      ASSERT_LE(fs.aggregate.requests, 70U);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int> completed{0};
  auto submit_loop = [&](int tenant, int count, int offset) {
    for (int i = 0; i < count; ++i) {
      auto fut = fleet.submit(
          tenant, extract_image(f.data.test,
                                (offset + i) % f.data.test.size()));
      const InferenceResult r = fut.get();  // closed loop per submitter
      ASSERT_EQ(r.logits.size(), 4U);
      ASSERT_GE(r.version, 1U);
      completed.fetch_add(1);
    }
  };
  std::vector<std::thread> submitters;
  submitters.emplace_back(submit_loop, idx, 25, 0);
  submitters.emplace_back(submit_loop, idx, 25, 7);
  submitters.emplace_back(submit_loop, idy, 20, 3);
  std::thread swapper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(fleet.swap_tenant("x", f.v2_path), 2U);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(fleet.swap_tenant("y", f.v2_path, /*mmap=*/true), 2U);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(fleet.swap_tenant("x", f.v1_path), 3U);
  });
  for (auto& t : submitters) t.join();
  swapper.join();
  polling.store(false);
  poller.join();
  fleet.wait_idle();

  EXPECT_EQ(completed.load(), 70);
  EXPECT_EQ(fleet.tenant_version("x"), 3U);
  EXPECT_EQ(fleet.tenant_version("y"), 2U);
  EXPECT_EQ(msim::AnalogLayerSim::plan_compilations(), comp0);
  EXPECT_EQ(msim::AnalogNetwork::calibration_runs(), cal0);
  const FleetStats fs = fleet.stats();
  EXPECT_EQ(tenant_stats(fs, "x").stats.requests, 50U);
  EXPECT_EQ(tenant_stats(fs, "y").stats.requests, 20U);
  EXPECT_EQ(fs.aggregate.rejected, 0U);
}

}  // namespace
}  // namespace tinyadc::serve
