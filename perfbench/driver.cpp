// TinyADC benchmark driver: one process runs one workload from a seed and
// prints one JSON report line (see README.md in this directory).
//
//   perfbench_driver --workload serve_fleet|prune_admm|sim_sweep --seed N
//                    --seconds S --trace 0|1 --out DIR [--size full|tiny]
//
// The driver only calls the modules' public functions and times those
// calls from outside; it changes nothing in the library. Inputs (data,
// model initialisation, request schedules, fault patterns) derive from the
// seed alone. Correctness gates count as failed operations.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/admm.hpp"
#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "fault/evaluate.hpp"
#include "hw/cost_model.hpp"
#include "msim/analog_network.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "runtime/parallel.hpp"
#include "serve/fleet.hpp"
#include "serve/stats.hpp"
#include "trace.hpp"
#include "xbar/mapping.hpp"

namespace perfbench {
namespace {

using namespace tinyadc;

// ---------------------------------------------------------------------------
// Small utilities

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Highest of p99, p90 and p75 that has at least ten samples beyond it,
/// as {percentile, value}; the maximum ({100, max}) when even p75 has
/// fewer than ten.
std::pair<double, double> tail(const std::vector<double>& v) {
  for (const double p : {99.0, 90.0, 75.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0)
      return {p, percentile(v, p)};
  }
  return {100.0, percentile(v, 100.0)};
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string quote(const std::string& s) {
  return "\"" + serve::json_escape(s) + "\"";
}

msim::MsimStats sims_total(const msim::AnalogNetwork& net) {
  msim::MsimStats t;
  for (const auto& sim : net.sims()) {
    const msim::MsimStats s = sim->stats_snapshot();
    t.adc_conversions += s.adc_conversions;
    t.adc_clip_events += s.adc_clip_events;
    t.dac_cycles += s.dac_cycles;
  }
  return t;
}

msim::MsimStats stats_minus(const msim::MsimStats& a,
                            const msim::MsimStats& b) {
  return {a.adc_conversions - b.adc_conversions,
          a.adc_clip_events - b.adc_clip_events, a.dac_cycles - b.dac_cycles};
}

/// Examples [idx...] of `ds` as one (n, C, H, W) batch.
Tensor gather(const data::Dataset& ds, const std::vector<std::int64_t>& idx) {
  const std::int64_t chw = ds.images.numel() / ds.images.dim(0);
  Tensor b({static_cast<std::int64_t>(idx.size()), ds.images.dim(1),
            ds.images.dim(2), ds.images.dim(3)});
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::memcpy(b.data() + static_cast<std::int64_t>(i) * chw,
                ds.images.data() + idx[i] * chw,
                static_cast<std::size_t>(chw) * sizeof(float));
  return b;
}

// ---------------------------------------------------------------------------
// Report: every metric the benchmark declares, plus gates and details.

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// End-to-end metrics, identical names on every workload (their meaning
/// per workload is in README.md).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"}, {"rate_per_s", "1/s"},     {"p50_ms", "ms"},
    {"job_s", "s"},   {"top1", "ratio"},         {"power_norm", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"serve.submit_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.rejected", "count"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.swap_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"msim.forward_b1_ms", "ms"},
    {"msim.forward_b8_ms", "ms"},
    {"msim.forward_nonideal_ms", "ms"},
    {"msim.compile_ms", "ms"},
    {"msim.calibrate_ms", "ms"},
    {"msim.adc_conv_per_image", "count"},
    {"msim.clips_per_image", "count"},
    {"msim.dac_cycles_per_image", "count"},
    {"msim.plan_compilations", "count"},
    {"msim.calibration_runs", "count"},
    {"artifact.save_ms", "ms"},
    {"artifact.bytes", "B"},
    {"artifact.map_ms", "ms"},
    {"artifact.validate_ms", "ms"},
    {"artifact.stream_ms", "ms"},
    {"nn.train_step_ms", "ms"},
    {"nn.eval_ms", "ms"},
    {"core.admm_prox_ms", "ms"},
    {"core.admm_dual_ms", "ms"},
    {"core.hard_prune_ms", "ms"},
    {"xbar.map_ms", "ms"},
    {"fault.trial_ms", "ms"},
    {"data.gen_ms", "ms"},
    {"runtime.workers", "count"},
    {"self.serve_ms", "ms"},
    {"self.msim_ms", "ms"},
    {"self.artifact_ms", "ms"},
    {"self.nn_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.xbar_ms", "ms"},
    {"self.fault_ms", "ms"},
    {"self.data_ms", "ms"},
    {"self.hw_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

class Report {
 public:
  void e2e(const std::string& name, double v) { e2e_[name] = v; }
  void layer(const std::string& name, double v) { layer_[name] = v; }
  /// Workload-specific detail under the name the issue tracker uses.
  void detail(const std::string& name, double v, const std::string& unit) {
    details_.emplace_back(name, Metric{v, unit});
  }
  double e2e_value(const std::string& name) const {
    const auto it = e2e_.find(name);
    return it == e2e_.end() ? 0.0 : it->second;
  }
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }
  /// One correctness gate: counts as one attempted operation, and as a
  /// failed one when it does not hold.
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_.push_back({name, ok, detail});
    ++attempted;
    if (!ok) ++failed;
    if (!ok) std::fprintf(stderr, "perfbench: gate %s FAILED: %s\n",
                          name.c_str(), detail.c_str());
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  std::string to_json(bool trace) const {
    std::ostringstream o;
    bool gates_ok = true;
    for (const auto& g : gates_) gates_ok = gates_ok && g.ok;
    o << "{\"correct\": " << (gates_ok && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    const auto& names = trace ? kPerLayer : kEndToEnd;
    const auto& values = trace ? layer_ : e2e_;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto it = values.find(names[i].first);
      if (!trace && it == values.end())
        throw std::logic_error("metric " + names[i].first + " not measured");
      const double v = it == values.end() ? 0.0 : it->second;
      o << (i ? ", " : "") << quote(names[i].first) << ": {\"value\": "
        << fmt_double(v) << ", \"unit\": " << quote(names[i].second) << "}";
    }
    o << "}, \"details\": {";
    for (std::size_t i = 0; i < details_.size(); ++i)
      o << (i ? ", " : "") << quote(details_[i].first) << ": {\"value\": "
        << fmt_double(details_[i].second.value)
        << ", \"unit\": " << quote(details_[i].second.unit) << "}";
    o << "}, \"gates\": [";
    for (std::size_t i = 0; i < gates_.size(); ++i)
      o << (i ? ", " : "") << "{\"name\": " << quote(gates_[i].name)
        << ", \"ok\": " << (gates_[i].ok ? "true" : "false")
        << ", \"detail\": " << quote(gates_[i].detail) << "}";
    o << "], \"notes\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i)
      o << (i ? ", " : "") << quote(notes_[i].first) << ": "
        << quote(notes_[i].second);
    o << "}}";
    return o.str();
  }

 private:
  struct Gate {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
  std::vector<std::pair<std::string, Metric>> details_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<Gate> gates_;
};

// ---------------------------------------------------------------------------
// Host fingerprint

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

/// Effective parallelism: nproc copies of a fixed integer loop run
/// concurrently, against one copy alone (median of three tries each).
double effective_cores(int n) {
  const auto spin = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 6'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  const auto timed = [&](int threads) {
    std::vector<double> tries;
    for (int t = 0; t < 3; ++t) {
      const auto t0 = Clock::now();
      std::vector<std::thread> pool;
      for (int i = 0; i < threads; ++i)
        pool.emplace_back([&] { sink += spin(); });
      for (auto& th : pool) th.join();
      tries.push_back(ms_between(t0, Clock::now()));
    }
    return median(tries);
  };
  const double one = timed(1);
  const double all = timed(n);
  return all > 0.0 ? std::min<double>(n, n * one / all) : 1.0;
}

// ---------------------------------------------------------------------------
// Workload sizes

struct Sizes {
  std::int64_t image_size = 8;
  std::int64_t classes = 10;
  std::int64_t train_per_class = 64;
  std::int64_t test_per_class = 32;
  float width = 0.125F;
  core::CrossbarDims dims{32, 32};
  std::size_t batch = 32;
  int pretrain_epochs = 5;
  int admm_epochs = 2;
  int retrain_epochs = 1;
  std::int64_t cp_rate = 4;        ///< prune_admm (ADMM + retraining)
  std::int64_t serve_cp_rate = 2;  ///< serve_fleet (projection only)
  /// Activation-calibration images. With 32, some seeds' ranges came out
  /// too narrow and the analog top-1 fell far below the float one.
  std::int64_t calib_images = 128;
  int setup_reps = 3;   ///< setups per run; setup_s is their median
  /// Thread budget: runtime threads for prune_admm and sim_sweep, fleet
  /// workers for serve_fleet (plus its generator thread). Capped at 2 so
  /// the figures stay steady on a shared host; see README.md.
  int threads = 2;
  // serve_fleet
  /// Serving capacity measured on the reference host (the median
  /// serve.max_rate_rps in README.md); the fixed-rate phase offers half of
  /// it, so it measures forwards and light queueing, not an overload.
  double capacity_rps = 1300.0;
  double latency_limit_ms = 100.0;  ///< p99 limit of the rate ladder
  /// Hot swaps of tenant a, one per fixed-rate segment: the requests that
  /// wait on a swap stay well below 1 %, so they do not set the p99.
  int swaps = 4;
  // sim_sweep
  std::vector<std::int64_t> sweep_rates{2, 4};
  std::int64_t sweep_eval_images = 32;  ///< strided subset of the test split
  int fault_trials = 1;
};

Sizes sizes_for(const std::string& size) {
  Sizes s;
  if (size == "tiny") {
    s.train_per_class = 8;
    s.test_per_class = 4;
    s.width = 0.0625F;
    s.dims = {16, 16};
    s.batch = 16;
    s.pretrain_epochs = 1;
    s.admm_epochs = 1;
    s.retrain_epochs = 1;
    s.calib_images = 8;
    s.setup_reps = 1;
    s.capacity_rps = 1000.0;
    s.latency_limit_ms = 20.0;
    s.swaps = 2;
    s.sweep_rates = {2};
    s.sweep_eval_images = 16;
  } else if (size != "full") {
    throw std::invalid_argument("--size must be full or tiny");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Shared building blocks (each a traced call into one module)

struct Ctx {
  Tracer& tr;
  Report& rep;
  const Sizes& sz;
  std::uint64_t seed;
  std::string out_dir;
  // Per-call durations (ms) of the module calls every workload shares.
  std::vector<double> data_gen_ms = {}, map_ms = {}, compile_ms = {},
                      calibrate_ms = {}, train_step_ms = {}, eval_ms = {},
                      save_ms = {}, load_map_ms = {}, load_validate_ms = {},
                      load_stream_ms = {};
  double artifact_bytes = 0.0;
  int max_runtime_workers = 0;

  void note_workers() {
    max_runtime_workers =
        std::max(max_runtime_workers, runtime::spawned_workers());
  }
};

data::DatasetPair make_data(Ctx& c) {
  Span s(c.tr, "data.gen");
  const auto t0 = Clock::now();
  data::SyntheticSpec spec = data::cifar10_like();
  spec.image_size = c.sz.image_size;
  spec.num_classes = c.sz.classes;
  spec.train_per_class = c.sz.train_per_class;
  spec.test_per_class = c.sz.test_per_class;
  spec.seed = mix_seed(c.seed, 1);
  data::DatasetPair d = data::make_synthetic(spec);
  c.data_gen_ms.push_back(ms_between(t0, Clock::now()));
  return d;
}

nn::ModelConfig model_config(const Ctx& c) {
  nn::ModelConfig mc;
  mc.num_classes = c.sz.classes;
  mc.image_size = c.sz.image_size;
  mc.width_mult = c.sz.width;
  mc.seed = mix_seed(c.seed, 2);
  return mc;
}

xbar::MappingConfig mapping_config(const Ctx& c) {
  xbar::MappingConfig m;
  m.dims = c.sz.dims;
  return m;
}

nn::TrainConfig train_config(const Ctx& c, int epochs, std::uint64_t salt) {
  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = c.sz.batch;
  tc.sgd.lr = 0.05F;
  tc.sgd.total_epochs = std::max(1, epochs);
  tc.seed = mix_seed(c.seed, salt);
  return tc;
}

/// One epoch of Trainer::train_step calls (each a span). Returns samples.
std::int64_t train_epoch(Ctx& c, nn::Trainer& trainer,
                         const data::Dataset& train, Rng& rng, int epoch,
                         std::vector<double>* step_ms) {
  data::BatchIterator it(train, c.sz.batch, &rng);
  data::Batch batch;
  std::int64_t samples = 0;
  while (it.next(batch)) {
    Span s(c.tr, "nn.train_step");
    const auto t0 = Clock::now();
    trainer.train_step(batch, epoch);
    const double ms = ms_between(t0, Clock::now());
    c.train_step_ms.push_back(ms);
    if (step_ms != nullptr) step_ms->push_back(ms);
    samples += static_cast<std::int64_t>(batch.labels.size());
  }
  return samples;
}

double float_eval(Ctx& c, nn::Model& model, const data::Dataset& test) {
  Span s(c.tr, "nn.eval");
  const auto t0 = Clock::now();
  nn::Trainer t(model, train_config(c, 1, 0));
  const double acc = t.evaluate(test);
  c.eval_ms.push_back(ms_between(t0, Clock::now()));
  return acc;
}

/// Projects every conv but the first onto the CP constraint set (the
/// paper's protocol), with no retraining.
void cp_project(Ctx& c, nn::Model& model, std::int64_t rate) {
  Span s(c.tr, "core.cp_project");
  const auto specs = core::uniform_cp_specs(model, rate, c.sz.dims);
  auto views = model.prunable_views();
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!specs[i].active() || specs[i].cp_keep <= 0) continue;
    core::MatrixRef ref{views[i].weight->value.data(), views[i].rows,
                        views[i].cols};
    core::project_column_proportional(ref, c.sz.dims, specs[i].cp_keep);
  }
}

xbar::MappedNetwork map_net(Ctx& c, nn::Model& model,
                            const std::vector<core::StructuralSelection>* sel) {
  Span s(c.tr, "xbar.map");
  const auto t0 = Clock::now();
  xbar::MappedNetwork net =
      sel ? xbar::map_model(model, mapping_config(c), *sel)
          : xbar::map_model(model, mapping_config(c));
  c.map_ms.push_back(ms_between(t0, Clock::now()));
  return net;
}

std::unique_ptr<msim::AnalogNetwork> compile(Ctx& c, nn::Model& model,
                                             const xbar::MappedNetwork& net,
                                             const msim::MsimConfig& cfg) {
  Span s(c.tr, "msim.compile");
  const auto t0 = Clock::now();
  auto an = std::make_unique<msim::AnalogNetwork>(model, net, cfg);
  c.compile_ms.push_back(ms_between(t0, Clock::now()));
  return an;
}

void calibrate(Ctx& c, msim::AnalogNetwork& an, const data::Dataset& train) {
  Span s(c.tr, "msim.calibrate");
  const auto t0 = Clock::now();
  an.calibrate(train, c.sz.calib_images);
  c.calibrate_ms.push_back(ms_between(t0, Clock::now()));
}

void save(Ctx& c, const std::string& path, nn::Model& model,
          const nn::ModelConfig& mc, const xbar::MappedNetwork& net,
          const msim::AnalogNetwork& an,
          std::vector<core::LayerPruneSpec> specs,
          std::vector<core::StructuralSelection> selections) {
  Span s(c.tr, "artifact.save");
  const auto t0 = Clock::now();
  artifact::ArtifactMeta meta;
  meta.arch = "resnet18";
  meta.model_name = model.name();
  meta.model_config = mc;
  artifact::save_artifact(
      path, artifact::ArtifactInputs{meta, model, net, an, std::move(specs),
                                     std::move(selections)});
  c.save_ms.push_back(ms_between(t0, Clock::now()));
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  c.artifact_bytes = static_cast<double>(f.tellg());
}

artifact::Deployment load(Ctx& c, const std::string& path) {
  Span s(c.tr, "artifact.load");
  artifact::Deployment d = artifact::load_artifact_mapped(path, true);
  d.finish_streaming();
  c.load_map_ms.push_back(d.load_phases.map_ms);
  c.load_validate_ms.push_back(d.load_phases.validate_ms);
  c.load_stream_ms.push_back(d.load_phases.stream_ms);
  return d;
}

/// Modelled accelerator power of `net` over the unpruned design of the
/// same architecture (hw::build_accelerator + power_vs).
double power_norm(Ctx& c, const xbar::MappedNetwork& net,
                  const nn::ModelConfig& mc) {
  Span s(c.tr, "hw.power");
  const auto dense_model = nn::resnet18(mc);
  const xbar::MappedNetwork dense =
      xbar::map_model(*dense_model, mapping_config(c));
  const hw::CostConstants k{};
  return hw::build_accelerator(net, k).power_vs(
      hw::build_accelerator(dense, k));
}

/// The paper's exactness property on a deployed network: for every layer,
/// sampled input codes through the Eq. 1-sized ideal sim equal
/// xbar::reference_mvm exactly. Returns the number of mismatching layers.
int exactness_mismatches(Ctx& c, const artifact::Deployment& d,
                         int samples) {
  Span s(c.tr, "msim.exactness");
  Rng rng(mix_seed(c.seed, 77));
  int bad = 0;
  const auto& layers = d.mapping->layers;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const xbar::MappedLayer& layer = layers[li];
    msim::AnalogLayerSim& sim = *d.analog->sims()[li];
    const std::int32_t top = (1 << layer.config.input_bits) - 1;
    bool ok = sim.adc_bits() >= layer.required_adc_bits();
    for (int k = 0; k < samples && ok; ++k) {
      std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows));
      for (auto& v : x)
        v = static_cast<std::int32_t>(rng.uniform_int(
            static_cast<std::uint64_t>(top) + 1));
      ok = sim.mvm(x) == xbar::reference_mvm(layer, x);
    }
    bad += ok ? 0 : 1;
  }
  return bad;
}

void fill_common_layers(Ctx& c) {
  Report& r = c.rep;
  r.layer("data.gen_ms", median(c.data_gen_ms));
  r.layer("xbar.map_ms", median(c.map_ms));
  r.layer("msim.compile_ms", median(c.compile_ms));
  r.layer("msim.calibrate_ms", median(c.calibrate_ms));
  r.layer("nn.train_step_ms", median(c.train_step_ms));
  r.layer("nn.eval_ms", median(c.eval_ms));
  r.layer("artifact.save_ms", median(c.save_ms));
  r.layer("artifact.bytes", c.artifact_bytes);
  r.layer("artifact.map_ms", median(c.load_map_ms));
  r.layer("artifact.validate_ms", median(c.load_validate_ms));
  r.layer("artifact.stream_ms", median(c.load_stream_ms));
  c.note_workers();
  r.layer("runtime.workers", c.max_runtime_workers);
}

/// Runs `setup` sz.setup_reps times; records the median as setup_s and
/// returns the last repetition's state.
template <typename State>
State timed_setup(Ctx& c, const std::function<State()>& setup) {
  std::vector<double> secs;
  std::optional<State> state;
  for (int i = 0; i < c.sz.setup_reps; ++i) {
    state.reset();
    Span s(c.tr, "bench.setup");
    const auto t0 = Clock::now();
    state.emplace(setup());
    secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  c.rep.e2e("setup_s", median(secs));
  return std::move(*state);
}

// ---------------------------------------------------------------------------
// serve_fleet

struct Arrival {
  double t_s = 0.0;
  int tenant = 0;  ///< 0 = a, 1 = b
  std::int64_t index = 0;
};

/// Open-loop schedule at `rps` total for `secs`: tenant a gets half the
/// rate as evenly spaced pairs (two requests due together fill one of its
/// deterministic batches of 2 at once, so none waits for a partner);
/// tenant b the other half as a square wave (3x the low rate during the
/// first half of every 0.2 s period). The burst shape is an assumption of
/// this benchmark, not a measured traffic trace.
std::vector<Arrival> make_schedule(double rps, double secs, std::int64_t n,
                                   std::uint64_t seed) {
  std::vector<Arrival> out;
  Rng rng(seed);
  const double pairs = rps / 2.0 / 2.0;
  for (double t = 0.0; t < secs; t += 1.0 / pairs) {
    out.push_back({t, 0, 0});
    out.push_back({t, 0, 0});
  }
  const double period = 0.2, low = rps / 2.0 / 2.0, high = 3.0 * low;
  for (double t = 0.0; t < secs;) {
    out.push_back({t, 1, 0});
    t += 1.0 / (std::fmod(t, period) < period / 2.0 ? high : low);
  }
  std::stable_sort(out.begin(), out.end(), [](const Arrival& x,
                                              const Arrival& y) {
    return x.t_s < y.t_s;
  });
  for (auto& a : out)
    a.index = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n)));
  return out;
}

struct Sent {
  Arrival arrival;
  Clock::time_point due, submit_start;
  double submit_us = 0.0;
  std::future<serve::InferenceResult> fut;
};

struct Served {
  Arrival arrival;
  bool warm = false;  ///< warm-up request: gated, but not in the latencies
  bool ok = false;
  serve::InferenceResult result;
  double lag_ms = 0.0;      ///< submit start - due
  double latency_ms = 0.0;  ///< completion - due
  double submit_us = 0.0;
  Clock::time_point done;
};

struct PhaseResult {
  std::vector<Served> served;
  std::vector<double> swap_ms;
  Clock::time_point t0, t_end;  ///< schedule start / last due time
};

/// A fleet with tenants a and b, both loaded from the v1 artifact through
/// the mmapped path. Tenant a: priority 0, deterministic batches of 2 (its
/// requests arrive in pairs). Tenant b: priority 1, dynamic batches of up
/// to 8 with a 0.1 ms wait, bounded queue; its batches grow only when
/// requests queue behind busy workers.
struct ServeFleet {
  serve::FleetServer fleet;
  int ida = 0, idb = 0;
  int swaps_done = 0;
  std::vector<Tensor> images;  ///< the test split as (C, H, W) requests

  ServeFleet(const Sizes& sz, const std::string& artifact,
             const data::Dataset& test)
      : fleet(serve::FleetConfig{sz.threads}) {
    serve::TenantConfig ta;
    ta.name = "a";
    ta.priority = 0;
    ta.max_batch = 2;
    ta.deterministic = true;
    serve::TenantConfig tb;
    tb.name = "b";
    tb.priority = 1;
    tb.max_batch = 8;
    // Short next to one forward (1-2 ms at batch 1), so a lone request is
    // not held by the timer.
    tb.max_wait_us = 100;
    tb.max_queue = 256;
    ida = fleet.add_tenant(ta, artifact, true);
    idb = fleet.add_tenant(tb, artifact, true);
    const auto& t = test.images;
    for (std::int64_t i = 0; i < test.size(); ++i)
      images.push_back(
          gather(test, {i}).reshape({t.dim(1), t.dim(2), t.dim(3)}));
  }
};

/// Collects the futures of a drained schedule.
void collect(Ctx& c, std::vector<Sent>& sent, bool warm, PhaseResult& pr,
             std::uint64_t flow0) {
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    Served v;
    v.arrival = s.arrival;
    v.warm = warm;
    v.submit_us = s.submit_us;
    v.lag_ms = ms_between(s.due, s.submit_start);
    try {
      v.result = s.fut.get();
      v.ok = true;
      v.done = s.submit_start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::micro>(
                                        v.result.latency_us));
      v.latency_ms = ms_between(s.due, v.done);
      c.tr.record("serve.request", s.due, v.done, flow0 + i);
    } catch (const std::exception&) {
      v.ok = false;
    }
    pr.served.push_back(std::move(v));
  }
}

/// Warm-up: a few requests per tenant so every worker session has run once
/// before anything is timed. They are part of the gated stream.
void warm_up(Ctx& c, ServeFleet& f, PhaseResult& pr) {
  Span sp(c.tr, "serve.warmup");
  std::vector<Sent> sent(16);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    const std::size_t idx = i % f.images.size();
    s.arrival = {0.0, static_cast<int>(i % 2), static_cast<std::int64_t>(idx)};
    s.due = s.submit_start = Clock::now();
    s.fut = f.fleet.submit(s.arrival.tenant == 0 ? f.ida : f.idb,
                           f.images[idx]);
  }
  f.fleet.wait_idle();
  collect(c, sent, true, pr, 1);
}

/// A trained model CP-projected and saved as two artifact versions: v1
/// (the initial deployment) and v2 (the hot-swap target, one more epoch of
/// training), plus the warmed-up fleet that serves the fixed-rate phase.
struct ServeSetup {
  data::DatasetPair data;
  std::string v1_path, v2_path;
  double power = 0.0;
  std::int64_t plans0 = 0, calib0 = 0;
  std::unique_ptr<ServeFleet> fleet;
  PhaseResult warm;  ///< the fleet's warm-up requests (gated)
};

ServeSetup serve_setup(Ctx& c) {
  ServeSetup st;
  runtime::set_thread_count(c.sz.threads);
  st.data = make_data(c);
  const nn::ModelConfig mc = model_config(c);
  const auto base = nn::resnet18(mc);
  {
    nn::Trainer trainer(*base, train_config(c, c.sz.pretrain_epochs, 3));
    Rng rng(mix_seed(c.seed, 4));
    for (int e = 0; e < c.sz.pretrain_epochs; ++e)
      train_epoch(c, trainer, st.data.train, rng, e, nullptr);
  }
  st.v1_path = c.out_dir + "/serve_v1.tadc";
  st.v2_path = c.out_dir + "/serve_v2.tadc";
  for (const int v : {1, 2}) {
    if (v == 2) {
      nn::Trainer trainer(*base, train_config(c, 1, 5));
      Rng rng(mix_seed(c.seed, 6));
      train_epoch(c, trainer, st.data.train, rng, 0, nullptr);
    }
    nn::Model model = base->clone();
    cp_project(c, model, c.sz.serve_cp_rate);
    const xbar::MappedNetwork net = map_net(c, model, nullptr);
    auto an = compile(c, model, net, msim::MsimConfig{});
    calibrate(c, *an, st.data.train);
    if (v == 1) st.power = power_norm(c, net, mc);
    save(c, v == 1 ? st.v1_path : st.v2_path, model, mc, net, *an, {}, {});
  }
  c.note_workers();
  // Serving runs one forward per worker thread: no operator parallelism,
  // and no idle runtime pool threads beside the fleet's workers.
  runtime::set_thread_count(1);
  runtime::shutdown();
  st.plans0 = msim::AnalogLayerSim::plan_compilations();
  st.calib0 = msim::AnalogNetwork::calibration_runs();
  st.fleet = std::make_unique<ServeFleet>(c.sz, st.v1_path,
                                          st.data.test);
  warm_up(c, *st.fleet, st.warm);
  return st;
}

/// Runs one open-loop schedule on `f`: the generator thread submits on
/// schedule while the calling thread performs `swaps` hot swaps of tenant
/// a at evenly spaced times; then drains the fleet and collects every
/// future. Swaps alternate between the v2 and v1 artifacts.
PhaseResult run_schedule(Ctx& c, const ServeSetup& st, ServeFleet& f,
                         const std::vector<Arrival>& sched, double secs,
                         int swaps, std::uint64_t flow0) {
  PhaseResult pr;
  std::vector<Sent> sent(sched.size());
  pr.t0 = Clock::now() + std::chrono::milliseconds(5);
  // A throwing submit or swap is a program fault: the thread is joined and
  // the error rethrown, which ends the run without a result.
  std::exception_ptr gen_error, swap_error;
  std::thread gen([&] {
    try {
      for (std::size_t i = 0; i < sched.size(); ++i) {
        Sent& s = sent[i];
        s.arrival = sched[i];
        s.due = pr.t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(sched[i].t_s));
        std::this_thread::sleep_until(s.due);
        Span sp(c.tr, "serve.submit", flow0 + i);
        s.submit_start = Clock::now();
        s.fut = f.fleet.submit(
            sched[i].tenant == 0 ? f.ida : f.idb,
            f.images[static_cast<std::size_t>(sched[i].index)]);
        s.submit_us = ms_between(s.submit_start, Clock::now()) * 1e3;
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
  });
  try {
    for (int k = 1; k <= swaps; ++k) {
      std::this_thread::sleep_until(
          pr.t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(secs * k / (swaps + 1))));
      Span sp(c.tr, "serve.swap");
      const auto t0 = Clock::now();
      ++f.swaps_done;
      f.fleet.swap_tenant("a",
                          f.swaps_done % 2 == 1 ? st.v2_path : st.v1_path,
                          true);
      pr.swap_ms.push_back(ms_between(t0, Clock::now()));
    }
  } catch (...) {
    swap_error = std::current_exception();
  }
  gen.join();
  if (gen_error) std::rethrow_exception(gen_error);
  if (swap_error) std::rethrow_exception(swap_error);
  // Releases tenant a's deterministic partial batch (part of its stream).
  f.fleet.wait_idle();
  pr.t_end = pr.t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(secs));
  collect(c, sent, false, pr, flow0);
  return pr;
}

/// A rate passes when nothing was refused, p99 latency from due time stays
/// under the limit and the backlog did not grow: requests still unfinished
/// at a schedule's end stay below one limit's worth of arrivals.
bool rate_passes(const std::vector<const PhaseResult*>& phases, double rps,
                 double limit_ms) {
  std::vector<double> lat;
  for (const PhaseResult* pr : phases) {
    std::int64_t late = 0;
    for (const Served& s : pr->served) {
      if (s.warm) continue;
      if (!s.ok) return false;
      lat.push_back(s.latency_ms);
      if (s.done > pr->t_end) ++late;
    }
    if (static_cast<double>(late) > rps * limit_ms / 1e3) return false;
  }
  return !lat.empty() && percentile(lat, 99.0) <= limit_ms;
}

void run_serve(Ctx& c, double seconds) {
  Report& r = c.rep;
  ServeSetup st = timed_setup<ServeSetup>(c, [&] { return serve_setup(c); });
  const std::int64_t ntest = st.data.test.size();
  const double fixed_rps = c.sz.capacity_rps / 2.0;

  // The fixed-rate phase (with the hot swaps of tenant a) runs in segments
  // that interleave with the ladder probes, so the figures sample the whole
  // run rather than one moment of the host. The segments share half of
  // `seconds`, the probes the other half.
  const int segments = std::max(1, std::min(4, c.sz.swaps));
  const double seg_secs = seconds / 2.0 / segments;
  ServeFleet& main = *st.fleet;
  std::vector<PhaseResult> fixed;

  // Fixed ladder of offered rates, 5 % apart, from a quarter of the fixed
  // rate (an eighth of the capacity) up to 16 times it (eight times the
  // capacity); binary search for the highest rung that passes. The search
  // needs at most ceil(log2(rungs + 1)) probes, which split the ladder's
  // time evenly; each runs on a fresh, warmed-up fleet.
  std::vector<double> ladder;
  for (double x = fixed_rps / 4.0; x < 16.0 * fixed_rps; x *= 1.05)
    ladder.push_back(x);
  const int max_probes = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(ladder.size()) + 1.0)));
  const double probe_secs = seconds / 2.0 / max_probes;
  // Invariant: rungs <= lo pass (lo = -1: none known), rungs >= hi fail.
  std::int64_t lo = -1, hi = static_cast<std::int64_t>(ladder.size());
  double spent = 0.0;
  int probes = 0;
  std::uint64_t flow = 1000;
  for (int step = 0; step < segments || hi - lo > 1; ++step) {
    if (step < segments) {
      Span s(c.tr, "serve.fixed_segment");
      const auto sched = make_schedule(fixed_rps, seg_secs, ntest,
                                       mix_seed(c.seed, 99 + step));
      fixed.push_back(run_schedule(c, st, main, sched, seg_secs,
                                   c.sz.swaps / segments, flow));
      flow += sched.size();
    }
    if (hi - lo > 1) {
      Span s(c.tr, "serve.ladder_probe");
      const std::int64_t probe = lo + (hi - lo) / 2;
      const double rps = ladder[static_cast<std::size_t>(probe)];
      ServeFleet pf(c.sz, st.v1_path, st.data.test);
      PhaseResult pw;
      warm_up(c, pf, pw);
      const auto sched = make_schedule(rps, probe_secs, ntest,
                                       mix_seed(c.seed, 200 + probes));
      const PhaseResult pp =
          run_schedule(c, st, pf, sched, probe_secs, 0, flow);
      flow += sched.size();
      spent += probe_secs;
      ++probes;
      (rate_passes({&pp}, rps, c.sz.latency_limit_ms) ? lo : hi) = probe;
    }
  }
  // A search that ends at either end of the ladder has measured a bound,
  // not the capacity: the gate fails (and the figure is then a rate below
  // the lowest rung, or the top rung).
  const bool in_range =
      lo >= 0 && lo + 1 < static_cast<std::int64_t>(ladder.size());
  r.gate("serve.max_rate_inside_ladder", in_range,
         lo < 0 ? "the lowest rung failed"
                : (in_range ? "highest passing rung " + std::to_string(lo) +
                                  " of " + std::to_string(ladder.size())
                            : "the top rung passed"));
  const double max_rate =
      lo >= 0 ? ladder[static_cast<std::size_t>(lo)] : ladder.front() / 1.05;
  std::vector<const PhaseResult*> fixed_ptrs;
  PhaseResult pr;  // the whole gated stream of the main fleet
  pr.served = st.warm.served;
  for (const PhaseResult& f : fixed) {
    fixed_ptrs.push_back(&f);
    pr.served.insert(pr.served.end(), f.served.begin(), f.served.end());
    pr.swap_ms.insert(pr.swap_ms.end(), f.swap_ms.begin(), f.swap_ms.end());
  }
  const bool fixed_passes =
      rate_passes(fixed_ptrs, fixed_rps, c.sz.latency_limit_ms);
  const serve::FleetStats fleet_stats = main.fleet.stats();
  std::int64_t rejected = 0;
  for (const auto& t : fleet_stats.tenants) rejected += t.stats.rejected;

  // Every request of the gated stream is an operation; a refused or
  // errored one fails. Latencies cover the fixed-rate segments only.
  std::vector<double> lat, lag, submit_us;
  std::int64_t correct = 0, completed = 0;
  for (const Served& s : pr.served) {
    ++r.attempted;
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    if (s.warm) continue;
    ++completed;
    lag.push_back(s.lag_ms);
    submit_us.push_back(s.submit_us);
    lat.push_back(s.latency_ms);
    correct += s.result.label ==
               st.data.test.labels[static_cast<std::size_t>(s.arrival.index)];
  }

  // Gates: sequential AnalogSession replay of tenant a's stream, batch by
  // batch on the version that served it.
  artifact::Deployment d1 = load(c, st.v1_path);
  artifact::Deployment d2 = load(c, st.v2_path);
  const msim::MsimStats base1 = sims_total(*d1.analog);
  const msim::MsimStats base2 = sims_total(*d2.analog);
  msim::AnalogSession s1(*d1.analog), s2(*d2.analog);
  std::map<std::uint64_t, std::vector<const Served*>> batches;
  for (const Served& s : pr.served)
    if (s.ok && s.arrival.tenant == 0)
      batches[s.result.batch_seq].push_back(&s);
  std::int64_t mismatched = 0, torn = 0;
  std::vector<double> b8_ms, b2_ms, b1_ms;
  {
    Span sp(c.tr, "msim.replay");
    for (auto& [seq, reqs] : batches) {
      std::sort(reqs.begin(), reqs.end(), [](const Served* x, const Served* y) {
        return x->result.seq < y->result.seq;
      });
      const std::uint64_t version = reqs.front()->result.version;
      std::vector<std::int64_t> idx;
      for (const Served* s : reqs) {
        idx.push_back(s->arrival.index);
        torn += s->result.version != version;
      }
      // Odd ordinals serve v1 (initial and every second swap), even v2.
      msim::AnalogSession& sess = version % 2 == 1 ? s1 : s2;
      Span fs(c.tr, "msim.forward");
      const auto t0 = Clock::now();
      const Tensor logits = sess.forward(gather(st.data.test, idx));
      if (idx.size() == 2) b2_ms.push_back(ms_between(t0, Clock::now()));
      const std::int64_t k = logits.dim(1);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto& got = reqs[i]->result.logits;
        const float* want = logits.data() + static_cast<std::int64_t>(i) * k;
        mismatched += got.size() != static_cast<std::size_t>(k) ||
                      std::memcmp(got.data(), want,
                                  got.size() * sizeof(float)) != 0;
      }
    }
  }
  const msim::MsimStats replay = [&] {
    const msim::MsimStats a = stats_minus(sims_total(*d1.analog), base1);
    const msim::MsimStats b = stats_minus(sims_total(*d2.analog), base2);
    return msim::MsimStats{a.adc_conversions + b.adc_conversions,
                           a.adc_clip_events + b.adc_clip_events,
                           a.dac_cycles + b.dac_cycles};
  }();
  const serve::TenantStats* ta = nullptr;
  for (const auto& t : fleet_stats.tenants)
    if (t.name == "a") ta = &t;
  std::int64_t a_requests = 0;
  for (const auto& [seq, reqs] : batches) a_requests += reqs.size();
  r.gate("serve.a_digests_match_replay", mismatched == 0 && torn == 0,
         std::to_string(a_requests) + " requests in " +
             std::to_string(batches.size()) + " batches, " +
             std::to_string(mismatched) + " mismatched, " +
             std::to_string(torn) + " torn");
  const bool counters_ok =
      ta->stats.adc_conversions == replay.adc_conversions &&
      ta->stats.adc_clip_events == replay.adc_clip_events &&
      ta->stats.dac_cycles == replay.dac_cycles;
  r.gate("serve.a_counters_match_replay", counters_ok,
         "fleet conv=" + std::to_string(ta->stats.adc_conversions) +
             " replay conv=" + std::to_string(replay.adc_conversions) +
             " fleet dac=" + std::to_string(ta->stats.dac_cycles) +
             " replay dac=" + std::to_string(replay.dac_cycles));
  // Tenant b (dynamic batching) replayed at batch 1 and in groups of 8:
  // a request's logits depend only on its own image.
  std::vector<const Served*> bs;
  for (const Served& s : pr.served)
    if (s.ok && s.arrival.tenant == 1 && bs.size() < 128) bs.push_back(&s);
  std::int64_t b_mismatch = 0;
  {
    msim::AnalogSession sb(*d1.analog);
    for (std::size_t i = 0; i < bs.size(); ++i) {
      const std::size_t group = i < 64 ? 1 : 8;
      if (i >= 64 && (i - 64) % 8 != 0) continue;
      if (i + group > bs.size()) break;
      std::vector<std::int64_t> idx;
      for (std::size_t j = i; j < i + group; ++j)
        idx.push_back(bs[j]->arrival.index);
      Span fs(c.tr, "msim.forward");
      const auto t0 = Clock::now();
      const Tensor logits = sb.forward(gather(st.data.test, idx));
      (group == 1 ? b1_ms : b8_ms).push_back(ms_between(t0, Clock::now()));
      const std::int64_t k = logits.dim(1);
      for (std::size_t j = 0; j < group; ++j)
        b_mismatch +=
            std::memcmp(bs[i + j]->result.logits.data(),
                        logits.data() + static_cast<std::int64_t>(j) * k,
                        static_cast<std::size_t>(k) * sizeof(float)) != 0;
    }
  }
  r.gate("serve.b_outputs_match_replay", b_mismatch == 0,
         std::to_string(b1_ms.size()) + " batch-1 and " +
             std::to_string(b8_ms.size()) + " batch-8 replays, " +
             std::to_string(b_mismatch) + " mismatched requests");
  const std::int64_t dplans =
      msim::AnalogLayerSim::plan_compilations() - st.plans0;
  const std::int64_t dcalib =
      msim::AnalogNetwork::calibration_runs() - st.calib0;
  r.gate("serve.load_swap_no_compile", dplans == 0 && dcalib == 0,
         "plan_compilations +" + std::to_string(dplans) +
             ", calibration_runs +" + std::to_string(dcalib) +
             " across loads and " + std::to_string(pr.swap_ms.size()) +
             " swaps");

  // Derived queue wait: each request's latency minus the replayed forward
  // time of its batch size (the batch-1, -2 and -8 medians, linear between
  // 2 and 8), per tenant and pooled ([2]).
  const double f1 = median(b1_ms), f2 = median(b2_ms), f8 = median(b8_ms);
  std::vector<double> waits[3], lat_by[2];
  for (const Served& s : pr.served) {
    if (!s.ok || s.warm) continue;
    const double b = static_cast<double>(s.result.batch_size);
    const double fwd = b <= 1.0 ? f1 : f2 + (f8 - f2) * (b - 2.0) / 6.0;
    waits[s.arrival.tenant].push_back(s.latency_ms - fwd);
    waits[2].push_back(s.latency_ms - fwd);
    lat_by[s.arrival.tenant].push_back(s.latency_ms);
  }

  // End-to-end metrics.
  std::vector<double> seg_tails;
  double tail_p = 0.0;
  for (const PhaseResult& f : fixed) {
    std::vector<double> seg;
    for (const Served& s : f.served)
      if (s.ok) seg.push_back(s.latency_ms);
    const auto [p, v] = tail(seg);
    tail_p = p;
    seg_tails.push_back(v);
  }
  r.e2e("rate_per_s", max_rate);
  // The two tenants' medians sit apart (a forwards pairs, b mostly single
  // requests), so the pooled median falls in the gap between them and
  // flips from one to the other; their mean does not.
  const double p50 = (median(lat_by[0]) + median(lat_by[1])) / 2.0;
  r.e2e("p50_ms", p50);
  r.e2e("job_s", median(pr.swap_ms) / 1e3);
  r.e2e("top1", completed ? static_cast<double>(correct) / completed : 0.0);
  r.e2e("power_norm", st.power);
  r.detail("serve.p50_ms", p50, "ms");
  r.detail("serve.pooled_p50_ms", median(lat), "ms");
  r.detail("serve.p99_ms", percentile(lat, 99.0), "ms");
  r.detail("serve.a.p50_ms", median(lat_by[0]), "ms");
  r.detail("serve.b.p50_ms", median(lat_by[1]), "ms");
  r.detail("serve.queue_wait_ms", median(waits[2]), "ms");
  r.detail("serve.a.queue_wait_ms", median(waits[0]), "ms");
  r.detail("serve.b.queue_wait_ms", median(waits[1]), "ms");
  r.detail("serve.forward_b1_ms", f1, "ms");
  r.detail("serve.forward_b2_ms", f2, "ms");
  r.detail("serve.forward_b8_ms", f8, "ms");
  r.detail("serve.segment_p99_ms", median(seg_tails), "ms");
  r.detail("serve.segment_tail_percentile", tail_p, "pct");
  r.detail("serve.segments", static_cast<double>(fixed.size()), "count");
  r.detail("serve.samples", static_cast<double>(lat.size()), "count");
  r.detail("serve.samples_beyond_p99",
           std::floor(static_cast<double>(lat.size()) * 0.01), "count");
  r.detail("serve.fixed_rps", fixed_rps, "1/s");
  r.detail("serve.max_rate_rps", max_rate, "1/s");
  r.detail("serve.fixed_rate_passes", fixed_passes ? 1.0 : 0.0, "bool");
  r.detail("serve.latency_limit_ms", c.sz.latency_limit_ms, "ms");
  r.detail("serve.ladder_rungs", static_cast<double>(ladder.size()), "count");
  r.detail("serve.ladder_probes", probes, "count");
  r.detail("serve.ladder_seconds", spent, "s");
  r.detail("serve.swaps", static_cast<double>(pr.swap_ms.size()), "count");
  r.detail("serve.top1", completed ? static_cast<double>(correct) / completed
                                   : 0.0,
           "ratio");

  // Per-layer metrics.
  std::int64_t batches_done = 0, reqs_done = 0, max_depth = 0;
  for (const auto& t : fleet_stats.tenants) {
    batches_done += static_cast<std::int64_t>(t.stats.batches);
    reqs_done += static_cast<std::int64_t>(t.stats.requests);
    max_depth = std::max<std::int64_t>(max_depth, t.stats.max_queue_depth);
  }
  const msim::MsimStats agg{fleet_stats.aggregate.adc_conversions,
                           fleet_stats.aggregate.adc_clip_events,
                           fleet_stats.aggregate.dac_cycles};
  const double per = reqs_done ? 1.0 / static_cast<double>(reqs_done) : 0.0;
  r.layer("serve.submit_us", median(submit_us));
  r.layer("serve.mean_batch",
          batches_done ? static_cast<double>(reqs_done) / batches_done : 0.0);
  r.layer("serve.max_queue_depth", static_cast<double>(max_depth));
  r.layer("serve.rejected", static_cast<double>(rejected));
  r.layer("serve.gen_lag_ms", percentile(lag, 99.0));
  r.layer("serve.swap_ms", median(pr.swap_ms));
  r.layer("serve.queue_wait_ms", median(waits[2]));
  r.layer("msim.forward_b1_ms", median(b1_ms));
  r.layer("msim.forward_b8_ms", median(b8_ms));
  r.layer("msim.adc_conv_per_image", agg.adc_conversions * per);
  r.layer("msim.clips_per_image", agg.adc_clip_events * per);
  r.layer("msim.dac_cycles_per_image", agg.dac_cycles * per);
  r.layer("msim.plan_compilations", static_cast<double>(dplans));
  r.layer("msim.calibration_runs", static_cast<double>(dcalib));
  r.note("serve.queue_wait_ms",
         "derived: median of latency minus the replayed forward time of the "
         "request's batch size");
  r.note("serve.threads",
         std::to_string(c.sz.threads) + " fleet workers + 1 generator");
}


// ---------------------------------------------------------------------------
// prune_admm

std::uint64_t file_digest(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  return serve::fnv1a(bytes.data(), bytes.size());
}

struct FlowTimes {
  double wall_s = 0.0;
  std::int64_t samples = 0;  ///< ADMM + retrain samples
  double train_s = 0.0;      ///< time in ADMM + retrain steps
};

/// The paper's offline flow from seed to saved artifact: pretrain, ADMM
/// CP pruning, hard prune, masked retrain, map, compile, calibrate, save.
FlowTimes prune_flow(Ctx& c, const data::DatasetPair& d, std::uint64_t flow,
                     const std::string& path, std::vector<double>& prox_ms,
                     std::vector<double>& dual_ms,
                     std::vector<double>& hard_ms) {
  Span fs(c.tr, "bench.flow", flow);
  FlowTimes ft;
  const auto t0 = Clock::now();
  const nn::ModelConfig mc = model_config(c);
  std::unique_ptr<nn::Model> model;
  {
    Span s(c.tr, "nn.build");
    model = nn::resnet18(mc);
  }
  {
    nn::Trainer trainer(*model, train_config(c, c.sz.pretrain_epochs, 3));
    Rng rng(mix_seed(c.seed, 4));
    for (int e = 0; e < c.sz.pretrain_epochs; ++e)
      train_epoch(c, trainer, d.train, rng, e, nullptr);
  }
  core::AdmmPruner pruner(
      *model, core::uniform_cp_specs(*model, c.sz.cp_rate, c.sz.dims),
      c.sz.dims, core::AdmmConfig{});
  {
    Span s(c.tr, "core.admm_init");
    pruner.initialize();
  }
  std::vector<double> steps;
  {
    nn::Trainer trainer(*model, train_config(c, c.sz.admm_epochs, 5));
    trainer.set_grad_hook([&] {
      Span s(c.tr, "core.admm_prox");
      const auto t = Clock::now();
      pruner.add_proximal_gradient();
      prox_ms.push_back(ms_between(t, Clock::now()));
    });
    Rng rng(mix_seed(c.seed, 6));
    for (int e = 0; e < c.sz.admm_epochs; ++e) {
      ft.samples += train_epoch(c, trainer, d.train, rng, e, &steps);
      Span s(c.tr, "core.admm_dual");
      const auto t = Clock::now();
      pruner.update_duals();
      dual_ms.push_back(ms_between(t, Clock::now()));
    }
  }
  {
    Span s(c.tr, "core.hard_prune");
    const auto t = Clock::now();
    pruner.hard_prune();
    hard_ms.push_back(ms_between(t, Clock::now()));
  }
  {
    nn::Trainer trainer(*model, train_config(c, c.sz.retrain_epochs, 7));
    trainer.set_step_hook([&] {
      Span s(c.tr, "core.enforce_masks");
      pruner.enforce_masks();
    });
    Rng rng(mix_seed(c.seed, 8));
    for (int e = 0; e < c.sz.retrain_epochs; ++e)
      ft.samples += train_epoch(c, trainer, d.train, rng, e, &steps);
  }
  for (const double ms : steps) ft.train_s += ms / 1e3;
  const xbar::MappedNetwork net = map_net(c, *model, &pruner.selections());
  auto an = compile(c, *model, net, msim::MsimConfig{});
  calibrate(c, *an, d.train);
  save(c, path, *model, mc, net, *an, pruner.specs(), pruner.selections());
  ft.wall_s = ms_between(t0, Clock::now()) / 1e3;
  return ft;
}

void run_prune(Ctx& c, double seconds) {
  Report& r = c.rep;
  runtime::set_thread_count(c.sz.threads);
  data::DatasetPair d = timed_setup<data::DatasetPair>(c, [&] {
    data::DatasetPair p = make_data(c);
    // Warm-up: one train step on a throwaway model faults in the GEMM
    // workspaces and starts the runtime pool.
    const auto m = nn::resnet18(model_config(c));
    nn::Trainer t(*m, train_config(c, 1, 3));
    data::BatchIterator it(p.train, c.sz.batch, nullptr);
    data::Batch b;
    it.next(b);
    t.train_step(b, 0);
    return p;
  });

  std::vector<double> prox_ms, dual_ms, hard_ms, flow_s, flow_tail_ms;
  double tail_p = 0.0;
  std::int64_t samples = 0;
  double train_s = 0.0;
  std::uint64_t first_digest = 0;
  std::int64_t differing = 0;
  const auto start = Clock::now();
  const std::string path = c.out_dir + "/prune.tadc";
  for (std::uint64_t flow = 1;; ++flow) {
    const std::size_t steps0 = c.train_step_ms.size();
    const FlowTimes ft =
        prune_flow(c, d, flow, path, prox_ms, dual_ms, hard_ms);
    const auto [p, v] = tail(std::vector<double>(
        c.train_step_ms.begin() + static_cast<std::ptrdiff_t>(steps0),
        c.train_step_ms.end()));
    tail_p = p;
    flow_tail_ms.push_back(v);
    c.note_workers();
    flow_s.push_back(ft.wall_s);
    samples += ft.samples;
    train_s += ft.train_s;
    const std::uint64_t digest = file_digest(path);
    ++r.attempted;  // the flow; a differing artifact fails the gate below
    if (flow == 1) {
      first_digest = digest;
      // Gates and quality metrics on the first flow's artifact; later
      // flows must reproduce it byte for byte.
      const double float_top1 = [&] {
        artifact::Deployment dep = artifact::load_artifact(path);
        dep.analog.reset();  // removes the MVM hooks: the float path
        return float_eval(c, *dep.model, d.test);
      }();
      const std::int64_t plans0 = msim::AnalogLayerSim::plan_compilations();
      const std::int64_t calib0 = msim::AnalogNetwork::calibration_runs();
      artifact::Deployment dep = load(c, path);
      const std::int64_t dplans =
          msim::AnalogLayerSim::plan_compilations() - plans0;
      const std::int64_t dcalib =
          msim::AnalogNetwork::calibration_runs() - calib0;
      r.gate("prune.load_no_compile", dplans == 0 && dcalib == 0,
             "plan_compilations +" + std::to_string(dplans) +
                 ", calibration_runs +" + std::to_string(dcalib));
      const msim::MsimStats s0 = sims_total(*dep.analog);
      double top1 = 0.0;
      double eval_ms = 0.0;
      {
        Span s(c.tr, "msim.evaluate");
        const auto t = Clock::now();
        top1 = dep.analog->evaluate(d.test, 16);
        eval_ms = ms_between(t, Clock::now());
      }
      const msim::MsimStats ds = stats_minus(sims_total(*dep.analog), s0);
      const double per = 1.0 / static_cast<double>(d.test.size());
      r.layer("msim.adc_conv_per_image", ds.adc_conversions * per);
      r.layer("msim.clips_per_image", ds.adc_clip_events * per);
      r.layer("msim.dac_cycles_per_image", ds.dac_cycles * per);
      const int bad = exactness_mismatches(c, dep, 4);
      r.gate("prune.eq1_exact_mvm", bad == 0,
             std::to_string(bad) + " of " +
                 std::to_string(dep.mapping->layers.size()) +
                 " layers differ from xbar::reference_mvm");
      r.gate("prune.eq1_no_clips", ds.adc_clip_events == 0,
             std::to_string(ds.adc_clip_events) + " clips on the test split");
      const double power = power_norm(c, *dep.mapping, model_config(c));
      r.e2e("top1", top1);
      r.e2e("power_norm", power);
      r.detail("prune.top1", top1, "ratio");
      r.detail("prune.float_top1", float_top1, "ratio");
      r.detail("prune.power_norm", power, "ratio");
      r.detail("prune.eval_ms", eval_ms, "ms");
      r.detail("prune.worst_adc_bits_after_first",
               dep.mapping->worst_adc_bits_after_first(), "bits");
    } else {
      differing += digest != first_digest;
    }
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed + median(flow_s) > seconds) break;
  }
  r.gate("prune.flows_reproduce_artifact", differing == 0,
         std::to_string(flow_s.size()) + " flows, " +
             std::to_string(differing) + " artifacts differ from the first");

  const double rate = train_s > 0.0 ? static_cast<double>(samples) / train_s
                                    : 0.0;
  r.e2e("rate_per_s", rate);
  r.e2e("p50_ms", median(c.train_step_ms));
  // Per flow, the tail of its train steps; the median over the run's flows.
  r.detail("prune.step_tail_ms", median(flow_tail_ms), "ms");
  r.e2e("job_s", median(flow_s));
  r.detail("prune.samples_per_s", rate, "1/s");
  r.detail("prune.wall_s", median(flow_s), "s");
  r.detail("prune.flows", static_cast<double>(flow_s.size()), "count");
  r.detail("prune.train_steps", static_cast<double>(c.train_step_ms.size()),
           "count");
  r.detail("prune.step_tail_percentile", tail_p, "pct");
  r.detail("prune.threads", runtime::thread_count(), "count");
  r.layer("core.admm_prox_ms", median(prox_ms));
  r.layer("core.admm_dual_ms", median(dual_ms));
  r.layer("core.hard_prune_ms", median(hard_ms));
}

// ---------------------------------------------------------------------------
// sim_sweep

struct SweepSetup {
  data::DatasetPair data;
  data::Dataset eval;  ///< strided subset of data.test every point evaluates
  /// One pretrained model, CP-projected (no retraining) at each rate.
  std::vector<std::unique_ptr<nn::Model>> models;
  std::vector<double> float_top1;
};

struct PointSpec {
  std::size_t model = 0;
  double sigma = 0.0;
  int under_bits = 0;  ///< 0 = Eq. 1 sizing; k > 0 = Eq. 1 bits - k, forced
};

struct PointOut {
  double top1 = 0.0;
  msim::MsimStats stats;
  double eval_ms = 0.0;
  std::int64_t images = 0;
  double point_ms = 0.0;
};

void run_sweep(Ctx& c, double seconds) {
  Report& r = c.rep;
  runtime::set_thread_count(c.sz.threads);
  SweepSetup st = timed_setup<SweepSetup>(c, [&] {
    SweepSetup s;
    s.data = make_data(c);
    const std::int64_t n = s.data.test.size();
    const std::int64_t k = std::min(n, c.sz.sweep_eval_images);
    std::vector<std::size_t> idx;
    for (std::int64_t i = 0; i < k; ++i)
      idx.push_back(static_cast<std::size_t>(i * n / k));
    s.eval = s.data.test.subset(idx);
    const nn::ModelConfig mc = model_config(c);
    const auto base = nn::resnet18(mc);
    {
      nn::Trainer trainer(*base, train_config(c, c.sz.pretrain_epochs, 3));
      Rng rng(mix_seed(c.seed, 4));
      for (int e = 0; e < c.sz.pretrain_epochs; ++e)
        train_epoch(c, trainer, s.data.train, rng, e, nullptr);
    }
    for (const std::int64_t rate : c.sz.sweep_rates) {
      s.models.push_back(std::make_unique<nn::Model>(base->clone()));
      cp_project(c, *s.models.back(), rate);
      s.float_top1.push_back(float_eval(c, *s.models.back(), s.eval));
    }
    return s;
  });

  std::vector<PointSpec> grid;
  for (std::size_t m = 0; m < st.models.size(); ++m) {
    grid.push_back({m, 0.0, 0});  // ideal Eq. 1 reference
    grid.push_back({m, 0.1, 0});  // the chip as designed, with variation
    grid.push_back({m, 0.1, 1});  // one bit under Eq. 1
  }
  std::vector<std::vector<PointOut>> outs(grid.size());
  std::vector<double> power(st.models.size(), 0.0);
  std::vector<double> point_ms, pass_s, nonideal_batch_ms, trial_ms;
  std::int64_t images = 0;
  double eval_s = 0.0;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    Span ps(c.tr, "bench.pass", static_cast<std::uint64_t>(pass + 1));
    const auto tp = Clock::now();
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const PointSpec& p = grid[g];
      nn::Model& model = *st.models[p.model];
      Span sp(c.tr, "bench.point");
      const auto t0 = Clock::now();
      PointOut o;
      {
        const xbar::MappedNetwork net = map_net(c, model, nullptr);
        if (pass == 0 && p.sigma == 0.0)
          power[p.model] = power_norm(c, net, model_config(c));
        msim::MsimConfig cfg;
        cfg.variation_sigma = p.sigma;
        cfg.seed = mix_seed(c.seed, 200 + g);
        if (p.under_bits > 0)
          cfg.adc_bits_override =
              net.worst_adc_bits_after_first() - p.under_bits;
        auto an = compile(c, model, net, cfg);
        calibrate(c, *an, st.data.train);
        const msim::MsimStats s0 = sims_total(*an);
        {
          Span s(c.tr, "msim.evaluate");
          const auto te = Clock::now();
          o.top1 = an->evaluate(st.eval, 16);
          o.eval_ms = ms_between(te, Clock::now());
        }
        o.stats = stats_minus(sims_total(*an), s0);
        o.images = st.eval.size();
        if (p.sigma > 0.0) {
          const double batches = std::ceil(o.images / 16.0);
          nonideal_batch_ms.push_back(o.eval_ms / batches);
        }
      }
      if (p.sigma > 0.0 && p.under_bits == 0) {
        fault::FaultSpec spec;
        spec.rate = 0.01;
        spec.seed = mix_seed(c.seed, 300 + g);
        Span s(c.tr, "fault.trials");
        const auto tf = Clock::now();
        fault::evaluate_under_faults(model, st.eval, mapping_config(c),
                                     spec, c.sz.fault_trials);
        trial_ms.push_back(ms_between(tf, Clock::now()) / c.sz.fault_trials);
      }
      o.point_ms = ms_between(t0, Clock::now());
      ++r.attempted;  // the point; the gates below judge its outputs
      point_ms.push_back(o.point_ms);
      images += o.images;
      eval_s += o.eval_ms / 1e3;
      outs[g].push_back(o);
    }
    pass_s.push_back(ms_between(tp, Clock::now()) / 1e3);
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed + median(pass_s) > seconds) break;
  }

  // Gates: Eq. 1 ideal points never clip; every pass reproduces the first
  // pass's accuracy and counters exactly.
  std::int64_t ideal_clips = 0, unstable = 0;
  double designed_top1 = 0.0;
  msim::MsimStats total;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const PointOut& first = outs[g].front();
    if (grid[g].sigma == 0.0 && grid[g].under_bits == 0)
      ideal_clips += first.stats.adc_clip_events;
    // The end-to-end top1 is the designed chip (variation, Eq. 1 ADCs) at
    // the mildest CP rate: projection without retraining leaves harsher
    // rates near chance, where top-1 is mostly seed noise.
    if (grid[g].sigma > 0.0 && grid[g].under_bits == 0 && grid[g].model == 0)
      designed_top1 = first.top1;
    for (const PointOut& o : outs[g]) {
      unstable += o.top1 != first.top1 ||
                  o.stats.adc_conversions != first.stats.adc_conversions ||
                  o.stats.adc_clip_events != first.stats.adc_clip_events ||
                  o.stats.dac_cycles != first.stats.dac_cycles;
      total.adc_conversions += o.stats.adc_conversions;
      total.adc_clip_events += o.stats.adc_clip_events;
      total.dac_cycles += o.stats.dac_cycles;
    }
    char name[64];
    std::snprintf(name, sizeof(name), "sweep.cp%lld_sigma%.1f_under%d.top1",
                  static_cast<long long>(c.sz.sweep_rates[grid[g].model]),
                  grid[g].sigma, grid[g].under_bits);
    r.detail(name, first.top1, "ratio");
  }
  r.gate("sweep.eq1_ideal_no_clips", ideal_clips == 0,
         std::to_string(ideal_clips) + " clips on Eq. 1 ideal points");
  r.gate("sweep.points_reproduce", unstable == 0,
         std::to_string(unstable) + " point repeats differ from pass 1");
  for (std::size_t m = 0; m < st.models.size(); ++m)
    r.detail("sweep.cp" + std::to_string(c.sz.sweep_rates[m]) + ".float_top1",
             st.float_top1[m], "ratio");

  const double rate = eval_s > 0.0 ? static_cast<double>(images) / eval_s : 0.0;
  const auto [tail_p, tail_v] = tail(point_ms);
  r.e2e("rate_per_s", rate);
  r.e2e("p50_ms", median(point_ms));
  r.detail("sweep.point_tail_ms", tail_v, "ms");
  r.e2e("job_s", median(pass_s));
  r.e2e("top1", designed_top1);
  r.e2e("power_norm", mean(power));
  r.detail("sweep.images_per_s", rate, "1/s");
  r.detail("sweep.point_s", median(point_ms) / 1e3, "s");
  r.detail("sweep.points", static_cast<double>(point_ms.size()), "count");
  r.detail("sweep.passes", static_cast<double>(pass_s.size()), "count");
  r.detail("sweep.point_tail_percentile", tail_p, "pct");
  const double per = images ? 1.0 / static_cast<double>(images) : 0.0;
  r.layer("msim.forward_nonideal_ms", median(nonideal_batch_ms));
  r.layer("msim.adc_conv_per_image", total.adc_conversions * per);
  r.layer("msim.clips_per_image", total.adc_clip_events * per);
  r.layer("msim.dac_cycles_per_image", total.dac_cycles * per);
  r.layer("fault.trial_ms", median(trial_ms));
}

// ---------------------------------------------------------------------------
// main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string size = "full";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") { a.seed = std::stoull(v); have_seed = true; }
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out_dir = v;
    else if (k == "--size") a.size = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Runs one workload for `seconds` into `rep`, tracing into `tr`.
void run_workload(const Args& a, const Sizes& sz, double seconds, Tracer& tr,
                  Report& rep) {
  Ctx c{tr, rep, sz, a.seed, a.out_dir};
  const std::int64_t plans0 = msim::AnalogLayerSim::plan_compilations();
  const std::int64_t calib0 = msim::AnalogNetwork::calibration_runs();
  if (a.workload == "serve_fleet") run_serve(c, seconds);
  else if (a.workload == "prune_admm") run_prune(c, seconds);
  else if (a.workload == "sim_sweep") run_sweep(c, seconds);
  else throw std::invalid_argument("unknown workload " + a.workload);
  if (a.workload != "serve_fleet") {
    rep.layer("msim.plan_compilations",
              static_cast<double>(msim::AnalogLayerSim::plan_compilations() -
                                  plans0));
    rep.layer("msim.calibration_runs",
              static_cast<double>(msim::AnalogNetwork::calibration_runs() -
                                  calib0));
  }
  fill_common_layers(c);
  rep.e2e("peak_rss_mb", static_cast<double>(serve::peak_rss_kb()) / 1024.0);
}

int main_impl(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Sizes sz = sizes_for(a.size);
  const int n = nproc();
  sz.threads = std::min(sz.threads, n);
  if (a.workload == "prune_admm") sz.setup_reps += 2;  // its setup is short
  const double eff = effective_cores(n);

  Report rep;
  if (a.trace) {
    // Tracing overhead: the same workload untraced, then traced, each for
    // half the run; the per-layer metrics come from the traced half.
    // setup_s is not reported here, so each half sets up once.
    sz.setup_reps = 1;
    Tracer off(false);
    Report base;
    run_workload(a, sz, a.seconds / 2.0, off, base);
    Tracer on(true);
    run_workload(a, sz, a.seconds / 2.0, on, rep);
    rep.attempted += base.attempted;
    rep.failed += base.failed;
    const std::string path = a.out_dir + "/trace_" + a.workload + ".json";
    on.write_chrome_json(path);
    for (const auto& [layer, ms] : on.self_ms_by_layer())
      rep.layer("self." + layer + "_ms", ms);
    rep.layer("trace.spans", static_cast<double>(on.size()));
    const double b = base.e2e_value("p50_ms"), t = rep.e2e_value("p50_ms");
    rep.layer("trace.overhead_pct", b > 0.0 ? 100.0 * (t - b) / b : 0.0);
    rep.note("trace.file", path);
    rep.note("trace.overhead",
             "traced minus untraced p50_ms over untraced, same seed");
  } else {
    Tracer off(false);
    run_workload(a, sz, a.seconds, off, rep);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", eff);
  rep.note("host.cpu_model", cpu_model());
  rep.note("host.nproc", std::to_string(n));
  rep.note("host.effective_cores", buf);
  rep.note("host.compiler", PERFBENCH_COMPILER);
  rep.note("host.build_type", PERFBENCH_BUILD_TYPE);
  rep.note("host.tinyadc_native", PERFBENCH_NATIVE ? "ON" : "OFF");
  // serve_fleet adds its generator thread to the fleet's workers.
  const int threads = sz.threads + (a.workload == "serve_fleet" ? 1 : 0);
  rep.note("host.threads",
           std::to_string(threads) +
               (threads > eff + 0.25 ? " oversubscribed" : ""));
  rep.note("workload", a.workload);
  rep.note("seed", std::to_string(a.seed));
  rep.note("size", a.size);
  std::printf("%s\n", rep.to_json(a.trace).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
