// tinyadc — command-line front end for the TinyADC toolkit.
//
// Subcommands:
//   train   train a model on a synthetic tier and save a checkpoint
//   prune   run the TinyADC pipeline (CP and/or structured) on a checkpoint
//   map     map a checkpoint onto crossbars and print the ADC/array table
//   report  price the accelerator (area/power) and the pipeline schedule
//   fault   evaluate accuracy under stuck-at faults (optionally remapped)
//   serve   push the test set through the concurrent serving engine
//   loadgen closed-loop load generator at a target QPS over the engine
//
// Examples (an indented line continues the command above it):
//   tinyadc train --net resnet18 --dataset cifar10 --epochs 10 --out m.bin
//   tinyadc prune --net resnet18 --dataset cifar10 --in m.bin --cp-rate 8
//                 --out pruned.bin
//   tinyadc map --net resnet18 --in pruned.bin --xbar 128
//   tinyadc report --net resnet18 --in pruned.bin
//   tinyadc fault --net resnet18 --dataset cifar10 --in pruned.bin
//                 --rate 0.10 --remap
//   tinyadc serve --net resnet18 --dataset cifar10 --in pruned.bin
//                 --workers 4 --max-batch 8
//   tinyadc loadgen --net resnet18 --dataset cifar10 --in pruned.bin
//                 --qps 200 --requests 512 --json
//   tinyadc prune --net resnet18 --dataset cifar10 --in m.bin --cp-rate 8
//                 --save-artifact deploy.tadc
//   tinyadc serve --artifact deploy.tadc --dataset cifar10 --workers 4
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "artifact/artifact.hpp"
#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "fault/evaluate.hpp"
#include "hw/inference_model.hpp"
#include "hw/pipeline.hpp"
#include "nn/models.hpp"
#include "serve/loadgen.hpp"

namespace {

using namespace tinyadc;

/// Minimal --key value argument map with typed getters and defaults.
/// Flags may repeat (e.g. one --tenant per fleet tenant): the scalar
/// getters return the last occurrence, get_all() returns every one.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      TINYADC_CHECK(key.rfind("--", 0) == 0, "expected --flag, got " << key);
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key].push_back(argv[++i]);
      } else {
        values_[key].push_back("1");  // boolean flag
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second.back());
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second.back());
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::vector<std::string> get_all(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  /// Rejects any flag outside the subcommand's allowlist — a typo like
  /// --cp-rat must fail loudly, not silently run with the default.
  void expect_known(const std::vector<std::string>& known) const {
    for (const auto& [key, value] : values_) {
      bool ok = false;
      for (const auto& k : known)
        if (key == k) {
          ok = true;
          break;
        }
      TINYADC_CHECK(ok, "unknown flag --" << key
                                          << " for this subcommand (run "
                                             "tinyadc without arguments for "
                                             "usage)");
    }
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// Allowlist concatenation for expect_known.
std::vector<std::string> operator+(std::vector<std::string> a,
                                   const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<std::string> kDatasetFlags = {
    "dataset", "image-size", "train-per-class", "test-per-class", "classes"};
const std::vector<std::string> kModelFlags = {"net", "width-mult", "in"};
const std::vector<std::string> kMappingFlags = {"xbar", "weight-bits",
                                                "cell-bits", "input-bits"};
const std::vector<std::string> kArtifactSaveFlags = {"save-artifact", "sigma"};

data::DatasetPair load_dataset(const Args& args) {
  auto spec = data::tier_by_name(args.get("dataset", "cifar10"));
  spec.image_size = args.get_int("image-size", 8);
  spec.train_per_class = args.get_int("train-per-class", 24);
  spec.test_per_class = args.get_int("test-per-class", 8);
  if (args.has("classes")) spec.num_classes = args.get_int("classes", 10);
  return data::make_synthetic(spec);
}

/// The ModelConfig the flags describe — shared by model construction and
/// artifact metadata, so a saved artifact rebuilds the exact architecture.
nn::ModelConfig model_config(const Args& args, std::int64_t num_classes) {
  nn::ModelConfig cfg;
  cfg.num_classes = num_classes;
  cfg.image_size = args.get_int("image-size", 8);
  cfg.width_mult = static_cast<float>(args.get_double("width-mult", 0.125));
  return cfg;
}

std::unique_ptr<nn::Model> load_model(const Args& args,
                                      std::int64_t num_classes) {
  auto model = nn::build_model(args.get("net", "resnet18"),
                               model_config(args, num_classes));
  if (args.has("in")) model->load(args.get("in", ""));
  return model;
}

xbar::MappingConfig mapping_config(const Args& args) {
  xbar::MappingConfig cfg;
  const auto dim = args.get_int("xbar", 16);
  cfg.dims = {dim, dim};
  cfg.weight_bits = static_cast<int>(args.get_int("weight-bits", 8));
  cfg.cell_bits = static_cast<int>(args.get_int("cell-bits", 2));
  cfg.input_bits = static_cast<int>(args.get_int("input-bits", 8));
  return cfg;
}

/// --save-artifact flow shared by train/prune/map: map the model onto
/// crossbars (honoring the pipeline's structural selections when present),
/// compile + calibrate the analog network, and write the deployment file.
void save_deployment(const Args& args, nn::Model& model,
                     const data::DatasetPair& data,
                     std::vector<core::LayerPruneSpec> specs,
                     std::vector<core::StructuralSelection> selections) {
  const std::string path = args.get("save-artifact", "deploy.tadc");
  const auto cfg = mapping_config(args);
  const auto net = selections.empty()
                       ? xbar::map_model(model, cfg)
                       : xbar::map_model(model, cfg, selections);
  msim::MsimConfig mcfg;
  mcfg.variation_sigma = args.get_double("sigma", 0.0);
  msim::AnalogNetwork analog(model, net, mcfg);
  analog.calibrate(data.train, 16);
  artifact::ArtifactMeta meta;
  meta.arch = args.get("net", "resnet18");
  meta.model_name = model.name();
  meta.model_config = model_config(args, data.train.num_classes);
  artifact::ArtifactInputs inputs{meta, model, net, analog, std::move(specs),
                                  std::move(selections)};
  artifact::save_artifact(path, inputs);
  std::printf("saved deployment artifact to %s\n", path.c_str());
}

int cmd_train(const Args& args) {
  args.expect_known(kDatasetFlags + kModelFlags + kMappingFlags +
                    kArtifactSaveFlags +
                    std::vector<std::string>{"epochs", "batch", "lr",
                                             "verbose", "out"});
  const auto data = load_dataset(args);
  auto model = load_model(args, data.train.num_classes);
  nn::TrainConfig tc;
  tc.epochs = static_cast<int>(args.get_int("epochs", 10));
  tc.batch_size = static_cast<std::size_t>(args.get_int("batch", 32));
  tc.sgd.lr = static_cast<float>(args.get_double("lr", 0.05));
  tc.sgd.total_epochs = tc.epochs;
  tc.verbose = args.has("verbose");
  nn::Trainer trainer(*model, tc);
  trainer.fit(data.train, data.test);
  std::printf("final accuracy: %.2f%%\n",
              100.0 * trainer.evaluate(data.test));
  if (args.has("out")) {
    model->save(args.get("out", ""));
    std::printf("saved checkpoint to %s\n", args.get("out", "").c_str());
  }
  if (args.has("save-artifact")) save_deployment(args, *model, data, {}, {});
  return 0;
}

int cmd_prune(const Args& args) {
  args.expect_known(kDatasetFlags + kModelFlags + kMappingFlags +
                    kArtifactSaveFlags +
                    std::vector<std::string>{
                        "epochs", "admm-epochs", "retrain-epochs", "verbose",
                        "cp-rate", "filter-frac", "shape-frac",
                        "include-linear", "no-xbar-aware", "out"});
  const auto data = load_dataset(args);
  auto model = load_model(args, data.train.num_classes);
  core::PipelineConfig cfg;
  const auto dim = args.get_int("xbar", 16);
  cfg.xbar = {dim, dim};
  cfg.pretrain.epochs =
      args.has("in") ? 0 : static_cast<int>(args.get_int("epochs", 10));
  cfg.pretrain.sgd.total_epochs = std::max(cfg.pretrain.epochs, 1);
  cfg.admm.epochs = static_cast<int>(args.get_int("admm-epochs", 6));
  cfg.admm.sgd.lr = 0.02F;
  cfg.retrain.epochs = static_cast<int>(args.get_int("retrain-epochs", 6));
  cfg.retrain.sgd.lr = 0.01F;
  cfg.verbose = args.has("verbose");

  core::SpecOptions opts;
  opts.include_linear = args.has("include-linear");
  auto specs = core::uniform_cp_specs(*model, args.get_int("cp-rate", 8),
                                      cfg.xbar, opts);
  const double filter_frac = args.get_double("filter-frac", 0.0);
  const double shape_frac = args.get_double("shape-frac", 0.0);
  if (filter_frac > 0.0 || shape_frac > 0.0)
    core::add_structured(specs, *model, filter_frac, shape_frac, cfg.xbar,
                         !args.has("no-xbar-aware"), opts);

  const auto result =
      core::run_pipeline(*model, data.train, data.test, specs, cfg);
  std::printf("baseline %.2f%% -> pruned %.2f%% (overall %.1fx)\n",
              100.0 * result.baseline_accuracy,
              100.0 * result.final_accuracy, result.report.pruning_rate());
  std::printf("%s", core::to_table(result.report).c_str());
  if (args.has("out")) {
    model->save(args.get("out", ""));
    std::printf("saved pruned checkpoint to %s\n",
                args.get("out", "").c_str());
  }
  if (args.has("save-artifact"))
    save_deployment(args, *model, data, specs, result.selections);
  return 0;
}

int cmd_map(const Args& args) {
  args.expect_known(kDatasetFlags + kModelFlags + kMappingFlags +
                    kArtifactSaveFlags);
  auto model = load_model(args, args.get_int("classes", 10));
  const auto cfg = mapping_config(args);
  const auto net = xbar::map_model(*model, cfg);
  std::printf("%-26s %8s %8s %10s %8s %8s\n", "layer", "dense", "active",
              "occupancy", "Eq.1", "design");
  for (const auto& layer : net.layers)
    std::printf("%-26s %8lld %8lld %10lld %8d %8d\n", layer.name.c_str(),
                static_cast<long long>(layer.dense_blocks() *
                                       layer.arrays_per_block()),
                static_cast<long long>(layer.active_arrays()),
                static_cast<long long>(layer.max_active_rows()),
                layer.required_adc_bits(), layer.design_adc_bits());
  std::printf("crossbar reduction %.1f%%, worst design ADC after first "
              "layer: %d bits\n",
              100.0 * net.crossbar_reduction(),
              net.worst_design_adc_bits_after_first());
  if (args.has("save-artifact")) {
    const auto data = load_dataset(args);  // calibration inputs
    TINYADC_CHECK(data.train.num_classes == args.get_int("classes", 10),
                  "--save-artifact needs --classes to match the dataset ("
                      << data.train.num_classes << " classes)");
    save_deployment(args, *model, data, {}, {});
  }
  return 0;
}

int cmd_report(const Args& args) {
  args.expect_known(kModelFlags + kMappingFlags +
                    std::vector<std::string>{"classes", "image-size"});
  auto model = load_model(args, args.get_int("classes", 10));
  const auto cfg = mapping_config(args);
  const auto net = xbar::map_model(*model, cfg);
  const hw::CostConstants constants;
  const auto acc_report = hw::build_accelerator(net, constants);
  std::printf("%s\n", hw::to_table(acc_report).c_str());
  const std::int64_t side = args.get_int("image-size", 8);
  const auto mvms = hw::mvms_per_inference(*model, {3, side, side});
  const auto cost = hw::estimate_inference(net, mvms, constants);
  std::printf("per-image: %.2f us, %.3f uJ (ADC %.0f%%)\n",
              1e6 * cost.latency_s, 1e6 * cost.energy_j,
              100.0 * cost.adc_energy_j / cost.energy_j);
  const auto schedule = hw::schedule_pipeline(net, mvms, constants);
  std::printf("\npipeline schedule:\n%s", hw::to_table(schedule).c_str());
  return 0;
}

int cmd_fault(const Args& args) {
  args.expect_known(kDatasetFlags + kModelFlags + kMappingFlags +
                    std::vector<std::string>{"rate", "sa0-fraction", "trials",
                                             "remap"});
  const auto data = load_dataset(args);
  auto model = load_model(args, data.train.num_classes);
  const auto cfg = mapping_config(args);
  fault::FaultSpec spec;
  spec.rate = args.get_double("rate", 0.10);
  spec.sa0_fraction = args.get_double("sa0-fraction", 1.0);
  const int trials = static_cast<int>(args.get_int("trials", 3));
  const auto plain =
      fault::evaluate_under_faults(*model, data.test, cfg, spec, trials);
  std::printf("clean %.2f%%  faulted %.2f%% (drop %.2fpp, min %.2f%%)\n",
              100.0 * plain.clean_accuracy, 100.0 * plain.mean_accuracy,
              100.0 * plain.accuracy_drop(), 100.0 * plain.min_accuracy);
  if (args.has("remap")) {
    const auto remapped = fault::evaluate_under_faults_remapped(
        *model, data.test, cfg, spec, trials);
    std::printf("with fault-aware remapping: faulted %.2f%% (drop %.2fpp)\n",
                100.0 * remapped.mean_accuracy,
                100.0 * remapped.accuracy_drop());
  }
  return 0;
}

serve::ServeConfig serve_config(const Args& args) {
  serve::ServeConfig cfg;
  cfg.workers = static_cast<int>(args.get_int("workers", 2));
  cfg.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 8));
  cfg.max_wait_us = args.get_int("max-wait-us", 1000);
  cfg.deterministic = args.has("deterministic");
  cfg.max_queue = static_cast<std::size_t>(args.get_int("max-queue", 0));
  return cfg;
}

/// Shared by `serve` and `loadgen`: obtain a calibrated analog network —
/// either the full in-process pipeline (map + compile + calibrate) or a
/// millisecond cold-start from a deployment artifact — then run the engine
/// under the load generator and print (or dump) the stats.
int run_serving(const Args& args, double target_qps,
                std::int64_t default_requests) {
  const auto data = load_dataset(args);
  std::unique_ptr<nn::Model> model;
  std::optional<xbar::MappedNetwork> net;
  std::optional<msim::AnalogNetwork> analog_local;
  std::optional<artifact::Deployment> dep;
  msim::AnalogNetwork* analog = nullptr;
  if (args.has("artifact")) {
    const std::string path = args.get("artifact", "deploy.tadc");
    const bool mmap_load = args.has("mmap");
    const auto t0 = std::chrono::steady_clock::now();
    // --mmap: zero-copy load with async cold-section streaming; the plan
    // streams execute straight out of the page cache (DESIGN.md §14).
    dep.emplace(mmap_load
                    ? artifact::load_artifact_mapped(path,
                                                     /*async_stream=*/true)
                    : artifact::load_artifact(path));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    TINYADC_CHECK(dep->meta.model_config.num_classes == data.train.num_classes,
                  "artifact serves " << dep->meta.model_config.num_classes
                                     << " classes, dataset has "
                                     << data.train.num_classes);
    analog = dep->analog.get();
    std::printf("loaded %s (%s%s) in %.2f ms — no recompile, no recalibrate\n",
                path.c_str(), dep->meta.arch.c_str(),
                mmap_load ? ", mapped" : "", ms);
  } else {
    model = load_model(args, data.train.num_classes);
    net.emplace(xbar::map_model(*model, mapping_config(args)));
    msim::MsimConfig mcfg;
    mcfg.variation_sigma = args.get_double("sigma", 0.0);
    analog_local.emplace(*model, *net, mcfg);
    analog_local->calibrate(data.train, 16);
    analog = &*analog_local;
  }

  serve::InferenceEngine engine(*analog, serve_config(args));
  serve::LoadgenConfig lc;
  lc.requests = args.get_int("requests", default_requests);
  lc.target_qps = target_qps;
  lc.max_outstanding =
      static_cast<std::size_t>(args.get_int("outstanding", 64));
  auto report = serve::run_loadgen(engine, data.test, lc);
  engine.shutdown();
  if (dep.has_value()) {
    // Surface the load-phase breakdown in the shared stats schema (table
    // and JSON alike). finish_streaming() also collects the async io
    // stage's wall time — long since done by the end of the run.
    dep->finish_streaming();
    report.stats.load_map_ms = dep->load_phases.map_ms;
    report.stats.load_validate_ms = dep->load_phases.validate_ms;
    report.stats.load_stream_ms = dep->load_phases.stream_ms;
  }

  if (args.has("json")) {
    const std::string path = args.get("json", "1");
    if (path == "1") {  // bare --json: print to stdout
      std::printf("%s\n", report.to_json().c_str());
    } else {
      std::ofstream out(path);
      TINYADC_CHECK(out.good(), "cannot write " << path);
      out << report.to_json() << "\n";
      std::printf("wrote %s\n", path.c_str());
    }
  } else {
    std::printf("%s", report.stats.to_table().c_str());
    std::printf("%-22s %12.1f\n", "achieved qps", report.achieved_qps);
    std::printf("%-22s %11.2f%%\n", "accuracy", 100.0 * report.accuracy);
  }
  return 0;
}

const std::vector<std::string> kServeFlags = {
    "sigma",     "workers",  "max-batch",   "max-wait-us", "deterministic",
    "max-queue", "requests", "outstanding", "json",        "artifact",
    "mmap"};

int cmd_serve(const Args& args) {
  args.expect_known(kDatasetFlags + kModelFlags + kMappingFlags +
                    kServeFlags);
  // One pass over the test set (cycled up to --requests), as fast as the
  // engine accepts work.
  const auto data_size = args.get_int("test-per-class", 8) *
                         args.get_int("classes", 10);
  return run_serving(args, /*target_qps=*/0.0,
                     /*default_requests=*/std::max<std::int64_t>(
                         data_size, 32));
}

/// One parsed `--tenant "name=path[,key=val|flag]..."` spec.
struct TenantSpec {
  serve::TenantConfig config;
  std::string artifact;
  bool mmap = false;
  serve::TenantLoadSpec load;
};

/// Splits a comma-separated tenant spec. The first token is name=path;
/// the rest are key=value pairs or bare flags (mmap, deterministic).
TenantSpec parse_tenant_spec(const std::string& spec, const Args& args) {
  TenantSpec out;
  out.config.deterministic = args.has("deterministic");
  out.mmap = args.has("mmap");
  out.load.requests = args.get_int("requests", 256);
  out.load.qps = args.get_double("qps", 0.0);
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) tokens.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  TINYADC_CHECK(!tokens.empty(), "empty --tenant spec");
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (i == 0) {
      TINYADC_CHECK(eq != std::string::npos && !key.empty() && !val.empty(),
                    "--tenant must start with name=artifact.tadc, got '"
                        << tok << "'");
      out.config.name = key;
      out.load.name = key;
      out.artifact = val;
      continue;
    }
    if (key == "weight") out.config.weight = std::stod(val);
    else if (key == "priority") out.config.priority = std::stoi(val);
    else if (key == "max-batch") out.config.max_batch = std::stoull(val);
    else if (key == "max-queue") out.config.max_queue = std::stoull(val);
    else if (key == "max-wait-us") out.config.max_wait_us = std::stoll(val);
    else if (key == "qps") out.load.qps = std::stod(val);
    else if (key == "requests") out.load.requests = std::stoll(val);
    else if (key == "burst") out.load.burst_factor = std::stod(val);
    else if (key == "burst-period") out.load.burst_period_s = std::stod(val);
    else if (key == "mmap") out.mmap = true;
    else if (key == "deterministic") out.config.deterministic = true;
    else
      TINYADC_CHECK(false, "unknown tenant spec key '" << key << "' in --tenant "
                                                       << spec);
  }
  return out;
}

const std::vector<std::string> kFleetFlags = {
    "tenant", "workers", "deterministic", "mmap", "swap",
    "json",   "requests", "qps"};

/// Multi-tenant serving: registers every --tenant artifact with the fleet,
/// drives the per-tenant open-loop traffic mixes, and optionally hot-swaps
/// one tenant to a new artifact version mid-run.
int cmd_fleet(const Args& args) {
  args.expect_known(kDatasetFlags + kFleetFlags);
  const auto specs_raw = args.get_all("tenant");
  TINYADC_CHECK(!specs_raw.empty(),
                "fleet needs at least one --tenant name=artifact.tadc spec");
  const auto data = load_dataset(args);

  std::vector<TenantSpec> specs;
  specs.reserve(specs_raw.size());
  for (const std::string& raw : specs_raw)
    specs.push_back(parse_tenant_spec(raw, args));

  serve::FleetConfig fc;
  fc.workers = static_cast<int>(args.get_int("workers", 2));
  serve::FleetServer fleet(fc);
  std::vector<serve::TenantLoadSpec> loads;
  for (TenantSpec& spec : specs) {
    const auto t0 = std::chrono::steady_clock::now();
    fleet.add_tenant(spec.config, spec.artifact, spec.mmap);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("tenant %-12s <- %s%s (%.2f ms, prio %d, weight %.2f)\n",
                spec.config.name.c_str(), spec.artifact.c_str(),
                spec.mmap ? " [mapped]" : "", ms, spec.config.priority,
                spec.config.weight);
    spec.load.dataset = &data.test;
    loads.push_back(spec.load);
  }

  // --swap name=path[@frac]: hot-swap `name` to a new artifact once the
  // tenant has served frac (default 0.5) of its request budget — the swap
  // runs under live traffic, off the loadgen threads.
  std::thread swapper;
  std::atomic<bool> traffic_done{false};
  if (args.has("swap")) {
    const std::string swap = args.get("swap", "");
    const std::size_t eq = swap.find('=');
    TINYADC_CHECK(eq != std::string::npos,
                  "--swap expects name=artifact.tadc[@frac]");
    const std::string name = swap.substr(0, eq);
    std::string path = swap.substr(eq + 1);
    double frac = 0.5;
    const std::size_t at = path.find('@');
    if (at != std::string::npos) {
      frac = std::stod(path.substr(at + 1));
      path = path.substr(0, at);
    }
    TINYADC_CHECK(frac >= 0.0 && frac <= 1.0, "--swap frac must be in [0,1]");
    std::uint64_t target = 0;
    bool known = false;
    for (const TenantSpec& spec : specs)
      if (spec.config.name == name) {
        known = true;
        target = static_cast<std::uint64_t>(
            frac * static_cast<double>(spec.load.requests));
      }
    TINYADC_CHECK(known, "--swap tenant '" << name
                                           << "' matches no --tenant spec");
    const bool mmap_load = args.has("mmap");
    swapper = std::thread([&fleet, &traffic_done, name, path, target,
                           mmap_load] {
      try {
        for (;;) {
          // Once the loadgen has drained, stop waiting for the request
          // target (rejections can leave it unreachable) and swap now.
          const bool drained = traffic_done.load();
          const auto fs = fleet.stats();
          bool due = drained;
          for (const auto& t : fs.tenants)
            if (t.name == name && t.stats.requests >= target) due = true;
          if (due) {
            const auto v = fleet.swap_tenant(name, path, mmap_load);
            std::printf("hot-swapped tenant %s -> %s (version %llu)\n",
                        name.c_str(), path.c_str(),
                        static_cast<unsigned long long>(v));
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      } catch (const std::exception& e) {
        // Must not escape the thread (std::terminate): report and leave
        // the tenant on its current version.
        std::fprintf(stderr, "hot-swap of tenant %s failed: %s\n",
                     name.c_str(), e.what());
      }
    });
  }

  auto report = serve::run_fleet_loadgen(fleet, loads);
  traffic_done.store(true);
  if (swapper.joinable()) {
    // Re-snapshot after the swap thread lands so the report shows the
    // post-swap version ordinals (the loadgen may drain first).
    swapper.join();
    report.fleet = fleet.stats();
  }
  fleet.shutdown();

  if (args.has("json")) {
    const std::string path = args.get("json", "1");
    if (path == "1") {
      std::printf("%s\n", report.to_json().c_str());
    } else {
      std::ofstream out(path);
      TINYADC_CHECK(out.good(), "cannot write " << path);
      out << report.to_json() << "\n";
      std::printf("wrote %s\n", path.c_str());
    }
  } else {
    std::printf("%s", report.fleet.to_table().c_str());
    for (const auto& t : report.tenants)
      std::printf("%-12s submitted %lld  completed %lld  rejected %lld  "
                  "qps %.1f  accuracy %.2f%%  digest %llx\n",
                  t.name.c_str(), static_cast<long long>(t.submitted),
                  static_cast<long long>(t.completed),
                  static_cast<long long>(t.rejected), t.achieved_qps,
                  100.0 * t.accuracy,
                  static_cast<unsigned long long>(t.output_digest));
  }
  return 0;
}

int cmd_loadgen(const Args& args) {
  // --tenant routes to the multi-tenant fleet path (same specs as `fleet`).
  if (args.has("tenant")) return cmd_fleet(args);
  args.expect_known(kDatasetFlags + kModelFlags + kMappingFlags + kServeFlags +
                    std::vector<std::string>{"qps"});
  return run_serving(args, args.get_double("qps", 100.0),
                     /*default_requests=*/256);
}

void usage() {
  std::printf(
      "usage: tinyadc <train|prune|map|report|fault|serve|loadgen|fleet> "
      "[--flag value]...\n"
      "common flags  : --net resnet18|resnet50|vgg16  --dataset "
      "cifar10|cifar100|imagenet\n"
      "                --width-mult 0.125  --image-size 8  --xbar 16  --in/"
      "--out ckpt.bin\n"
      "prune flags   : --cp-rate N  --filter-frac F  --shape-frac F  "
      "--include-linear\n"
      "fault flags   : --rate R  --sa0-fraction F  --trials N  --remap\n"
      "serve flags   : --workers N  --max-batch B  --max-wait-us T  "
      "--deterministic\n"
      "                --requests N  --qps Q (loadgen)  --json [path]\n"
      "artifact flags: --save-artifact out.tadc (train|prune|map: write a "
      "deployment\n"
      "                artifact with compiled plans + calibration; --sigma "
      "S for variation)\n"
      "                --artifact out.tadc (serve|loadgen: millisecond "
      "cold-start from\n"
      "                the artifact instead of map+compile+calibrate)\n"
      "                --mmap (with --artifact: zero-copy mapped load with "
      "async\n"
      "                cold-section streaming; bit-identical outputs)\n"
      "fleet flags   : --tenant \"name=a.tadc[,weight=W][,priority=P]"
      "[,max-batch=B]\n"
      "                [,max-queue=Q][,qps=R][,requests=N][,burst=F]\n"
      "                [,burst-period=S][,mmap][,deterministic]\" (repeat "
      "per tenant)\n"
      "                --workers N (shared pool)  --swap name=b.tadc[@frac] "
      "(hot-swap\n"
      "                under traffic)  --deterministic  --json [path]; "
      "loadgen --tenant\n"
      "                routes to the same multi-tenant path\n"
      "unknown flags are an error\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    Args args(argc, argv, 2);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "prune") return cmd_prune(args);
    if (cmd == "map") return cmd_map(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "fault") return cmd_fault(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "loadgen") return cmd_loadgen(args);
    if (cmd == "fleet") return cmd_fleet(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
