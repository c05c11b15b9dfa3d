// google-benchmark microbenchmarks of the performance-critical kernels:
// GEMM, im2col, the CP projection, crossbar mapping and the analog MVM.
// These bound how large a model the training/simulation benches can afford.
//
// Invoked with `--json <path>` (or TINYADC_BENCH_JSON=<path>) the binary
// instead runs a self-timed thread sweep of the parallelized kernels at
// 1/2/N threads (each row: one warm-up call, then the median of five timed
// calls), verifies every output is bit-identical to the 1-thread run (the
// runtime's determinism contract), and writes the timings as JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench_util.hpp"
#include "core/projection.hpp"
#include "fault/evaluate.hpp"
#include "msim/analog_mvm.hpp"
#include "msim/analog_network.hpp"
#include "reference/dense_sim.hpp"
#include "runtime/parallel.hpp"
#include "tensor/check.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace {

using namespace tinyadc;

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(a, false, b, false, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  const auto size = state.range(0);
  Rng rng(2);
  Tensor img = Tensor::randn({16, size, size}, rng);
  ConvGeometry g{16, size, size, 3, 3, 1, 1};
  for (auto _ : state) {
    Tensor cols = im2col(img, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

void BM_CpProjection(benchmark::State& state) {
  const auto rows = state.range(0);
  Rng rng(3);
  std::vector<float> data(static_cast<std::size_t>(rows * 512));
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& v : data) v = rng.normal(0.0F, 1.0F);
    state.ResumeTiming();
    core::project_column_proportional({data.data(), rows, 512}, {128, 128},
                                      8);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_CpProjection)->Arg(128)->Arg(1152)->Arg(4608);

void BM_MapMatrix(benchmark::State& state) {
  const auto rows = state.range(0);
  Rng rng(4);
  Tensor m = Tensor::randn({rows, 512}, rng);
  xbar::MappingConfig cfg;
  for (auto _ : state) {
    auto layer = xbar::map_matrix(m, "bench", cfg);
    benchmark::DoNotOptimize(layer.blocks.data());
  }
}
BENCHMARK(BM_MapMatrix)->Arg(1152)->Arg(4608);

void BM_AnalogMvm(benchmark::State& state) {
  const auto rows = state.range(0);
  Rng rng(5);
  Tensor m = Tensor::randn({rows, 64}, rng);
  xbar::MappingConfig cfg;
  cfg.dims = {128, 128};
  const auto layer = xbar::map_matrix(m, "bench", cfg);
  msim::AnalogLayerSim sim(layer, {});
  std::vector<std::int32_t> x(static_cast<std::size_t>(rows));
  for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform_int(256));
  for (auto _ : state) {
    auto y = sim.mvm(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AnalogMvm)->Arg(128)->Arg(512);

/// A 512×64 matrix CP-projected to `keep` active rows per 128-row crossbar
/// column — the sparsity structure the TinyADC framework itself creates.
Tensor cp_bench_matrix(std::int64_t keep) {
  constexpr std::int64_t rows = 512, cols = 64;
  Rng rng(6);
  std::vector<float> store(static_cast<std::size_t>(rows * cols));
  for (auto& v : store) v = rng.normal(0.0F, 1.0F);
  core::project_column_proportional({store.data(), rows, cols}, {128, 128},
                                    keep);
  Tensor m({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.at(r, c) = store[static_cast<std::size_t>(c * rows + r)];
  return m;
}

/// Analog MVM at CP sparsity l = range(0) of r = 128 crossbar rows.
void BM_AnalogMvmCp(benchmark::State& state) {
  const Tensor m = cp_bench_matrix(state.range(0));
  xbar::MappingConfig cfg;
  cfg.dims = {128, 128};
  const auto layer = xbar::map_matrix(m, "bench", cfg);
  msim::AnalogLayerSim sim(layer, {});
  Rng rng(7);
  std::vector<std::int32_t> x(512);
  for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform_int(256));
  for (auto _ : state) {
    auto y = sim.mvm(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AnalogMvmCp)->ArgName("l")->Arg(16)->Arg(4)->Arg(128);

// ---------------------------------------------------------------------------
// Thread sweep with bit-identity verification (--json / TINYADC_BENCH_JSON).
// ---------------------------------------------------------------------------

using bench::fnv1a;

/// Folds one repetition's digest into a running digest. Order-sensitive,
/// unlike XOR, under which an even number of identical repetitions
/// cancels to 0 and the row would check nothing.
std::uint64_t fold(std::uint64_t h, std::uint64_t digest) {
  return (h ^ digest) * 1099511628211ULL;
}

/// A sweep kernel: does a fixed amount of work and returns a digest of its
/// output bytes. The same kernel is run at each thread count; digests must
/// match the 1-thread run exactly.
struct SweepKernel {
  std::string name;
  std::function<std::uint64_t()> run;
  /// Digest of an independent reference run the kernel must reproduce
  /// (unset: only the across-thread-count identity is checked).
  std::optional<std::uint64_t> expect = std::nullopt;
};

std::vector<SweepKernel> make_sweep_kernels() {
  std::vector<SweepKernel> kernels;

  kernels.push_back({"gemm_256", [] {
    Rng rng(1);
    const Tensor a = Tensor::randn({256, 256}, rng);
    const Tensor b = Tensor::randn({256, 256}, rng);
    Tensor c({256, 256});
    std::uint64_t h = 0;
    for (int rep = 0; rep < 8; ++rep) {
      gemm(a, false, b, false, c);
      h = fold(h, fnv1a(c.data(),
                        sizeof(float) * static_cast<std::size_t>(c.numel())));
    }
    return h;
  }});

  // The random fill is hoisted into a shared template: the serial RNG draw
  // (2.36M normal variates) used to dominate the kernel's time and masked
  // the projection's own scaling. A memcpy restores the input per run.
  {
    auto tmpl = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(4608) * 512);
    Rng rng(3);
    for (auto& v : *tmpl) v = rng.normal(0.0F, 1.0F);
    kernels.push_back({"cp_projection_4608x512", [tmpl] {
      std::vector<float> data(*tmpl);
      core::project_column_proportional({data.data(), 4608, 512}, {128, 128},
                                        8);
      return fnv1a(data.data(), sizeof(float) * data.size());
    }});
  }

  // A dense (uncompressed) 512×64 layer. The fixture (matrix, mapping,
  // plan compilation) is built once outside the timed region, so the row
  // measures its 16 mvm() calls only.
  {
    Rng rng(5);
    const Tensor m = Tensor::randn({512, 64}, rng);
    xbar::MappingConfig cfg;
    cfg.dims = {128, 128};
    auto layer =
        std::make_shared<xbar::MappedLayer>(xbar::map_matrix(m, "bench", cfg));
    auto sim = std::make_shared<msim::AnalogLayerSim>(*layer,
                                                      msim::MsimConfig{});
    auto x = std::make_shared<std::vector<std::int32_t>>(512);
    for (auto& v : *x) v = static_cast<std::int32_t>(rng.uniform_int(256));
    kernels.push_back({"analog_mvm_512", [layer, sim, x] {
      std::uint64_t h = 0;
      for (int rep = 0; rep < 16; ++rep) {
        const auto y = sim->mvm(*x);
        h = fold(h, fnv1a(y.data(), sizeof(y[0]) * y.size()));
      }
      return h;
    }});
  }

  // The acceptance case: analog MVM at CP sparsity l = 16 of r = 128. The
  // fixture (matrix generation, mapping, plan compilation) and every row's
  // expected digest — the dense reference model's output for the same
  // configuration (reference/dense_sim.hpp) — are computed outside the
  // timed region, so these rows measure the executor itself.
  {
    const Tensor m = cp_bench_matrix(16);
    xbar::MappingConfig cfg;
    cfg.dims = {128, 128};
    auto layer =
        std::make_shared<xbar::MappedLayer>(xbar::map_matrix(m, "bench", cfg));
    auto x = std::make_shared<std::vector<std::int32_t>>(512);
    Rng rng(7);
    for (auto& v : *x) v = static_cast<std::int32_t>(rng.uniform_int(256));
    // 16 mvm() calls on a simulator or on the dense reference model.
    const auto sixteen_mvms = [x](auto& sim) {
      std::uint64_t h = 0;
      for (int rep = 0; rep < 16; ++rep) {
        const auto y = sim.mvm(*x);
        h = fold(h, fnv1a(y.data(), sizeof(y[0]) * y.size()));
      }
      return h;
    };

    auto plan_sim = std::make_shared<msim::AnalogLayerSim>(
        *layer, msim::MsimConfig{});
    reference::DenseSim plan_dense(*layer, {}, plan_sim->variation());
    kernels.push_back({"analog_mvm_cp16_plan",
                       [plan_sim, layer, sixteen_mvms] {
                         return sixteen_mvms(*plan_sim);
                       },
                       sixteen_mvms(plan_dense)});

    // The serve path's batched entry point on the same ideal layer: 16
    // mvm_batch calls on 8 samples (the fused sample lanes, one stream walk
    // per 8-sample block), digest-checked against 8 per-sample calls of
    // the dense model per batch.
    auto xs8 = std::make_shared<std::vector<std::int32_t>>(8 * 512);
    for (auto& v : *xs8) v = static_cast<std::int32_t>(rng.uniform_int(256));
    auto b8_sim = std::make_shared<msim::AnalogLayerSim>(*layer,
                                                         msim::MsimConfig{});
    std::uint64_t b8_expect = 0;
    {
      reference::DenseSim ref(*layer, {}, b8_sim->variation());
      std::vector<std::int64_t> ys;
      for (int s = 0; s < 8; ++s) {
        const std::vector<std::int32_t> x(xs8->begin() + s * 512,
                                          xs8->begin() + (s + 1) * 512);
        const auto y = ref.mvm(x);
        ys.insert(ys.end(), y.begin(), y.end());
      }
      for (int rep = 0; rep < 16; ++rep)
        b8_expect =
            fold(b8_expect, fnv1a(ys.data(), sizeof(ys[0]) * ys.size()));
    }
    const auto sixteen_batches = [b8_sim, layer, xs8] {
      std::uint64_t h = 0;
      for (int rep = 0; rep < 16; ++rep) {
        const auto y = b8_sim->mvm_batch(*xs8, 8);
        h = fold(h, fnv1a(y.data(), sizeof(y[0]) * y.size()));
      }
      return h;
    };
    kernels.push_back(
        {"analog_mvm_cp16_fused_b8", sixteen_batches, b8_expect});

    // The same ideal layer on an ADC two bits under Eq. 1, the
    // undersized-ADC studies' setting: the plan may clip, so it runs the
    // general lanes with unit variation and divisors. Digest-checked
    // against the dense model of the same configuration.
    msim::MsimConfig clip_cfg;
    clip_cfg.adc_bits_override = layer->required_adc_bits() - 2;
    auto clip_sim = std::make_shared<msim::AnalogLayerSim>(*layer, clip_cfg);
    reference::DenseSim clip_dense(*layer, clip_cfg, clip_sim->variation());
    const std::uint64_t clip_expect = sixteen_mvms(clip_dense);
    TINYADC_CHECK(clip_dense.stats().adc_clip_events > 0,
                  "analog_mvm_cp16_clip must exercise a clipping ADC");
    kernels.push_back({"analog_mvm_cp16_clip",
                       [clip_sim, layer, sixteen_mvms] {
                         return sixteen_mvms(*clip_sim);
                       },
                       clip_expect});

    // The same layer as a programmed chip (sigma = 0.1 conductance
    // variation): the plan runs the non-ideal general path, which must
    // reproduce the dense model of the same variation draw bit for bit.
    msim::MsimConfig var_cfg;
    var_cfg.variation_sigma = 0.1;
    auto var_sim = std::make_shared<msim::AnalogLayerSim>(*layer, var_cfg);
    reference::DenseSim var_dense(*layer, var_cfg, var_sim->variation());
    kernels.push_back({"analog_mvm_cp16_general",
                       [var_sim, layer, sixteen_mvms] {
                         return sixteen_mvms(*var_sim);
                       },
                       sixteen_mvms(var_dense)});

    // The same chip behind a conv hook: 16 mvm_real_columns calls, each on
    // 16 post-ReLU-like columns (about two thirds zero codes, most of the
    // rest small, a few past full scale), where the general path's
    // zero-code skip and dead-cycle bound do work — uniform codes are
    // their worst case. Sixteen calls rather than one keep a single host
    // descheduling from dominating the row. Each call is digest-checked
    // against 16 per-sample mvm_real calls on a separate sim.
    xbar::QuantParams relu_q;
    relu_q.bits = 8;
    relu_q.scale = 0.043F;
    auto relu_cols = std::make_shared<Tensor>(Shape{512, 16});
    for (std::int64_t i = 0; i < relu_cols->numel(); ++i) {
      const double u = rng.uniform();
      relu_cols->data()[i] = u < 0.65    ? 0.0F
                             : u < 0.975 ? rng.uniform(0.0F, 0.7F)
                                         : 16.0F;
    }
    std::uint64_t relu_expect = 0;
    {
      msim::AnalogLayerSim ref(*layer, var_cfg);
      Tensor ys({layer->cols, 16});
      for (std::int64_t s = 0; s < 16; ++s) {
        std::vector<float> x(512);
        for (std::int64_t r = 0; r < 512; ++r)
          x[static_cast<std::size_t>(r)] = relu_cols->at(r, s);
        const auto y = ref.mvm_real(x, relu_q);
        for (std::int64_t c = 0; c < layer->cols; ++c)
          ys.at(c, s) = y[static_cast<std::size_t>(c)];
      }
      const std::uint64_t once = fnv1a(
          ys.data(), sizeof(float) * static_cast<std::size_t>(ys.numel()));
      for (int rep = 0; rep < 16; ++rep) relu_expect = fold(relu_expect, once);
    }
    auto relu_sim = std::make_shared<msim::AnalogLayerSim>(*layer, var_cfg);
    kernels.push_back(
        {"analog_mvm_cp16_general_relu",
         [relu_sim, layer, relu_cols, relu_q] {
           std::uint64_t h = 0;
           for (int rep = 0; rep < 16; ++rep) {
             const Tensor y = relu_sim->mvm_real_columns(
                 *relu_cols, relu_q, /*signed_input=*/false);
             h = fold(h, fnv1a(y.data(),
                               sizeof(float) *
                                   static_cast<std::size_t>(y.numel())));
           }
           return h;
         },
         relu_expect});
  }

  return kernels;
}

// Timed calls per (kernel, threads) row; the row reports their median.
constexpr int kTimedRuns = 5;

int run_thread_sweep(const std::string& json_path) {
  // Fault Monte-Carlo fixtures are built once: evaluate_under_faults leaves
  // the model's weights untouched (trials run on clones).
  data::DatasetPair ds = bench::bench_dataset("cifar10");
  auto model = bench::bench_model("resnet18", 10);
  const xbar::MappingConfig mapping = bench::paper_mapping();

  auto kernels = make_sweep_kernels();
  kernels.push_back({"fault_run_trials_4", [&] {
    fault::FaultSpec spec;
    const fault::FaultTrialResult r =
        fault::evaluate_under_faults(*model, ds.test, mapping, spec, 4);
    const double vals[3] = {r.clean_accuracy, r.mean_accuracy,
                            r.min_accuracy};
    return fnv1a(vals, sizeof(vals));
  }});

  // Activation calibration of the bench model on 128 images: every conv
  // hook scans its patch matrix once and declines, so the row times the
  // float forward with its plain conv GEMMs plus the range scans.
  // Mapping and plan compilation happen once, outside the timed calls; the
  // digest is the calibrated quantizer scales and signed-input flags.
  data::SyntheticSpec calib_spec = data::tier_by_name("cifar10");
  calib_spec.image_size = 8;
  calib_spec.train_per_class = 13;
  const data::Dataset calib_images = data::make_synthetic(calib_spec).train;
  auto calib_model = bench::bench_model("resnet18", 10);
  const xbar::MappedNetwork calib_net = xbar::map_model(*calib_model, mapping);
  msim::AnalogNetwork calib_chip(*calib_model, calib_net, msim::MsimConfig{});
  kernels.push_back({"calibrate_resnet18_128", [&] {
    calib_chip.calibrate(calib_images, 128);
    std::vector<float> scales;
    for (const auto& q : calib_chip.activation_quant())
      scales.push_back(q.scale);
    const std::vector<char> flags(calib_chip.signed_input().begin(),
                                  calib_chip.signed_input().end());
    return fold(fnv1a(scales.data(), sizeof(float) * scales.size()),
                fnv1a(flags.data(), flags.size()));
  }});

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> thread_counts{1, 2,
                                 static_cast<int>(hw > 4 ? hw : 4U)};

  std::vector<bench::KernelTiming> rows;
  bool all_identical = true;
  for (const auto& kernel : kernels) {
    std::uint64_t baseline = 0;
    for (const int threads : thread_counts) {
      runtime::set_thread_count(threads);
      // One warm-up call, then the median of kTimedRuns timed calls: one
      // sample on a shared host swings by more than the CI gate allows.
      const std::uint64_t digest = kernel.run();
      if (threads == 1) baseline = digest;
      bool identical = digest == baseline;
      std::vector<double> ms;
      for (int run = 0; run < kTimedRuns; ++run) {
        const auto t0 = std::chrono::steady_clock::now();
        identical = kernel.run() == digest && identical;
        const auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      std::sort(ms.begin(), ms.end());
      bench::KernelTiming row;
      row.kernel = kernel.name;
      row.threads = threads;
      row.ms = ms[ms.size() / 2];
      row.identical = identical;
      all_identical = all_identical && row.identical;
      std::printf("%-24s threads=%-2d %10.3f ms  %s\n", row.kernel.c_str(),
                  row.threads, row.ms,
                  row.identical ? "bit-identical" : "MISMATCH");
      rows.push_back(row);
    }
    if (kernel.expect && baseline != *kernel.expect) {
      std::printf("%-24s digest DIVERGES from its reference\n",
                  kernel.name.c_str());
      all_identical = false;
    }
  }
  runtime::set_thread_count(0);  // restore default resolution

  if (!bench::write_bench_json(json_path, "bench_kernels", rows)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = tinyadc::bench::bench_json_path(argc, argv);
  if (!json_path.empty()) return run_thread_sweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
