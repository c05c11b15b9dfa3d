// Sparsity-packed execution plans: the packed O(l)-per-column mvm path must
// reproduce the dense O(r) row-scan model (reference::DenseSim, the test
// oracle) bit for bit — outputs AND ADC statistics — for every
// non-ideality combination, CP rate and thread count. Plus the
// shift-and-add int64 overflow guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "core/projection.hpp"
#include "data/synthetic.hpp"
#include "msim/analog_mvm.hpp"
#include "msim/analog_network.hpp"
#include "nn/models.hpp"
#include "reference/dense_sim.hpp"
#include "runtime/parallel.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::msim {
namespace {

using reference::DenseSim;

/// A 256×32 matrix CP-projected to `keep` active rows per 128-row crossbar
/// column (keep == 128 leaves the matrix dense). One column is zeroed
/// entirely so empty conversion pairs are always exercised.
Tensor cp_matrix(std::int64_t keep, std::uint64_t seed) {
  constexpr std::int64_t rows = 256, cols = 32;
  tinyadc::Rng rng(seed);
  // Generate in weight-storage (column-major) layout, CP-project there,
  // then transpose into the row-major matrix the mapper consumes.
  std::vector<float> store(static_cast<std::size_t>(rows * cols));
  for (auto& v : store) v = rng.normal(0.0F, 1.0F);
  core::project_column_proportional({store.data(), rows, cols}, {128, 128},
                                    keep);
  Tensor m({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.at(r, c) = store[static_cast<std::size_t>(c * rows + r)];
  for (std::int64_t r = 0; r < rows; ++r) m.at(r, 5) = 0.0F;
  return m;
}

std::vector<std::int32_t> random_codes(std::int64_t n, int bits,
                                       std::uint64_t seed) {
  tinyadc::Rng rng(seed);
  std::vector<std::int32_t> x(static_cast<std::size_t>(n));
  for (auto& v : x)
    v = static_cast<std::int32_t>(rng.uniform_int(1ULL << bits));
  return x;
}

/// Post-ReLU-like activation codes: about two thirds zeros, most of the
/// rest small (only the low half of the bits in use) and about one in
/// forty at full scale. Uniform codes are almost never zero and OR to
/// full width in every segment; these reach the general path's zero-code
/// skip, its all-zero segments and its dead DAC cycles.
std::vector<std::int32_t> relu_codes(std::int64_t n, int bits,
                                     std::uint64_t seed) {
  tinyadc::Rng rng(seed);
  const std::int32_t full = (1 << bits) - 1;
  const std::uint64_t small = std::uint64_t{1} << std::max(1, bits / 2);
  std::vector<std::int32_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) {
    const double u = rng.uniform();
    v = u < 0.65    ? 0
        : u < 0.975 ? 1 + static_cast<std::int32_t>(rng.uniform_int(small - 1))
                    : full;
  }
  return x;
}

/// Golden bit-exactness sweep: CP sparsity l ∈ {4, 16, 128} × thread count
/// ∈ {1, 4}, each under four non-ideality settings (ideal, variation,
/// IR drop, both).
class PlanExactness
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {
 protected:
  void TearDown() override { runtime::set_thread_count(0); }
};

TEST_P(PlanExactness, PackedMatchesDenseBitForBit) {
  const auto [keep, threads] = GetParam();
  runtime::set_thread_count(threads);
  const Tensor m = cp_matrix(keep, static_cast<std::uint64_t>(keep));
  xbar::MappingConfig map_cfg;  // paper config: 128×128, 8/8-bit, 1-bit DAC
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  ASSERT_LE(layer.max_active_rows(), keep);

  MsimConfig variants[4];
  variants[1].variation_sigma = 0.1;
  variants[2].ir_drop_alpha = 0.3;
  variants[3].variation_sigma = 0.1;
  variants[3].ir_drop_alpha = 0.3;
  for (MsimConfig cfg : variants) {
    AnalogLayerSim packed(layer, cfg);
    DenseSim dense(layer, cfg, packed.variation());
    for (std::uint64_t seed : {7ULL, 8ULL}) {
      const auto x = random_codes(layer.rows, map_cfg.input_bits, seed);
      EXPECT_EQ(packed.mvm(x), dense.mvm(x))
          << "keep=" << keep << " threads=" << threads
          << " sigma=" << cfg.variation_sigma
          << " alpha=" << cfg.ir_drop_alpha;
    }
    EXPECT_EQ(packed.stats().adc_conversions, dense.stats().adc_conversions);
    EXPECT_EQ(packed.stats().adc_clip_events, dense.stats().adc_clip_events);
    EXPECT_EQ(packed.stats().dac_cycles, dense.stats().dac_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndThreads, PlanExactness,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 128),
                       ::testing::Values(1, 4)));

TEST(PlanExactness, MultiBitDacMatchesDense) {
  const Tensor m = cp_matrix(16, 99);
  xbar::MappingConfig map_cfg;
  map_cfg.dac_bits = 2;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  AnalogLayerSim packed(layer, {});
  DenseSim dense(layer, {}, packed.variation());
  const auto x = random_codes(layer.rows, map_cfg.input_bits, 11);
  EXPECT_EQ(packed.mvm(x), dense.mvm(x));
  EXPECT_EQ(packed.stats().adc_conversions, dense.stats().adc_conversions);
}

TEST(PlanExactness, UnderProvisionedAdcClipsIdentically) {
  // Clipping paths must agree too: force saturation with a 2-bit ADC.
  const Tensor m = cp_matrix(128, 42);
  const auto layer = xbar::map_matrix(m, "l", xbar::MappingConfig{});
  MsimConfig cfg;
  cfg.adc_bits_override = 2;
  AnalogLayerSim packed(layer, cfg);
  DenseSim dense(layer, cfg, packed.variation());
  std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 255);
  EXPECT_EQ(packed.mvm(x), dense.mvm(x));
  EXPECT_GT(packed.stats().adc_clip_events, 0);
  EXPECT_EQ(packed.stats().adc_clip_events, dense.stats().adc_clip_events);
}

TEST(OverflowGuard, RejectsAccumulatorOverflow) {
  // 15 one-bit slices × 32 one-bit DAC cycles × a 24-bit ADC cannot fit the
  // int64 shift-and-add accumulator — construction must refuse instead of
  // silently wrapping `acc += code << shift`.
  tinyadc::Rng rng(1);
  Tensor m = Tensor::randn({4, 4}, rng);
  xbar::MappingConfig map_cfg;
  map_cfg.dims = {8, 8};
  map_cfg.weight_bits = 16;
  map_cfg.cell_bits = 1;
  map_cfg.input_bits = 32;
  map_cfg.dac_bits = 1;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  MsimConfig cfg;
  cfg.adc_bits_override = 24;
  EXPECT_THROW(AnalogLayerSim(layer, cfg), tinyadc::CheckError);
}

/// Whole-network evaluation must not depend on how the test set is
/// chunked: accuracy and the summed ADC counters of a calibrated
/// AnalogNetwork are identical at batch sizes 1, 7 and 16 — per-sample
/// analog MVMs and per-sample digital layers make each image's path
/// independent of its batch neighbours.
TEST(BatchInvariance, EvaluateIndependentOfBatchSize) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  const auto model = nn::resnet18(mc);

  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_size = 8;
  spec.train_per_class = 8;
  spec.test_per_class = 6;
  spec.seed = 17;
  const auto data = data::make_synthetic(spec);

  xbar::MappingConfig map_cfg;
  map_cfg.dims = {16, 16};
  const auto net = xbar::map_model(*model, map_cfg);

  double ref_acc = 0.0;
  MsimStats ref;
  bool first = true;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{16}}) {
    // Fresh sims (zero counters) with identical calibration per run.
    AnalogNetwork analog(*model, net, MsimConfig{});
    analog.calibrate(data.train, 8);
    const double acc = analog.evaluate(data.test, batch);
    MsimStats total;
    for (const auto& sim : analog.sims()) {
      const MsimStats s = sim->stats_snapshot();
      total.adc_conversions += s.adc_conversions;
      total.adc_clip_events += s.adc_clip_events;
      total.dac_cycles += s.dac_cycles;
    }
    if (first) {
      ref_acc = acc;
      ref = total;
      first = false;
      EXPECT_GT(total.adc_conversions, 0);
      EXPECT_GT(total.dac_cycles, 0);
    } else {
      EXPECT_DOUBLE_EQ(acc, ref_acc) << "batch=" << batch;
      EXPECT_EQ(total.adc_conversions, ref.adc_conversions)
          << "batch=" << batch;
      EXPECT_EQ(total.adc_clip_events, ref.adc_clip_events)
          << "batch=" << batch;
      EXPECT_EQ(total.dac_cycles, ref.dac_cycles) << "batch=" << batch;
    }
  }
}

/// Both execution paths — fused and general — must reproduce the dense
/// reference bit for bit (outputs AND ADC counters) for every CP rate,
/// thread count and non-ideality combination. The path is a function of
/// the plan: the ideal, Eq. 1-sized variant runs fused; the non-ideal
/// variants and the ideal variant on a 3-bit ADC (which must clip) run the
/// general lanes.
class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {
 protected:
  void TearDown() override { runtime::set_thread_count(0); }
};

TEST_P(KernelEquivalence, EveryPathMatchesDenseBitForBit) {
  const auto [keep, threads] = GetParam();
  runtime::set_thread_count(threads);
  const Tensor m = cp_matrix(keep, static_cast<std::uint64_t>(keep) + 1);
  xbar::MappingConfig map_cfg;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);

  MsimConfig variants[5];
  variants[1].variation_sigma = 0.1;
  variants[2].ir_drop_alpha = 0.3;
  variants[3].variation_sigma = 0.1;
  variants[3].ir_drop_alpha = 0.3;
  variants[4].adc_bits_override = 3;
  for (const MsimConfig& cfg : variants) {
    AnalogLayerSim sim(layer, cfg);
    DenseSim dense(layer, cfg, sim.variation());
    const auto x = random_codes(layer.rows, map_cfg.input_bits, 21);
    const auto xr = relu_codes(layer.rows, map_cfg.input_bits, 22);
    for (const auto* in : {&x, &xr}) {
      EXPECT_EQ(sim.mvm(*in), dense.mvm(*in))
          << "keep=" << keep << " threads=" << threads
          << " sigma=" << cfg.variation_sigma
          << " alpha=" << cfg.ir_drop_alpha
          << " adc=" << cfg.adc_bits_override
          << (in == &xr ? " post-ReLU" : " uniform");
    }
    EXPECT_EQ(sim.stats().adc_conversions, dense.stats().adc_conversions);
    EXPECT_EQ(sim.stats().adc_clip_events, dense.stats().adc_clip_events);
    EXPECT_EQ(sim.stats().dac_cycles, dense.stats().dac_cycles);
    if (cfg.adc_bits_override >= 0) {
      EXPECT_GT(sim.stats().adc_clip_events, 0) << "keep=" << keep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndThreads, KernelEquivalence,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 128),
                       ::testing::Values(1, 4)));

TEST(KernelEquivalence, MultiBitDacClippingMatchesDense) {
  // An ideal 2-bit-DAC plan whose ADC may clip runs the general lanes;
  // it must match dense at 1 and 4 threads.
  const Tensor m = cp_matrix(16, 99);
  xbar::MappingConfig map_cfg;
  map_cfg.dac_bits = 2;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  MsimConfig cfg;
  cfg.adc_bits_override = layer.required_adc_bits() - 2;
  const auto x = random_codes(layer.rows, map_cfg.input_bits, 31);
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    AnalogLayerSim sim(layer, cfg);
    DenseSim dense(layer, cfg, sim.variation());
    EXPECT_EQ(sim.mvm(x), dense.mvm(x)) << "threads=" << threads;
    EXPECT_EQ(sim.stats().adc_conversions, dense.stats().adc_conversions);
    EXPECT_EQ(sim.stats().adc_clip_events, dense.stats().adc_clip_events);
    EXPECT_EQ(sim.stats().dac_cycles, dense.stats().dac_cycles);
    EXPECT_GT(sim.stats().adc_clip_events, 0) << "threads=" << threads;
  }
  runtime::set_thread_count(0);
}

TEST(KernelEquivalence, UnderProvisionedAdcClipsIdentically) {
  // A 2-bit ADC saturates constantly: the fused path must disqualify
  // itself (its predicate requires clip-free conversion) and the general
  // lanes must reproduce the dense clipping pattern exactly.
  const Tensor m = cp_matrix(128, 42);
  const auto layer = xbar::map_matrix(m, "l", xbar::MappingConfig{});
  MsimConfig cfg;
  cfg.adc_bits_override = 2;
  std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 255);
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    AnalogLayerSim sim(layer, cfg);
    DenseSim dense(layer, cfg, sim.variation());
    const auto y_ref = dense.mvm(x);
    EXPECT_GT(dense.stats().adc_clip_events, 0);
    EXPECT_EQ(sim.mvm(x), y_ref) << "threads=" << threads;
    EXPECT_EQ(sim.stats().adc_clip_events, dense.stats().adc_clip_events)
        << "threads=" << threads;
    EXPECT_EQ(sim.stats().adc_conversions, dense.stats().adc_conversions);
    EXPECT_EQ(sim.stats().dac_cycles, dense.stats().dac_cycles);
  }
  runtime::set_thread_count(0);
}

TEST(KernelEquivalence, ZeroBitAdcsDegenerateToZero) {
  // bits == 0 ADCs must output zeros without counting clips: a fully
  // pruned mapping (full_scale == 0 passes the fused predicate) and a
  // live layer forced to a 0-bit ADC (the general lanes), both against
  // the dense scan.
  const Tensor pruned({16, 4});
  const Tensor live = cp_matrix(16, 43);
  for (const Tensor* m : {&pruned, &live}) {
    const auto layer = xbar::map_matrix(*m, "l", xbar::MappingConfig{});
    MsimConfig cfg;
    if (m == &live) cfg.adc_bits_override = 0;
    std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 200);
    for (const int threads : {1, 4}) {
      runtime::set_thread_count(threads);
      AnalogLayerSim sim(layer, cfg);
      DenseSim dense(layer, cfg, sim.variation());
      const auto y = sim.mvm(x);
      for (const auto v : y) EXPECT_EQ(v, 0);
      EXPECT_EQ(y, dense.mvm(x));
      EXPECT_EQ(sim.stats().adc_conversions, dense.stats().adc_conversions);
      EXPECT_EQ(sim.stats().adc_clip_events, 0);
      EXPECT_EQ(sim.stats().dac_cycles, dense.stats().dac_cycles);
    }
  }
  runtime::set_thread_count(0);
}

/// The batched entry points must be indistinguishable from per-sample
/// calls, and the per-sample calls from the dense reference: outputs, ADC
/// counters and DAC cycle counts, on both paths (the ideal Eq. 1 plan runs
/// the fused lanes; variation and an ideal plan whose ADC must clip run
/// the general lanes), for the integer API and both real-domain input
/// modes.
class BatchApiEquivalence : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { runtime::set_thread_count(0); }
};

TEST_P(BatchApiEquivalence, BatchedMatchesPerSample) {
  runtime::set_thread_count(GetParam());
  const Tensor m = cp_matrix(16, 5);
  xbar::MappingConfig map_cfg;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  constexpr std::int64_t kBatch = 5;

  MsimConfig variants[3];
  variants[1].variation_sigma = 0.1;  // forces the non-fused batch fallback
  variants[2].adc_bits_override = 3;
  for (const MsimConfig& cfg : variants) {
    AnalogLayerSim batched(layer, cfg);
    AnalogLayerSim serial(layer, cfg);
    DenseSim dense(layer, cfg, serial.variation());
    const std::string what = "sigma=" + std::to_string(cfg.variation_sigma) +
                             " adc=" + std::to_string(cfg.adc_bits_override);

    // Integer API.
    std::vector<std::int32_t> xs;
    for (std::int64_t s = 0; s < kBatch; ++s) {
      const auto x = random_codes(layer.rows, map_cfg.input_bits,
                                  100 + static_cast<std::uint64_t>(s));
      xs.insert(xs.end(), x.begin(), x.end());
    }
    const auto yb = batched.mvm_batch(xs, kBatch);
    ASSERT_EQ(yb.size(), static_cast<std::size_t>(kBatch * layer.cols));
    for (std::int64_t s = 0; s < kBatch; ++s) {
      const std::vector<std::int32_t> x(
          xs.begin() + s * layer.rows, xs.begin() + (s + 1) * layer.rows);
      const auto y = serial.mvm(x);
      const std::vector<std::int64_t> row(yb.begin() + s * layer.cols,
                                          yb.begin() + (s + 1) * layer.cols);
      EXPECT_EQ(row, y) << "sample " << s << " " << what;
      EXPECT_EQ(y, dense.mvm(x)) << "sample " << s << " " << what;
    }
    EXPECT_EQ(batched.stats().adc_conversions,
              serial.stats().adc_conversions);
    EXPECT_EQ(batched.stats().adc_clip_events,
              serial.stats().adc_clip_events);
    EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);

    // Real-domain API, unsigned and signed (two-phase split).
    xbar::QuantParams q;
    q.bits = map_cfg.input_bits;
    q.scale = 0.043F;
    tinyadc::Rng rng(7);
    std::vector<float> xr(static_cast<std::size_t>(kBatch * layer.rows));
    for (auto& v : xr) v = rng.normal(0.0F, 2.0F);
    for (const bool signed_input : {false, true}) {
      std::vector<float> xin = xr;
      if (!signed_input)
        for (auto& v : xin) v = v < 0.0F ? -v : v;  // post-ReLU domain
      const auto yb_real =
          batched.mvm_real_batch(xin, kBatch, q, signed_input);
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const std::vector<float> x(xin.begin() + s * layer.rows,
                                   xin.begin() + (s + 1) * layer.rows);
        const auto y = signed_input ? serial.mvm_real_signed(x, q)
                                    : serial.mvm_real(x, q);
        const std::vector<float> row(
            yb_real.begin() + s * layer.cols,
            yb_real.begin() + (s + 1) * layer.cols);
        EXPECT_EQ(row, y) << "signed=" << signed_input << " sample " << s;
        EXPECT_EQ(y, signed_input ? dense.mvm_real_signed(x, q)
                                  : dense.mvm_real(x, q))
            << "signed=" << signed_input << " sample " << s << " " << what;
      }
    }
    EXPECT_EQ(batched.stats().adc_conversions,
              serial.stats().adc_conversions);
    EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);
    EXPECT_EQ(batched.stats().adc_clip_events,
              serial.stats().adc_clip_events);
    EXPECT_EQ(serial.stats().adc_conversions, dense.stats().adc_conversions);
    EXPECT_EQ(serial.stats().adc_clip_events, dense.stats().adc_clip_events);
    EXPECT_EQ(serial.stats().dac_cycles, dense.stats().dac_cycles);
    if (cfg.adc_bits_override >= 0) {
      EXPECT_GT(batched.stats().adc_clip_events, 0) << what;
    }
  }
}

/// The fused batch runs samples in blocks of 8, 4 and 1 lanes: batch sizes
/// cover every block width and remainder. The 16-bit mapping's fused
/// partials exceed int32, so its blocks run the int64 lanes; the 8-bit
/// mapping's fit int32. Variation runs the non-fused fallback. Each case
/// matches per-sample mvm() calls (outputs and all counters) and, on the
/// ideal datapath, the exact integer reference; the column entry point
/// matches per-sample mvm_real / mvm_real_signed calls.
TEST_P(BatchApiEquivalence, EveryBlockWidthMatchesPerSample) {
  runtime::set_thread_count(GetParam());
  const Tensor m = cp_matrix(16, 5);
  xbar::MappingConfig narrow_map;
  xbar::MappingConfig wide_map;
  wide_map.input_bits = 16;
  wide_map.weight_bits = 16;
  for (const xbar::MappingConfig& map_cfg : {narrow_map, wide_map}) {
    const auto layer = xbar::map_matrix(m, "l", map_cfg);
    for (const double sigma : {0.0, 0.1}) {
      MsimConfig cfg;
      cfg.variation_sigma = sigma;
      for (const std::int64_t batch : {1, 2, 3, 4, 5, 8, 9, 17}) {
        AnalogLayerSim batched(layer, cfg);
        AnalogLayerSim serial(layer, cfg);
        std::vector<std::int32_t> xs;
        for (std::int64_t s = 0; s < batch; ++s) {
          const auto x = random_codes(layer.rows, map_cfg.input_bits,
                                      300 + static_cast<std::uint64_t>(s));
          xs.insert(xs.end(), x.begin(), x.end());
        }
        const auto yb = batched.mvm_batch(xs, batch);
        ASSERT_EQ(yb.size(), static_cast<std::size_t>(batch * layer.cols));
        std::int64_t largest = 0;
        for (std::int64_t s = 0; s < batch; ++s) {
          const std::vector<std::int32_t> x(
              xs.begin() + s * layer.rows, xs.begin() + (s + 1) * layer.rows);
          const std::vector<std::int64_t> row(
              yb.begin() + s * layer.cols, yb.begin() + (s + 1) * layer.cols);
          EXPECT_EQ(row, serial.mvm(x))
              << "input_bits=" << map_cfg.input_bits << " sigma=" << sigma
              << " batch=" << batch << " sample " << s;
          if (sigma == 0.0) {
            EXPECT_EQ(row, xbar::reference_mvm(layer, x))
                << "input_bits=" << map_cfg.input_bits << " batch=" << batch
                << " sample " << s;
          }
          for (const auto v : row) largest = std::max(largest, v < 0 ? -v : v);
        }
        if (map_cfg.input_bits == 16) {
          EXPECT_GT(largest, std::int64_t{INT32_MAX})
              << "the wide mapping must need 64-bit lanes";
        }
        EXPECT_EQ(batched.stats().adc_conversions,
                  serial.stats().adc_conversions);
        EXPECT_EQ(batched.stats().adc_clip_events,
                  serial.stats().adc_clip_events);
        EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);

        // The column entry point (a conv's patch matrix, one sample per
        // column) against per-sample real-domain calls.
        xbar::QuantParams q;
        q.bits = map_cfg.input_bits;
        q.scale = 0.043F;
        tinyadc::Rng rng(11);
        Tensor xcols({layer.rows, batch});
        for (std::int64_t i = 0; i < xcols.numel(); ++i)
          xcols.data()[i] = rng.normal(0.0F, 2.0F);
        for (const bool signed_input : {false, true}) {
          Tensor xin = xcols.clone();
          if (!signed_input)
            for (std::int64_t i = 0; i < xin.numel(); ++i)
              xin.data()[i] = std::fabs(xin.data()[i]);
          const Tensor yc = batched.mvm_real_columns(xin, q, signed_input);
          ASSERT_EQ(yc.shape(), (Shape{layer.cols, batch}));
          for (std::int64_t s = 0; s < batch; ++s) {
            std::vector<float> x(static_cast<std::size_t>(layer.rows));
            for (std::int64_t r = 0; r < layer.rows; ++r)
              x[static_cast<std::size_t>(r)] = xin.at(r, s);
            const auto y = signed_input ? serial.mvm_real_signed(x, q)
                                        : serial.mvm_real(x, q);
            for (std::int64_t c = 0; c < layer.cols; ++c)
              EXPECT_EQ(yc.at(c, s), y[static_cast<std::size_t>(c)])
                  << "columns, signed=" << signed_input << " sigma=" << sigma
                  << " batch=" << batch << " sample " << s;
          }
        }
        EXPECT_EQ(batched.stats().adc_conversions,
                  serial.stats().adc_conversions);
        EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchApiEquivalence, ::testing::Values(1,
                                                                         4));

/// A session forward of B images gives byte-identical logits to B batch-1
/// forwards: the whole batch goes through each analog layer in one call,
/// and every image's path stays independent of its neighbours. Checked on
/// the ideal (fused) and the σ = 0.1 (general) datapaths, with the signed
/// first layer, at 1 and 4 threads.
TEST(SessionBatchIdentity, BatchOfBEqualsBSingleImageForwards) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  const auto model = nn::resnet18(mc);

  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_size = 8;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  spec.seed = 23;
  const auto data = data::make_synthetic(spec);

  xbar::MappingConfig map_cfg;
  map_cfg.dims = {16, 16};
  const auto net = xbar::map_model(*model, map_cfg);

  for (const double sigma : {0.0, 0.1}) {
    MsimConfig cfg;
    cfg.variation_sigma = sigma;
    AnalogNetwork analog(*model, net, cfg);
    analog.calibrate(data.train, 8);
    ASSERT_TRUE(analog.signed_input()[0])
        << "first conv must see signed pixels";
    for (const int threads : {1, 4}) {
      runtime::set_thread_count(threads);
      AnalogSession session(analog);
      for (const std::size_t b : {2, 5, 9, 16}) {
        std::vector<std::size_t> idx(b);
        for (std::size_t i = 0; i < b; ++i) idx[i] = i;
        const Tensor logits = session.forward(data.test.subset(idx).images);
        const std::int64_t k = logits.dim(1);
        for (std::size_t i = 0; i < b; ++i) {
          const Tensor one = session.forward(data.test.subset({i}).images);
          ASSERT_EQ(one.numel(), k);
          const float* row = logits.data() + static_cast<std::int64_t>(i) * k;
          EXPECT_EQ(std::memcmp(one.data(), row,
                                static_cast<std::size_t>(k) * sizeof(float)),
                    0)
              << "sigma=" << sigma << " threads=" << threads << " B=" << b
              << " image " << i;
        }
      }
    }
    runtime::set_thread_count(0);
  }
}

/// The non-ideal general path against the dense reference beyond the
/// paper's 1-bit DAC: multi-bit DACs (where the IR-drop divide stays per
/// cycle), clipping ADCs, other cell widths and the batched entry point.
/// Every case compares outputs AND all three counters.
void expect_general_matches_dense(const xbar::MappedLayer& layer,
                                  const MsimConfig& cfg, int input_bits,
                                  const std::string& what) {
  AnalogLayerSim packed(layer, cfg);
  DenseSim dense(layer, cfg, packed.variation());
  for (std::uint64_t seed : {51ULL, 52ULL, 53ULL}) {
    const auto x = random_codes(layer.rows, input_bits, seed);
    EXPECT_EQ(packed.mvm(x), dense.mvm(x)) << what << " seed=" << seed;
  }
  for (std::uint64_t seed : {54ULL, 55ULL, 56ULL}) {
    const auto x = relu_codes(layer.rows, input_bits, seed);
    EXPECT_EQ(packed.mvm(x), dense.mvm(x))
        << what << " post-ReLU seed=" << seed;
  }
  std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 0);
  EXPECT_EQ(packed.mvm(x), dense.mvm(x)) << what << " all-zero input";
  x[static_cast<std::size_t>(layer.rows / 3)] = (1 << input_bits) - 1;
  EXPECT_EQ(packed.mvm(x), dense.mvm(x)) << what << " one full-scale code";
  EXPECT_EQ(packed.stats().adc_conversions, dense.stats().adc_conversions)
      << what;
  EXPECT_EQ(packed.stats().adc_clip_events, dense.stats().adc_clip_events)
      << what;
  EXPECT_EQ(packed.stats().dac_cycles, dense.stats().dac_cycles) << what;
}

MsimConfig nonideal(double sigma, double alpha) {
  MsimConfig cfg;
  cfg.variation_sigma = sigma;
  cfg.ir_drop_alpha = alpha;
  return cfg;
}

TEST(GeneralPath, MultiBitDacMatchesDenseUnderNonIdealities) {
  for (const int dac_bits : {2, 4}) {
    for (const std::int64_t keep : {16, 128}) {
      const Tensor m = cp_matrix(keep, 200 + static_cast<std::uint64_t>(keep));
      xbar::MappingConfig map_cfg;
      map_cfg.dac_bits = dac_bits;
      const auto layer = xbar::map_matrix(m, "l", map_cfg);
      for (const auto& [sigma, alpha] :
           {std::pair{0.1, 0.0}, std::pair{0.0, 0.3}, std::pair{0.1, 0.3}}) {
        for (const int threads : {1, 4}) {
          runtime::set_thread_count(threads);
          expect_general_matches_dense(
              layer, nonideal(sigma, alpha), map_cfg.input_bits,
              "dac_bits=" + std::to_string(dac_bits) +
                  " keep=" + std::to_string(keep) +
                  " sigma=" + std::to_string(sigma) +
                  " alpha=" + std::to_string(alpha) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
  runtime::set_thread_count(0);
}

TEST(GeneralPath, ClippingVariationSimMatchesDense) {
  // sigma = 0.1 with the ADC two bits under Eq. 1: unlike the benchmark
  // sweep's one-bit-under points, this one really saturates, so the
  // general path's clip branch is compared against dense.
  const Tensor m = cp_matrix(16, 77);
  xbar::MappingConfig map_cfg;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  for (const double alpha : {0.0, 0.3}) {
    MsimConfig cfg = nonideal(0.1, alpha);
    cfg.adc_bits_override = layer.required_adc_bits() - 2;
    AnalogLayerSim packed(layer, cfg);
    DenseSim dense(layer, cfg, packed.variation());
    // Saturating inputs on every row, then random codes.
    std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 255);
    EXPECT_EQ(packed.mvm(x), dense.mvm(x)) << "alpha=" << alpha;
    const auto xr = random_codes(layer.rows, map_cfg.input_bits, 78);
    EXPECT_EQ(packed.mvm(xr), dense.mvm(xr)) << "alpha=" << alpha;
    EXPECT_GT(dense.stats().adc_clip_events, 0) << "alpha=" << alpha;
    EXPECT_EQ(packed.stats().adc_clip_events, dense.stats().adc_clip_events)
        << "alpha=" << alpha;
    EXPECT_EQ(packed.stats().adc_conversions, dense.stats().adc_conversions);
    EXPECT_EQ(packed.stats().dac_cycles, dense.stats().dac_cycles);
  }
}

TEST(GeneralPath, CellBitsMatchDense) {
  for (const int cell_bits : {1, 3}) {
    const Tensor m = cp_matrix(16, 300 + static_cast<std::uint64_t>(cell_bits));
    xbar::MappingConfig map_cfg;
    map_cfg.cell_bits = cell_bits;
    const auto layer = xbar::map_matrix(m, "l", map_cfg);
    for (const auto& [sigma, alpha] :
         {std::pair{0.1, 0.0}, std::pair{0.0, 0.3}, std::pair{0.1, 0.3}}) {
      expect_general_matches_dense(
          layer, nonideal(sigma, alpha), map_cfg.input_bits,
          "cell_bits=" + std::to_string(cell_bits) +
              " sigma=" + std::to_string(sigma) +
              " alpha=" + std::to_string(alpha));
    }
  }
}

TEST(GeneralPath, BatchMatchesPerSampleUnderVariation) {
  const Tensor m = cp_matrix(16, 400);
  xbar::MappingConfig map_cfg;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  constexpr std::int64_t kBatch = 37;
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    for (const double alpha : {0.0, 0.3}) {
      const MsimConfig cfg = nonideal(0.1, alpha);
      AnalogLayerSim batched(layer, cfg);
      AnalogLayerSim serial(layer, cfg);
      std::vector<std::int32_t> xs;
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const auto x = random_codes(layer.rows, map_cfg.input_bits,
                                    500 + static_cast<std::uint64_t>(s));
        xs.insert(xs.end(), x.begin(), x.end());
      }
      const auto yb = batched.mvm_batch(xs, kBatch);
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const std::vector<std::int32_t> x(xs.begin() + s * layer.rows,
                                          xs.begin() + (s + 1) * layer.rows);
        const std::vector<std::int64_t> row(yb.begin() + s * layer.cols,
                                            yb.begin() + (s + 1) * layer.cols);
        EXPECT_EQ(row, serial.mvm(x))
            << "sample " << s << " threads=" << threads << " alpha=" << alpha;
      }
      EXPECT_EQ(batched.stats().adc_conversions,
                serial.stats().adc_conversions);
      EXPECT_EQ(batched.stats().adc_clip_events,
                serial.stats().adc_clip_events);
      EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);

      // Post-ReLU-like codes: zero-code skips and dead cycles.
      std::vector<std::int32_t> rs;
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const auto x = relu_codes(layer.rows, map_cfg.input_bits,
                                  700 + static_cast<std::uint64_t>(s));
        rs.insert(rs.end(), x.begin(), x.end());
      }
      const auto yr = batched.mvm_batch(rs, kBatch);
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const std::vector<std::int32_t> x(rs.begin() + s * layer.rows,
                                          rs.begin() + (s + 1) * layer.rows);
        const std::vector<std::int64_t> row(yr.begin() + s * layer.cols,
                                            yr.begin() + (s + 1) * layer.cols);
        EXPECT_EQ(row, serial.mvm(x)) << "post-ReLU sample " << s
                                      << " threads=" << threads
                                      << " alpha=" << alpha;
      }
      EXPECT_EQ(batched.stats().adc_conversions,
                serial.stats().adc_conversions);
      EXPECT_EQ(batched.stats().adc_clip_events,
                serial.stats().adc_clip_events);
      EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);
    }
  }
  runtime::set_thread_count(0);
}

/// The non-fused sample loop of mvm_real_columns against per-sample
/// mvm_real / mvm_real_signed calls on a packed sim and on the dense model.
/// The columns are post-ReLU-like (mostly zeros, small values, a few past
/// full scale), plus an all-zero column, a column with one full-scale
/// code and a saturating column. The cases reach the zero-code skip and
/// the dead-cycle bound under the hoisted divide (with and without IR
/// drop), the per-cycle IR-drop divide of a multi-bit DAC, and a clipping
/// ADC. Outputs and all three counters, at 1 and 4 threads.
TEST(GeneralPath, ColumnsMatchPerSampleOnPostReluInputs) {
  const Tensor m = cp_matrix(16, 600);
  struct Case {
    const char* name;
    int dac_bits;
    double alpha;
    int under_bits;  // ADC bits below Eq. 1 (0: Eq. 1 sizing)
  };
  const Case cases[] = {{"1-bit DAC", 1, 0.0, 0},
                        {"1-bit DAC, IR drop", 1, 0.3, 0},
                        {"2-bit DAC, IR drop", 2, 0.3, 0},
                        {"clipping ADC", 1, 0.0, 2}};
  xbar::QuantParams q;
  q.bits = 8;
  q.scale = 0.043F;
  const float full = 255.0F * q.scale;
  constexpr std::int64_t kRandom = 19;
  constexpr std::int64_t kBatch = kRandom + 3;
  for (const Case& c : cases) {
    xbar::MappingConfig map_cfg;
    map_cfg.dac_bits = c.dac_bits;
    const auto layer = xbar::map_matrix(m, "l", map_cfg);
    MsimConfig cfg = nonideal(0.1, c.alpha);
    if (c.under_bits > 0)
      cfg.adc_bits_override = layer.required_adc_bits() - c.under_bits;

    tinyadc::Rng rng(601);
    Tensor xcols({layer.rows, kBatch});  // zero-filled
    for (std::int64_t r = 0; r < layer.rows; ++r) {
      for (std::int64_t s = 0; s < kRandom; ++s) {
        const double u = rng.uniform();
        xcols.at(r, s) = u < 0.65    ? 0.0F
                         : u < 0.975 ? rng.uniform(0.0F, 16.0F * q.scale)
                                     : 1.5F * full;
      }
      xcols.at(r, kRandom + 2) = full;  // saturating column
    }
    // Column kRandom stays all-zero; kRandom + 1 holds one full-scale code.
    xcols.at(layer.rows / 3, kRandom + 1) = full;

    for (const bool signed_input : {false, true}) {
      Tensor xin = xcols.clone();
      if (signed_input)
        for (std::int64_t i = 0; i < xin.numel(); ++i)
          if (rng.uniform() < 0.5) xin.data()[i] = -xin.data()[i];
      for (const int threads : {1, 4}) {
        runtime::set_thread_count(threads);
        const std::string what = std::string(c.name) +
                                 " signed=" + std::to_string(signed_input) +
                                 " threads=" + std::to_string(threads);
        AnalogLayerSim batched(layer, cfg);
        AnalogLayerSim serial(layer, cfg);
        DenseSim dense(layer, cfg, serial.variation());
        const Tensor yc = batched.mvm_real_columns(xin, q, signed_input);
        ASSERT_EQ(yc.shape(), (Shape{layer.cols, kBatch}));
        for (std::int64_t s = 0; s < kBatch; ++s) {
          std::vector<float> x(static_cast<std::size_t>(layer.rows));
          for (std::int64_t r = 0; r < layer.rows; ++r)
            x[static_cast<std::size_t>(r)] = xin.at(r, s);
          const auto y = signed_input ? serial.mvm_real_signed(x, q)
                                      : serial.mvm_real(x, q);
          const auto yd = signed_input ? dense.mvm_real_signed(x, q)
                                       : dense.mvm_real(x, q);
          EXPECT_EQ(y, yd) << what << " sample " << s;
          for (std::int64_t o = 0; o < layer.cols; ++o)
            EXPECT_EQ(yc.at(o, s), y[static_cast<std::size_t>(o)])
                << what << " sample " << s << " column " << o;
        }
        for (const MsimStats& ref : {serial.stats(), dense.stats()}) {
          EXPECT_EQ(batched.stats().adc_conversions, ref.adc_conversions)
              << what;
          EXPECT_EQ(batched.stats().adc_clip_events, ref.adc_clip_events)
              << what;
          EXPECT_EQ(batched.stats().dac_cycles, ref.dac_cycles) << what;
        }
        if (c.under_bits > 0) {
          EXPECT_GT(batched.stats().adc_clip_events, 0) << what;
        }
      }
    }
  }
  runtime::set_thread_count(0);
}

/// Ideal plans whose ADC may clip — the undersized-ADC studies — run the
/// general lanes with unit variation factors and divisors. Over 1- and
/// 2-bit DACs and 1-3-bit cells, on a 3-bit ADC, the per-sample,
/// batched-integer and column entry points (unsigned and signed) match the
/// dense reference on uniform, post-ReLU and saturating inputs: outputs
/// and all three counters, at 1 and 4 threads. Every case must clip, which
/// proves it left the fused path.
TEST(GeneralPath, IdealClippingMatchesDense) {
  constexpr std::int64_t kBatch = 9;
  xbar::QuantParams q;
  q.bits = 8;
  q.scale = 0.043F;
  for (const int dac_bits : {1, 2}) {
    for (const int cell_bits : {1, 2, 3}) {
      const Tensor m = cp_matrix(
          16, 800 + static_cast<std::uint64_t>(10 * dac_bits + cell_bits));
      xbar::MappingConfig map_cfg;
      map_cfg.dac_bits = dac_bits;
      map_cfg.cell_bits = cell_bits;
      const auto layer = xbar::map_matrix(m, "l", map_cfg);
      MsimConfig cfg;
      cfg.adc_bits_override = 3;

      // Uniform, post-ReLU and all-full-scale samples.
      std::vector<std::int32_t> xs;
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const auto seed = 900 + static_cast<std::uint64_t>(s);
        const auto x =
            s == kBatch - 1
                ? std::vector<std::int32_t>(
                      static_cast<std::size_t>(layer.rows), 255)
                : s % 2 == 0 ? random_codes(layer.rows, 8, seed)
                             : relu_codes(layer.rows, 8, seed);
        xs.insert(xs.end(), x.begin(), x.end());
      }
      tinyadc::Rng rng(901);
      Tensor xcols({layer.rows, kBatch});
      for (std::int64_t i = 0; i < xcols.numel(); ++i)
        xcols.data()[i] = rng.normal(0.0F, 4.0F);

      for (const int threads : {1, 4}) {
        runtime::set_thread_count(threads);
        const std::string what = "dac_bits=" + std::to_string(dac_bits) +
                                 " cell_bits=" + std::to_string(cell_bits) +
                                 " threads=" + std::to_string(threads);
        const auto expect_counters = [&](const AnalogLayerSim& sim,
                                         const DenseSim& dense,
                                         const std::string& entry) {
          EXPECT_EQ(sim.stats().adc_conversions,
                    dense.stats().adc_conversions)
              << what << " " << entry;
          EXPECT_EQ(sim.stats().adc_clip_events,
                    dense.stats().adc_clip_events)
              << what << " " << entry;
          EXPECT_EQ(sim.stats().dac_cycles, dense.stats().dac_cycles)
              << what << " " << entry;
          EXPECT_GT(sim.stats().adc_clip_events, 0) << what << " " << entry;
        };

        // mvm and mvm_batch against per-sample dense mvm.
        AnalogLayerSim single(layer, cfg);
        AnalogLayerSim batched(layer, cfg);
        DenseSim dense(layer, cfg, single.variation());
        const auto yb = batched.mvm_batch(xs, kBatch);
        for (std::int64_t s = 0; s < kBatch; ++s) {
          const std::vector<std::int32_t> x(xs.begin() + s * layer.rows,
                                            xs.begin() + (s + 1) * layer.rows);
          const auto y_ref = dense.mvm(x);
          EXPECT_EQ(single.mvm(x), y_ref) << what << " mvm sample " << s;
          const std::vector<std::int64_t> row(
              yb.begin() + s * layer.cols, yb.begin() + (s + 1) * layer.cols);
          EXPECT_EQ(row, y_ref) << what << " mvm_batch sample " << s;
        }
        expect_counters(single, dense, "mvm");
        expect_counters(batched, dense, "mvm_batch");

        // mvm_real_columns against per-sample dense mvm_real(_signed).
        for (const bool signed_input : {false, true}) {
          Tensor xin = xcols.clone();
          if (!signed_input)
            for (std::int64_t i = 0; i < xin.numel(); ++i)
              xin.data()[i] = std::fabs(xin.data()[i]);
          AnalogLayerSim cols(layer, cfg);
          DenseSim cols_dense(layer, cfg, cols.variation());
          const Tensor yc = cols.mvm_real_columns(xin, q, signed_input);
          for (std::int64_t s = 0; s < kBatch; ++s) {
            std::vector<float> x(static_cast<std::size_t>(layer.rows));
            for (std::int64_t r = 0; r < layer.rows; ++r)
              x[static_cast<std::size_t>(r)] = xin.at(r, s);
            const auto y = signed_input ? cols_dense.mvm_real_signed(x, q)
                                        : cols_dense.mvm_real(x, q);
            for (std::int64_t o = 0; o < layer.cols; ++o)
              EXPECT_EQ(yc.at(o, s), y[static_cast<std::size_t>(o)])
                  << what << " columns signed=" << signed_input << " sample "
                  << s << " column " << o;
          }
          expect_counters(cols, cols_dense,
                          signed_input ? "columns signed" : "columns");
        }
      }
    }
  }
  runtime::set_thread_count(0);
}

TEST(OverflowGuard, AcceptsPaperConfiguration) {
  tinyadc::Rng rng(2);
  Tensor m = Tensor::randn({128, 16}, rng);
  const auto layer = xbar::map_matrix(m, "l", xbar::MappingConfig{});
  EXPECT_NO_THROW(AnalogLayerSim(layer, MsimConfig{}));
}

}  // namespace
}  // namespace tinyadc::msim
