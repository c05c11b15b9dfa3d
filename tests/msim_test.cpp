// Mixed-signal simulator: DAC streaming, ADC behaviour, and the paper's
// central claim (P2): with Eq. 1-sized ADCs, CP-pruned analog MVM is
// bit-exact — "without introducing any computational inaccuracy".
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "core/projection.hpp"
#include "msim/analog_mvm.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::msim {
namespace {

using xbar::MappingConfig;

TEST(Dac, CycleCount) {
  EXPECT_EQ(dac_cycles(8, 1), 8);
  EXPECT_EQ(dac_cycles(8, 2), 4);
  EXPECT_EQ(dac_cycles(7, 2), 4);
  EXPECT_EQ(dac_cycles(1, 1), 1);
}

TEST(Dac, ChunksReassembleCode) {
  for (std::int32_t code = 0; code < 256; code += 7) {
    const auto chunks = dac_chunks(code, 8, 1);
    std::int32_t back = 0;
    for (std::size_t t = chunks.size(); t > 0; --t)
      back = (back << 1) | chunks[t - 1];
    EXPECT_EQ(back, code);
  }
}

TEST(Dac, RejectsOutOfRangeCodes) {
  EXPECT_THROW(dac_chunks(-1, 8, 1), tinyadc::CheckError);
  EXPECT_THROW(dac_chunks(256, 8, 1), tinyadc::CheckError);
}

TEST(Adc, ExactWithinFullScale) {
  Adc adc(5);
  EXPECT_EQ(adc.full_scale(), 31);
  for (int v = 0; v <= 31; ++v) EXPECT_EQ(adc.convert(v), v);
  EXPECT_EQ(adc.clip_events(), 0);
  EXPECT_EQ(adc.conversions(), 32);
}

TEST(Adc, ClipsAndCounts) {
  Adc adc(3);
  EXPECT_EQ(adc.convert(100.0), 7);
  EXPECT_EQ(adc.clip_events(), 1);
}

TEST(Adc, RoundsToNearestCode) {
  Adc adc(8);
  EXPECT_EQ(adc.convert(4.4), 4);
  EXPECT_EQ(adc.convert(4.6), 5);
  EXPECT_EQ(adc.convert(-0.4), 0);
}

TEST(Adc, InlineRoundingMatchesLlroundThenClamp) {
  // The ADC's inline rounding must equal std::llround followed by the
  // [0, full scale] clamp — code and clip count — on ties, the values
  // just below them, full scale ± ½ and negative sums.
  for (const int bits : {0, 1, 5, 8, 24}) {
    const Adc adc(bits);
    const double fs = static_cast<double>(adc.full_scale());
    const double values[] = {0.0,
                             -0.0,
                             0.5,
                             std::nextafter(0.5, 0.0),
                             1.5,
                             2.5,
                             std::nextafter(2.5, 0.0),
                             std::nextafter(2.5, 3.0),
                             4503599627370495.5,  // 2^52 − ½
                             fs,
                             fs - 0.5,
                             fs + 0.5,
                             std::nextafter(fs + 0.5, 0.0),
                             -0.5,
                             -2.5,
                             -1e9};
    for (const double v : values) {
      std::int64_t want = std::llround(v);
      bool want_clip = false;
      if (want < 0) want = 0;
      if (bits == 0) want = 0;
      if (want > adc.full_scale()) {
        want = adc.full_scale();
        want_clip = true;
      }
      AdcCounters counters;
      EXPECT_EQ(adc.convert(v, counters), want) << "bits=" << bits
                                                << " v=" << v;
      EXPECT_EQ(counters.clip_events, want_clip ? 1 : 0)
          << "bits=" << bits << " v=" << v;
      EXPECT_EQ(counters.conversions, 1);
    }
  }
}

TEST(Adc, NonFiniteSumsFollowTheContract) {
  // NaN converts to 0 without a clip; ±inf saturate like any sum past
  // either end of the range.
  const Adc adc(5);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, std::int64_t> cases[] = {
      {nan, 0}, {-nan, 0}, {inf, 31}, {-inf, 0}};
  for (const auto& [v, want] : cases) {
    AdcCounters counters;
    EXPECT_EQ(adc.convert(v, counters), want) << "v=" << v;
    EXPECT_EQ(counters.clip_events, v == inf ? 1 : 0) << "v=" << v;
  }
}

TEST(Adc, ZeroBitsDegenerate) {
  Adc adc(0);
  EXPECT_EQ(adc.convert(5.0), 0);
}

MappingConfig sim_config(std::int64_t xbar_rows = 8) {
  MappingConfig cfg;
  cfg.dims = {xbar_rows, xbar_rows};
  cfg.weight_bits = 8;
  cfg.cell_bits = 2;
  cfg.input_bits = 4;
  cfg.dac_bits = 1;
  return cfg;
}

std::vector<std::int32_t> random_codes(std::int64_t n, int bits,
                                       std::uint64_t seed) {
  tinyadc::Rng rng(seed);
  std::vector<std::int32_t> x(static_cast<std::size_t>(n));
  for (auto& v : x)
    v = static_cast<std::int32_t>(rng.uniform_int(1ULL << bits));
  return x;
}

TEST(AnalogMvm, DenseMatrixExactWithEq1Adc) {
  tinyadc::Rng rng(11);
  Tensor m = Tensor::randn({8, 6}, rng);
  const auto layer = xbar::map_matrix(m, "l", sim_config());
  AnalogLayerSim sim(layer, {});
  EXPECT_EQ(sim.adc_bits(), xbar::required_adc_bits(1, 2, 8));
  const auto x = random_codes(8, 4, 1);
  EXPECT_EQ(sim.mvm(x), xbar::reference_mvm(layer, x));
  EXPECT_EQ(sim.stats().adc_clip_events, 0);
}

TEST(AnalogMvm, MultiBitDacExact) {
  tinyadc::Rng rng(12);
  auto cfg = sim_config();
  cfg.dac_bits = 2;
  cfg.input_bits = 8;
  Tensor m = Tensor::randn({8, 4}, rng);
  const auto layer = xbar::map_matrix(m, "l", cfg);
  AnalogLayerSim sim(layer, {});
  const auto x = random_codes(8, 8, 2);
  EXPECT_EQ(sim.mvm(x), xbar::reference_mvm(layer, x));
}

TEST(AnalogMvm, UnderProvisionedAdcClipsAndErrs) {
  tinyadc::Rng rng(13);
  // All-max weights and inputs force worst-case column sums.
  Tensor m = Tensor::ones({8, 2});
  const auto layer = xbar::map_matrix(m, "l", sim_config());
  MsimConfig cfg;
  cfg.adc_bits_override = 2;  // Eq. 1 demands 5
  AnalogLayerSim sim(layer, cfg);
  std::vector<std::int32_t> x(8, 15);
  const auto y = sim.mvm(x);
  EXPECT_GT(sim.stats().adc_clip_events, 0);
  EXPECT_NE(y, xbar::reference_mvm(layer, x));
}

TEST(AnalogMvm, RealDomainMatchesFloatWithinQuantError) {
  tinyadc::Rng rng(14);
  Tensor m = Tensor::randn({16, 5}, rng);
  auto cfg = sim_config(16);
  cfg.input_bits = 8;
  const auto layer = xbar::map_matrix(m, "l", cfg);
  AnalogLayerSim sim(layer, {});
  std::vector<float> x(16);
  for (auto& v : x) v = rng.uniform(0.0F, 1.0F);
  const auto xq = xbar::fit_unsigned(1.0F, 8);
  const auto y = sim.mvm_real(x, xq);
  // Float reference.
  for (std::int64_t c = 0; c < 5; ++c) {
    double expect = 0.0;
    for (std::int64_t r = 0; r < 16; ++r)
      expect += static_cast<double>(m.at(r, c)) * x[static_cast<std::size_t>(r)];
    // Error bounded by accumulated quantization steps.
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 0.15)
        << "column " << c;
  }
}

TEST(AnalogMvm, SmallVariationAbsorbedByAdcRounding) {
  // One active row per column: analog sum perturbation is < ½ LSB for a
  // 5 % spread on a single small level, so rounding recovers exactness.
  Tensor m = Tensor::zeros({8, 4});
  for (int c = 0; c < 4; ++c) m.at(c, c) = 0.01F;  // quantizes to small code
  auto cfg = sim_config();
  const auto layer = xbar::map_matrix(m, "l", cfg);
  MsimConfig mcfg;
  mcfg.variation_sigma = 0.01;
  AnalogLayerSim ideal(layer, {});
  AnalogLayerSim noisy(layer, mcfg);
  const auto x = random_codes(8, 4, 3);
  EXPECT_EQ(noisy.mvm(x), ideal.mvm(x));
}

TEST(AnalogMvm, LargeVariationEventuallyBreaksExactness) {
  tinyadc::Rng rng(15);
  Tensor m = Tensor::randn({8, 8}, rng);
  const auto layer = xbar::map_matrix(m, "l", sim_config());
  MsimConfig mcfg;
  mcfg.variation_sigma = 0.5;  // far beyond the paper's 10 %
  AnalogLayerSim noisy(layer, mcfg);
  std::vector<std::int32_t> x(8, 15);
  EXPECT_NE(noisy.mvm(x), xbar::reference_mvm(layer, x));
}

TEST(AnalogMvm, StatsAccumulateAcrossCalls) {
  tinyadc::Rng rng(16);
  const auto layer =
      xbar::map_matrix(Tensor::randn({4, 4}, rng), "l", sim_config(4));
  AnalogLayerSim sim(layer, {});
  const auto x = random_codes(4, 4, 4);
  sim.mvm(x);
  const auto once = sim.stats().adc_conversions;
  sim.mvm(x);
  EXPECT_EQ(sim.stats().adc_conversions, 2 * once);
  sim.reset_stats();
  EXPECT_EQ(sim.stats().adc_conversions, 0);
}

TEST(AnalogMvm, NetworkSimsCoverEveryLayer) {
  tinyadc::Rng rng(17);
  xbar::MappedNetwork net;
  net.config = sim_config();
  net.layers.push_back(
      xbar::map_matrix(Tensor::randn({8, 4}, rng), "a", net.config));
  net.layers.push_back(
      xbar::map_matrix(Tensor::randn({4, 2}, rng), "b", net.config));
  auto sims = make_network_sims(net, {});
  ASSERT_EQ(sims.size(), 2U);
  const auto x = random_codes(8, 4, 5);
  EXPECT_EQ(sims[0].mvm(x), xbar::reference_mvm(net.layers[0], x));
}

/// THE paper property (P2): for every CP rate, a CP-pruned matrix with the
/// *reduced* Eq. 1 ADC (sized by `keep`, not by the crossbar height)
/// reproduces the reference MVM exactly — no computational inaccuracy.
class CpExactness
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(CpExactness, ReducedAdcIsStillExact) {
  const auto [keep, input_bits] = GetParam();
  tinyadc::Rng rng(static_cast<std::uint64_t>(keep * 100 + input_bits));
  // Generate in weight-storage (column-major) layout, CP-project there,
  // then transpose into the row-major matrix the mapper consumes.
  constexpr std::int64_t rows = 16, cols = 6;
  std::vector<float> store(static_cast<std::size_t>(rows * cols));
  for (auto& v : store) v = rng.normal(0.0F, 1.0F);
  core::project_column_proportional({store.data(), rows, cols}, {16, 16},
                                    keep);
  Tensor m({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.at(r, c) = store[static_cast<std::size_t>(c * rows + r)];
  auto cfg = sim_config(16);
  cfg.input_bits = input_bits;
  const auto layer = xbar::map_matrix(m, "l", cfg);
  ASSERT_LE(layer.max_active_rows(), keep);

  // The census-driven ADC is smaller than the dense one…
  const int dense_bits = xbar::required_adc_bits(1, 2, 16);
  AnalogLayerSim sim(layer, {});
  EXPECT_LT(sim.adc_bits(), dense_bits);
  // …and still bit-exact for random and adversarial inputs.
  const auto x = random_codes(16, input_bits, 6);
  EXPECT_EQ(sim.mvm(x), xbar::reference_mvm(layer, x));
  std::vector<std::int32_t> worst(16, (1 << input_bits) - 1);
  EXPECT_EQ(sim.mvm(worst), xbar::reference_mvm(layer, worst));
  EXPECT_EQ(sim.stats().adc_clip_events, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndPrecisions, CpExactness,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 4, 8),
                       ::testing::Values(1, 4, 8)));

}  // namespace
}  // namespace tinyadc::msim
