// The IR-drop analog non-ideality (MsimConfig::ir_drop_alpha).
#include <gtest/gtest.h>

#include <cmath>

#include "msim/analog_mvm.hpp"
#include "tensor/ops.hpp"

namespace tinyadc {
namespace {

xbar::MappedLayer mapped(const Tensor& m, std::int64_t xbar_dim = 8) {
  xbar::MappingConfig cfg;
  cfg.dims = {xbar_dim, xbar_dim};
  return xbar::map_matrix(m, "l", cfg);
}

TEST(IrDrop, ZeroAlphaIsExact) {
  Rng rng(5);
  const auto layer = mapped(Tensor::randn({8, 8}, rng));
  msim::MsimConfig cfg;
  cfg.ir_drop_alpha = 0.0;
  msim::AnalogLayerSim sim(layer, cfg);
  std::vector<std::int32_t> x(8, 200);
  EXPECT_EQ(sim.mvm(x), xbar::reference_mvm(layer, x));
}

TEST(IrDrop, ErrorGrowsWithAlpha) {
  Rng rng(6);
  const auto layer = mapped(Tensor::randn({8, 8}, rng));
  std::vector<std::int32_t> x(8, 200);
  const auto ref = xbar::reference_mvm(layer, x);
  double prev_err = -1.0;
  for (double alpha : {0.05, 0.2, 0.8}) {
    msim::MsimConfig cfg;
    cfg.ir_drop_alpha = alpha;
    msim::AnalogLayerSim sim(layer, cfg);
    const auto y = sim.mvm(x);
    double err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      err += std::abs(static_cast<double>(y[i]) - ref[i]);
    EXPECT_GE(err, prev_err);
    prev_err = err;
  }
  EXPECT_GT(prev_err, 0.0);
}

TEST(IrDrop, CpPrunedColumnsSufferLess) {
  // Same alpha, same weights where kept: the CP-pruned layer's lighter
  // bitline load must yield a smaller relative error than the dense one.
  Rng rng(7);
  Tensor dense = Tensor::randn({16, 8}, rng);
  apply_(dense, [](float v) { return v > 0 ? v + 0.5F : v - 0.5F; });
  Tensor pruned = dense.clone();
  for (std::int64_t c = 0; c < 8; ++c) {
    std::int64_t kept = 0;
    for (std::int64_t r = 0; r < 16; ++r) {
      if (kept < 2 && std::fabs(pruned.at(r, c)) > 1.2F) {
        ++kept;
        continue;
      }
      pruned.at(r, c) = 0.0F;
    }
  }
  auto rel_error = [](const Tensor& m) {
    xbar::MappingConfig mc;
    mc.dims = {16, 16};
    const auto layer = xbar::map_matrix(m, "l", mc);
    msim::MsimConfig cfg;
    cfg.ir_drop_alpha = 0.5;
    msim::AnalogLayerSim sim(layer, cfg);
    std::vector<std::int32_t> x(16, 255);
    const auto y = sim.mvm(x);
    const auto ref = xbar::reference_mvm(layer, x);
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      err += std::abs(static_cast<double>(y[i]) - ref[i]);
      norm += std::abs(static_cast<double>(ref[i])) + 1.0;
    }
    return err / norm;
  };
  EXPECT_LT(rel_error(pruned), rel_error(dense));
}

}  // namespace
}  // namespace tinyadc
