// The paper's exactness property, asserted on the test oracle itself: with
// an ideal datapath (no variation, no IR drop) and an ADC sized by Eq. 1
// for the layer's worst column occupancy, the dense row-scan model equals
// the exact integer MVM xbar::reference_mvm — every output, and not one
// clipped conversion — over CP-pruned and dense layers, edge-block shapes,
// and DAC and cell widths beyond the paper's 1-bit DAC and 2-bit cells.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/projection.hpp"
#include "reference/dense_sim.hpp"
#include "tensor/rng.hpp"

namespace tinyadc::reference {
namespace {

/// A rows×cols matrix CP-projected to `keep` active rows per crossbar
/// column of `dims` (generated in the column-major weight-storage layout
/// the projection works on, then transposed for the mapper).
Tensor cp_matrix(std::int64_t rows, std::int64_t cols, core::CrossbarDims dims,
                 std::int64_t keep, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> store(static_cast<std::size_t>(rows * cols));
  for (auto& v : store) v = rng.normal(0.0F, 1.0F);
  core::project_column_proportional({store.data(), rows, cols}, dims, keep);
  Tensor m({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.at(r, c) = store[static_cast<std::size_t>(c * rows + r)];
  return m;
}

struct Shape2 {
  std::int64_t rows, cols;
  core::CrossbarDims dims;
  std::int64_t keep;  // active rows per crossbar column (dims.rows: dense)
};

TEST(Reference, IdealEq1DenseModelEqualsIntegerMvm) {
  const Shape2 shapes[] = {
      {256, 32, {128, 128}, 16},  // the paper's crossbar at CP-16
      {300, 17, {128, 64}, 4},    // partial edge blocks in both directions
      {100, 20, {32, 16}, 1},     // one active row per column
      {64, 8, {64, 64}, 64},      // unpruned: Eq. 1 at the full height
  };
  for (const Shape2& sh : shapes) {
    const Tensor m = cp_matrix(sh.rows, sh.cols, sh.dims, sh.keep,
                               static_cast<std::uint64_t>(sh.rows + sh.keep));
    for (const int dac_bits : {1, 2, 4}) {
      for (const int cell_bits : {1, 2, 4}) {
        xbar::MappingConfig map_cfg;
        map_cfg.dims = sh.dims;
        map_cfg.dac_bits = dac_bits;
        map_cfg.cell_bits = cell_bits;
        const auto layer = xbar::map_matrix(m, "l", map_cfg);
        ASSERT_LE(layer.max_active_rows(), sh.keep);
        const std::string what =
            std::to_string(sh.rows) + "x" + std::to_string(sh.cols) +
            " keep=" + std::to_string(sh.keep) +
            " dac_bits=" + std::to_string(dac_bits) +
            " cell_bits=" + std::to_string(cell_bits);

        // Uniform codes, then every code at full scale: the worst case
        // Eq. 1 sizes for.
        Rng rng(static_cast<std::uint64_t>(10 * dac_bits + cell_bits));
        std::vector<std::int32_t> uniform(static_cast<std::size_t>(sh.rows));
        for (auto& v : uniform)
          v = static_cast<std::int32_t>(rng.uniform_int(256));
        std::vector<std::int32_t> full(static_cast<std::size_t>(sh.rows), 255);
        for (const auto* x : {&uniform, &full}) {
          const DenseMvm r = dense_mvm(layer, msim::MsimConfig{}, {}, *x);
          EXPECT_EQ(r.y, xbar::reference_mvm(layer, *x))
              << what << (x == &full ? " full-scale" : " uniform");
          EXPECT_EQ(r.stats.adc_clip_events, 0) << what;
          std::int64_t pairs = 0;
          for (const auto& b : layer.blocks) pairs += b.cols;
          const int cycles = msim::dac_cycles(map_cfg.input_bits, dac_bits);
          EXPECT_EQ(r.stats.adc_conversions,
                    pairs * 2 * map_cfg.slices() * cycles)
              << what;
          EXPECT_EQ(r.stats.dac_cycles, cycles) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tinyadc::reference
