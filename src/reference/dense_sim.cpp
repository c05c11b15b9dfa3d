#include "reference/dense_sim.hpp"

#include <cstdlib>
#include <utility>

#include "msim/adc.hpp"
#include "msim/dac.hpp"
#include "runtime/parallel.hpp"
#include "tensor/check.hpp"

namespace tinyadc::reference {

DenseMvm dense_mvm(const xbar::MappedLayer& layer,
                   const msim::MsimConfig& config,
                   const std::vector<std::vector<float>>& variation,
                   const std::vector<std::int32_t>& x) {
  const auto& cfg = layer.config;
  TINYADC_CHECK(static_cast<std::int64_t>(x.size()) == layer.rows,
                "input length " << x.size() << " != layer rows "
                                << layer.rows);
  TINYADC_CHECK(variation.empty() || variation.size() == layer.blocks.size(),
                "variation covers " << variation.size() << " blocks, layer "
                                    << layer.name << " has "
                                    << layer.blocks.size());
  const msim::Adc adc(config.adc_bits_override >= 0
                          ? config.adc_bits_override
                          : layer.required_adc_bits());
  const int slices = cfg.slices();
  const int cycles = msim::dac_cycles(cfg.input_bits, cfg.dac_bits);
  const auto n = static_cast<std::size_t>(layer.rows);

  // Pre-split every activation into DAC chunks: chunk[t][row].
  std::vector<std::vector<std::int32_t>> chunk(
      static_cast<std::size_t>(cycles), std::vector<std::int32_t>(n));
  for (std::size_t r = 0; r < n; ++r) {
    TINYADC_CHECK(x[r] >= 0 && x[r] < (std::int64_t{1} << cfg.input_bits),
                  "activation code " << x[r] << " exceeds " << cfg.input_bits
                                     << " bits");
    const auto ch = msim::dac_chunks(x[r], cfg.input_bits, cfg.dac_bits);
    for (int t = 0; t < cycles; ++t)
      chunk[static_cast<std::size_t>(t)][r] = ch[static_cast<std::size_t>(t)];
  }

  // Each (block, logical column) pair converts independently — in hardware
  // all crossbar arrays fire in parallel. Accumulate every pair's digital
  // sum and ADC counters separately, then merge serially in a fixed order
  // so y and the statistics are bit-identical at any thread count.
  std::vector<std::pair<std::size_t, std::int64_t>> pairs;  // (block, col)
  for (std::size_t bi = 0; bi < layer.blocks.size(); ++bi)
    for (std::int64_t c = 0; c < layer.blocks[bi].cols; ++c)
      pairs.emplace_back(bi, c);
  std::vector<std::int64_t> pair_acc(pairs.size(), 0);
  std::vector<msim::AdcCounters> pair_counters(pairs.size());

  runtime::parallel_for(
      0, static_cast<std::int64_t>(pairs.size()), 1,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t pi = p0; pi < p1; ++pi) {
          const auto [bi, c] = pairs[static_cast<std::size_t>(pi)];
          const auto& b = layer.blocks[bi];
          const float* var = variation.empty() ? nullptr : variation[bi].data();
          msim::AdcCounters& pc = pair_counters[static_cast<std::size_t>(pi)];
          // Decompose the column once: per-row slice values by polarity.
          // sliced[r*slices + s] holds the s-th slice of |q(r,c)|; sign[r]
          // its polarity.
          std::vector<std::int32_t> sliced(
              static_cast<std::size_t>(b.rows * slices), 0);
          std::vector<int> sign(static_cast<std::size_t>(b.rows), 0);
          for (std::int64_t r = 0; r < b.rows; ++r) {
            const std::int32_t q = b.at(r, c);
            if (q == 0) continue;
            sign[static_cast<std::size_t>(r)] = q > 0 ? 1 : -1;
            const auto sl = xbar::slice_magnitude(std::abs(q), cfg.cell_bits,
                                                  slices);
            for (int s = 0; s < slices; ++s)
              sliced[static_cast<std::size_t>(r * slices + s)] =
                  sl[static_cast<std::size_t>(s)];
          }
          // Column load for the IR-drop model: the fraction of this
          // column's wordlines that actually inject current.
          double column_load = 0.0;
          if (config.ir_drop_alpha > 0.0) {
            std::int64_t active = 0;
            for (std::int64_t r = 0; r < b.rows; ++r)
              active += (sign[static_cast<std::size_t>(r)] != 0);
            column_load = static_cast<double>(active) /
                          static_cast<double>(b.rows);
          }
          // Every (polarity, slice, cycle) analog sum first, then the
          // conversions and the shift-and-add in the same order.
          std::vector<double> sums;
          sums.reserve(static_cast<std::size_t>(2 * slices * cycles));
          for (int polarity : {+1, -1}) {
            for (int s = 0; s < slices; ++s) {
              for (int t = 0; t < cycles; ++t) {
                double analog = 0.0;
                const auto& ch = chunk[static_cast<std::size_t>(t)];
                for (std::int64_t r = 0; r < b.rows; ++r) {
                  if (sign[static_cast<std::size_t>(r)] != polarity) continue;
                  const std::int32_t level =
                      sliced[static_cast<std::size_t>(r * slices + s)];
                  if (level == 0) continue;
                  const std::int64_t orig_r =
                      layer.kept_rows[static_cast<std::size_t>(b.row0 + r)];
                  double contrib = static_cast<double>(level) *
                                   ch[static_cast<std::size_t>(orig_r)];
                  if (var != nullptr)
                    contrib *= var[static_cast<std::size_t>(
                        (r * b.cols + c) * slices + s)];
                  if (config.ir_drop_alpha > 0.0) {
                    const double depth = static_cast<double>(r + 1) /
                                         static_cast<double>(b.rows);
                    contrib /= 1.0 + config.ir_drop_alpha * depth * column_load;
                  }
                  analog += contrib;
                }
                sums.push_back(analog);
              }
            }
          }
          std::int64_t acc = 0;
          auto sum = sums.begin();
          for (int polarity : {+1, -1})
            for (int s = 0; s < slices; ++s)
              for (int t = 0; t < cycles; ++t)
                acc += polarity * (adc.convert(*sum++, pc)
                                   << (s * cfg.cell_bits + t * cfg.dac_bits));
          pair_acc[static_cast<std::size_t>(pi)] = acc;
        }
      });

  DenseMvm out;
  out.y.assign(static_cast<std::size_t>(layer.cols), 0);
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const auto [bi, c] = pairs[pi];
    const auto& b = layer.blocks[bi];
    out.y[static_cast<std::size_t>(
        layer.kept_cols[static_cast<std::size_t>(b.col0 + c)])] +=
        pair_acc[pi];
    out.stats.adc_conversions += pair_counters[pi].conversions;
    out.stats.adc_clip_events += pair_counters[pi].clip_events;
  }
  out.stats.dac_cycles = cycles;
  return out;
}

DenseSim::DenseSim(const xbar::MappedLayer& layer,
                   const msim::MsimConfig& config,
                   std::vector<std::vector<float>> variation)
    : layer_(layer), config_(config), variation_(std::move(variation)) {}

std::vector<std::int64_t> DenseSim::mvm(const std::vector<std::int32_t>& x) {
  DenseMvm r = dense_mvm(layer_, config_, variation_, x);
  stats_.adc_conversions += r.stats.adc_conversions;
  stats_.adc_clip_events += r.stats.adc_clip_events;
  stats_.dac_cycles += r.stats.dac_cycles;
  return std::move(r.y);
}

std::vector<float> DenseSim::mvm_real(const std::vector<float>& x_real,
                                      const xbar::QuantParams& x_quant) {
  std::vector<std::int32_t> codes(x_real.size());
  for (std::size_t i = 0; i < x_real.size(); ++i)
    codes[i] = xbar::quantize_unsigned(x_real[i], x_quant);
  const auto y = mvm(codes);
  const float scale = x_quant.scale * layer_.quant.scale;
  std::vector<float> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    out[i] = static_cast<float>(y[i]) * scale;
  return out;
}

std::vector<float> DenseSim::mvm_real_signed(const std::vector<float>& x_real,
                                             const xbar::QuantParams& x_quant) {
  std::vector<float> pos(x_real.size()), neg(x_real.size());
  for (std::size_t i = 0; i < x_real.size(); ++i) {
    pos[i] = x_real[i] > 0.0F ? x_real[i] : 0.0F;
    neg[i] = x_real[i] < 0.0F ? -x_real[i] : 0.0F;
  }
  auto yp = mvm_real(pos, x_quant);
  const auto yn = mvm_real(neg, x_quant);
  for (std::size_t i = 0; i < yp.size(); ++i) yp[i] -= yn[i];
  return yp;
}

}  // namespace tinyadc::reference
