#include "msim/analog_mvm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "artifact/format.hpp"
#include "runtime/parallel.hpp"
#include "tensor/check.hpp"

// Software prefetch of upcoming plan streams (DESIGN.md §12). Read-only,
// low temporal locality hint; compiles away off GCC/Clang.
#if defined(__GNUC__) || defined(__clang__)
#define TINYADC_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define TINYADC_PREFETCH(addr) ((void)0)
#endif

namespace tinyadc::msim {

namespace {

std::atomic<std::int64_t> g_plan_compilations{0};

// Minimum per-call plan work (weighted row slots, see finalize_plan) before
// the pair sweep is worth handing to the thread pool. Below this the pool's
// wake + chunk dispatch costs more than the sweep itself — the packed-plan
// bench showed a small CP-16 plan at 0.16 ms serial but 0.39 ms on two
// threads — so tiny plans run the sweep inline. The inline sweep is the
// runtime's serial reference path, so outputs and counters stay
// bit-identical either way.
constexpr std::int64_t kMinParallelPlanWork = 1 << 15;

/// The ideal-datapath predicate of build_plan, shared with deserialize so
/// a loaded plan provably dispatches through the same inner loop.
bool plan_ideal_for(const xbar::MappedLayer& layer, const MsimConfig& config,
                    bool has_variation) {
  std::int64_t max_rows = 0;
  for (const auto& b : layer.blocks) max_rows = std::max(max_rows, b.rows);
  const auto& cfg = layer.config;
  const double worst_plane_sum =
      static_cast<double>((1 << cfg.cell_bits) - 1) *
      static_cast<double>((1 << cfg.dac_bits) - 1) *
      static_cast<double>(max_rows);
  return !has_variation && config.ir_drop_alpha <= 0.0 &&
         worst_plane_sum < 9007199254740992.0;  // 2^53
}

/// The fused plan streams as the batched fused lanes read them.
struct FusedStreams {
  const std::uint64_t* seg;
  const std::int32_t* row;
  const std::int32_t* mag;
  const std::int64_t* out;
  std::size_t npairs;
};

/// The fused dot products of one block of kLanes samples: each pair's
/// (row, magnitude) stream is read once and multiplied into one integer
/// lane per sample. `xt` holds the block's codes as [row][lane], so a
/// stream slot's lanes load contiguously and the lane loop vectorizes;
/// the column sums are added into acc[column][lane]. Every lane sums its
/// sample's terms in the per-sample order, and integer sums are exact in
/// any order anyway, so each lane equals the single-sample fused result.
/// Acc is int32 when the plan's worst fused partial fits it (twice the
/// SIMD width), int64 otherwise.
template <int kLanes, typename Acc>
void fused_lanes(const FusedStreams& f, const std::int32_t* xt,
                 std::int64_t* acc) {
  for (std::size_t pi = 0; pi < f.npairs; ++pi) {
    const std::size_t k0 = 2 * pi;
    if (pi + 1 < f.npairs) {
      // One pair ahead hides the stream-load latency behind this pair's
      // arithmetic.
      TINYADC_PREFETCH(f.mag + f.seg[k0 + 2]);
      TINYADC_PREFETCH(f.row + f.seg[k0 + 2]);
    }
    std::int64_t sum[kLanes] = {};
    for (std::size_t pol = 0; pol < 2; ++pol) {
      Acc part[kLanes] = {};
      for (std::size_t i = f.seg[k0 + pol]; i < f.seg[k0 + pol + 1]; ++i) {
        const Acc m = f.mag[i];
        const std::int32_t* x =
            xt + static_cast<std::size_t>(f.row[i]) * kLanes;
        for (int s = 0; s < kLanes; ++s) part[s] += m * x[s];
      }
      for (int s = 0; s < kLanes; ++s) sum[s] += pol == 0 ? part[s] : -part[s];
    }
    std::int64_t* a = acc + static_cast<std::size_t>(f.out[pi]) * kLanes;
    for (int s = 0; s < kLanes; ++s) a[s] += sum[s];
  }
}

/// fused_lanes at a runtime block width (8, 4 or 1).
template <typename Acc>
void fused_block(int lanes, const FusedStreams& f, const std::int32_t* xt,
                 std::int64_t* acc) {
  if (lanes == 8)
    fused_lanes<8, Acc>(f, xt, acc);
  else if (lanes == 4)
    fused_lanes<4, Acc>(f, xt, acc);
  else
    fused_lanes<1, Acc>(f, xt, acc);
}

/// The value the quantizer sees for kPart: the value itself (0) or, for
/// the signed two-phase split, its positive (+1) or negative (−1) part.
template <int kPart>
float signed_part(float v) {
  if constexpr (kPart > 0) return v > 0.0F ? v : 0.0F;
  if constexpr (kPart < 0) return v < 0.0F ? -v : 0.0F;
  return v;
}

/// Quantizes `lanes` adjacent columns of a row-major (n × ld) matrix at
/// `x` into dst[r·lanes + s]. Each row's lanes are contiguous, and the
/// compile-time lane counts let the quantizer vectorize across them. `q` is
/// a by-value copy so the int32 stores cannot alias it.
template <int kPart>
void quantize_block(const float* x, std::size_t ld, std::size_t n,
                    std::size_t lanes, const xbar::QuantParams q,
                    std::int32_t* dst) {
  const auto block = [&]<std::size_t kLanes>() {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t s = 0; s < kLanes; ++s)
        dst[r * kLanes + s] =
            xbar::quantize_unsigned(signed_part<kPart>(x[r * ld + s]), q);
  };
  if (lanes == 8)
    block.template operator()<8>();
  else if (lanes == 4)
    block.template operator()<4>();
  else
    block.template operator()<1>();
}

/// Runs fn(i0, i1) over [0, count): inline when `serial`, else on the pool
/// in chunks of `grain` indices.
template <typename Fn>
void run_range(std::int64_t count, bool serial, const Fn& fn,
               std::int64_t grain = 1) {
  if (serial)
    fn(0, count);
  else
    runtime::parallel_for(0, count, grain, fn);
}

/// A grain that cuts [0, count) into about four chunks per pool lane, so
/// per-chunk setup (scratch buffers, a counter merge) is paid a few times
/// per call rather than once per index, while the lanes still interleave.
std::int64_t lane_grain(std::int64_t count) {
  const std::int64_t chunks = 4 * std::int64_t{runtime::thread_count()};
  return std::max<std::int64_t>(1, (count + chunks - 1) / chunks);
}

// Most DAC cycles the general path's lanes cover: input_bits ≤ 16 (the
// mapping validator's envelope), so one cycle per input bit at most.
constexpr int kMaxGeneralCycles = 16;

/// What general_segment reads: the layer's constants, and one polarity
/// segment's `m` operands with a nonzero activation code (their local
/// slots and codes) and live slice count over the segment's slice-major
/// level / variation streams (slice stride `len`) and IR divisors
/// (nullptr: all 1.0).
struct GeneralArgs {
  int slices = 0;
  int cell_bits = 0;
  int dac_bits = 0;
  std::int32_t mask = 0;
  bool hoist_divide = false;
  const Adc* adc = nullptr;
  const std::int32_t* slot = nullptr;
  const std::int32_t* code = nullptr;
  std::size_t m = 0;
  std::size_t len = 0;
  const std::int32_t* level = nullptr;
  const float* var = nullptr;
  const double* denom = nullptr;
};

/// One segment of the general path over its live slices and its kLive
/// live DAC cycles: returns Σ_(slice, cycle) code << shift of the
/// segment's conversions.
/// Each gathered operand's chunks are split once into `ch`; per slice,
/// its level·variation (and, when hoisted, its IR-drop divide) is formed
/// once and fed to one lane per cycle, summed in ascending row order — the
/// dense scan's operand order for that cycle — as independent dependency
/// chains in registers. The lane update multiplies by the chunk (never
/// `ch ? w : 0.0`, which compiles to a mispredicting branch). Why every
/// lane equals the dense scan's double bit for bit, although zero-code
/// operands, dead slices and dead cycles are left out: see the file
/// header of analog_mvm.hpp and DESIGN.md §12.
template <int kLive>
std::int64_t general_segment(const GeneralArgs& g, double* ch,
                             AdcCounters& counters) {
  for (std::size_t j = 0; j < g.m; ++j) {
    std::int32_t rest = g.code[j];
    for (int t = 0; t < kLive; ++t) {
      ch[j * kLive + static_cast<std::size_t>(t)] =
          static_cast<double>(rest & g.mask);
      rest >>= g.dac_bits;
    }
  }
  std::int64_t acc = 0;
  for (int s = 0; s < g.slices; ++s) {
    const std::size_t sbase = static_cast<std::size_t>(s) * g.len;
    const std::int32_t* lv = g.level + sbase;
    const float* vv = g.var + sbase;
    double lane[kLive] = {};
    if (g.hoist_divide) {
      for (std::size_t j = 0; j < g.m; ++j) {
        const auto i = static_cast<std::size_t>(g.slot[j]);
        double w = static_cast<double>(lv[i]) * vv[i];
        if (g.denom != nullptr) w /= g.denom[i];
        const double* c = ch + j * kLive;
        for (int t = 0; t < kLive; ++t) lane[t] += c[t] * w;
      }
    } else {
      for (std::size_t j = 0; j < g.m; ++j) {
        const auto i = static_cast<std::size_t>(g.slot[j]);
        const double w = static_cast<double>(lv[i]) * vv[i];
        const double d = g.denom[i];
        const double* c = ch + j * kLive;
        for (int t = 0; t < kLive; ++t) lane[t] += (c[t] * w) / d;
      }
    }
    for (int t = 0; t < kLive; ++t)
      acc += g.adc->convert(lane[t], counters)
             << (s * g.cell_bits + t * g.dac_bits);
  }
  return acc;
}

/// general_segment, one instantiation per live cycle count (index L − 1).
constexpr auto kGeneralSegment =
    []<std::size_t... L>(std::index_sequence<L...>) {
      return std::array{&general_segment<static_cast<int>(L) + 1>...};
    }(std::make_index_sequence<kMaxGeneralCycles>{});

}  // namespace

void serialize(const MsimConfig& config, artifact::SectionWriter& w) {
  w.pod(static_cast<std::int32_t>(config.adc_bits_override));
  w.pod(config.variation_sigma);
  w.pod(config.ir_drop_alpha);
  w.pod(config.seed);
  w.pod(static_cast<std::uint8_t>(config.use_plan ? 1 : 0));
  w.pod(std::uint8_t{0});  // kernel byte (see deserialize_msim_config)
}

MsimConfig deserialize_msim_config(artifact::SectionReader& r,
                                   std::uint32_t version) {
  MsimConfig config;
  config.adc_bits_override = r.pod<std::int32_t>();
  config.variation_sigma = r.pod<double>();
  config.ir_drop_alpha = r.pod<double>();
  config.seed = r.pod<std::uint64_t>();
  config.use_plan = r.pod<std::uint8_t>() != 0;
  if (version >= 2) {
    // The kernel byte once chose among four plan executors (0..3). Each
    // plan now runs the path its datapath implies, and every executor was
    // bit-identical, so any stored choice loads as the one path there is.
    const auto kernel = r.pod<std::uint8_t>();
    TINYADC_CHECK(kernel <= 3,
                  "implausible plan kernel " << static_cast<int>(kernel));
  }
  TINYADC_CHECK(config.adc_bits_override >= -1 &&
                    config.adc_bits_override <= 32,
                "implausible ADC override " << config.adc_bits_override);
  TINYADC_CHECK(std::isfinite(config.variation_sigma) &&
                    config.variation_sigma >= 0.0 &&
                    std::isfinite(config.ir_drop_alpha) &&
                    config.ir_drop_alpha >= 0.0,
                "implausible msim non-ideality configuration");
  return config;
}

std::int64_t AnalogLayerSim::plan_compilations() {
  return g_plan_compilations.load(std::memory_order_relaxed);
}

void AnalogLayerSim::check_accumulator_headroom() const {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);

  // Overflow guard: the shift-and-add stage accumulates
  //   Σ ± code · 2^(s·cell_bits + t·dac_bits)
  // over 2·slices·cycles conversions per (block, column), and per-column
  // block partials then add across the block-grid rows. The worst shifted
  // code therefore needs adc_bits + max_shift bits, plus headroom for the
  // number of summed terms; anything past 62 bits can silently wrap the
  // int64 accumulator, so refuse the configuration up front.
  const int max_shift =
      (slices - 1) * cfg.cell_bits + (cycles - 1) * cfg.dac_bits;
  const auto terms = static_cast<std::uint64_t>(2 * slices * cycles) *
                     static_cast<std::uint64_t>(
                         std::max<std::int64_t>(1, layer_.block_grid_rows));
  const int headroom = std::bit_width(terms);
  TINYADC_CHECK(
      adc_.bits() + max_shift + headroom <= 62,
      "shift-and-add accumulator overflow: " << adc_.bits() << " ADC bits + "
          << max_shift << " max shift + " << headroom
          << " headroom bits exceed int64 (layer " << layer_.name << ")");
}

AnalogLayerSim::AnalogLayerSim(const xbar::MappedLayer& layer,
                               MsimConfig config)
    : layer_(layer),
      config_(config),
      adc_(config.adc_bits_override >= 0 ? config.adc_bits_override
                                         : layer.required_adc_bits()),
      stats_mu_(std::make_unique<std::mutex>()) {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  check_accumulator_headroom();

  if (config_.variation_sigma > 0.0) {
    Rng rng(config_.seed);
    variation_.reserve(layer_.blocks.size());
    for (const auto& b : layer_.blocks) {
      std::vector<float> v(
          static_cast<std::size_t>(b.rows * b.cols * slices));
      for (auto& f : v)
        f = std::exp(rng.normal(0.0F,
                                static_cast<float>(config_.variation_sigma)));
      variation_.push_back(std::move(v));
    }
  }
  if (config_.use_plan) build_plan();
}

void AnalogLayerSim::build_plan() {
  g_plan_compilations.fetch_add(1, std::memory_order_relaxed);
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  TINYADC_CHECK(layer_.rows <= INT32_MAX,
                "layer too tall for packed plan row indices");

  // The ideal (no variation, no IR drop) datapath sums exact integers, so
  // the plan may accumulate in int64 and cast once — bit-identical to the
  // dense path's double accumulation as long as every partial plane sum is
  // exactly representable in a double (< 2^53; true for any physical
  // configuration, checked anyway).
  plan_ideal_ = plan_ideal_for(layer_, config_, !variation_.empty());

  // Stream sizing straight from the mapping's per-column occupancy census:
  // every active weight owns exactly one row slot in one polarity segment,
  // so the census sum is the exact stream length (not an upper bound).
  // Compilation accumulates into local vectors and assigns the ArrayRef
  // members once at the end (compiled plans always own their storage).
  const auto slots = static_cast<std::size_t>(layer_.census_nonzeros());
  std::vector<std::int32_t> soa_row;
  std::vector<std::int32_t> soa_mag;
  std::vector<std::int32_t> soa_level;
  std::vector<float> soa_var;
  std::vector<double> soa_denom;
  soa_row.reserve(slots);
  soa_mag.reserve(slots);
  soa_denom.reserve(slots);
  soa_level.reserve(slots * static_cast<std::size_t>(slices));
  soa_var.reserve(slots * static_cast<std::size_t>(slices));

  std::size_t npairs = 0;
  for (const auto& b : layer_.blocks)
    npairs += static_cast<std::size_t>(b.cols);
  std::vector<std::int64_t> soa_out;
  std::vector<std::uint64_t> soa_seg;
  soa_out.reserve(npairs);
  soa_seg.reserve(2 * npairs + 1);
  soa_seg.push_back(0);

  std::vector<std::int64_t> seg_rows;  // block-local rows of one segment
  for (std::size_t bi = 0; bi < layer_.blocks.size(); ++bi) {
    const auto& b = layer_.blocks[bi];
    const float* var = variation_.empty() ? nullptr : variation_[bi].data();
    for (std::int64_t c = 0; c < b.cols; ++c) {
      soa_out.push_back(
          layer_.kept_cols[static_cast<std::size_t>(b.col0 + c)]);

      // Column load for the IR-drop model, from the live codes (matches the
      // dense path's per-call count; the census is equal at map time but
      // kept separate so a stale census can never skew the analog model).
      double column_load = 0.0;
      if (config_.ir_drop_alpha > 0.0) {
        std::int64_t active = 0;
        for (std::int64_t r = 0; r < b.rows; ++r) active += (b.at(r, c) != 0);
        column_load =
            static_cast<double>(active) / static_cast<double>(b.rows);
      }

      // Two polarity segments per pair (+ then −), each the column's active
      // rows of that sign in ascending block-row order — exactly the
      // operands (and order) of the dense inner loop.
      for (int polarity : {+1, -1}) {
        seg_rows.clear();
        for (std::int64_t r = 0; r < b.rows; ++r) {
          const std::int32_t q = b.at(r, c);
          if (q == 0 || (q > 0 ? 1 : -1) != polarity) continue;
          seg_rows.push_back(r);
          soa_row.push_back(static_cast<std::int32_t>(layer_.kept_rows[
              static_cast<std::size_t>(b.row0 + r)]));
          soa_mag.push_back(std::abs(q));
          double denom = 1.0;
          if (config_.ir_drop_alpha > 0.0) {
            const double depth = static_cast<double>(r + 1) /
                                 static_cast<double>(b.rows);
            denom = 1.0 + config_.ir_drop_alpha * depth * column_load;
          }
          soa_denom.push_back(denom);
        }
        // Slice-resolved rectangle, slice-major within the segment. Zero
        // levels are kept (they add nothing to the integer paths; the
        // general path skips them like the dense scan does) so every slice
        // streams contiguously. Variation slots at zero levels store the
        // exact multiplicative identity.
        for (int s = 0; s < slices; ++s) {
          for (const std::int64_t r : seg_rows) {
            const auto sl = xbar::slice_magnitude(std::abs(b.at(r, c)),
                                                  cfg.cell_bits, slices);
            const std::int32_t level = sl[static_cast<std::size_t>(s)];
            soa_level.push_back(level);
            soa_var.push_back(
                var == nullptr || level == 0
                    ? 1.0F
                    : var[static_cast<std::size_t>((r * b.cols + c) * slices +
                                                   s)]);
          }
        }
        soa_seg.push_back(soa_row.size());
      }
    }
  }
  soa_out_ = std::move(soa_out);
  soa_seg_ = std::move(soa_seg);
  soa_row_ = std::move(soa_row);
  soa_mag_ = std::move(soa_mag);
  soa_level_ = std::move(soa_level);
  soa_var_ = std::move(soa_var);
  soa_denom_ = std::move(soa_denom);
  finalize_plan();
}

void AnalogLayerSim::finalize_plan() {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const std::int64_t chunk_max = (1 << cfg.dac_bits) - 1;
  const std::int64_t code_max = (std::int64_t{1} << cfg.input_bits) - 1;

  // Worst-case sums for the fast-path predicates, exact from the streams:
  // worst_plane_sum_ bounds any single (pair, polarity, slice, cycle)
  // conversion; worst_fused_sum_ bounds a fused per-polarity partial.
  worst_plane_sum_ = 0;
  worst_fused_sum_ = 0;
  max_seg_len_ = 0;
  const std::size_t nseg = soa_seg_.empty() ? 0 : soa_seg_.size() - 1;
  for (std::size_t k = 0; k < nseg; ++k) {
    const std::size_t i0 = soa_seg_[k], i1 = soa_seg_[k + 1];
    const std::size_t len = i1 - i0;
    const std::size_t lbase = i0 * static_cast<std::size_t>(slices);
    max_seg_len_ = std::max(max_seg_len_, len);
    std::int64_t fused = 0;
    for (std::size_t i = i0; i < i1; ++i) fused += soa_mag_[i];
    worst_fused_sum_ = std::max(worst_fused_sum_, fused * code_max);
    for (int s = 0; s < slices; ++s) {
      std::int64_t plane = 0;
      const std::int32_t* lv =
          soa_level_.data() + lbase + static_cast<std::size_t>(s) * len;
      for (std::size_t i = 0; i < len; ++i) plane += lv[i];
      worst_plane_sum_ = std::max(worst_plane_sum_, plane * chunk_max);
    }
  }

  // Execution-path resolution (DESIGN.md §12). The fused collapse requires
  // the clip-free guarantee; every other plan, ideal or not, runs the
  // general lanes.
  const bool clip_free = plan_ideal_ && worst_plane_sum_ <= adc_.full_scale();
  exec_path_ = clip_free ? ExecPath::kFused : ExecPath::kGeneral;
  if (exec_path_ == ExecPath::kGeneral) {
    // The general lanes' exactness envelope (see exec_general): the same
    // precisions the artifact mapping validator accepts.
    TINYADC_CHECK(cfg.cell_bits <= 8 && cfg.dac_bits <= 16 &&
                      dac_cycles(cfg.input_bits, cfg.dac_bits) <=
                          kMaxGeneralCycles,
                  "layer " << layer_.name
                           << ": the general path needs cell_bits <= 8, "
                              "dac_bits <= 16 and at most 16 DAC cycles");
    unit_denom_ = std::all_of(soa_denom_.begin(), soa_denom_.end(),
                              [](double d) { return d == 1.0; });
  }

  // Per-MVM work estimate for the parallel dispatch threshold: row slots,
  // weighted by the per-slot inner-loop cost of the resolved path. The
  // fused path touches each slot about once per polarity sweep; the
  // general path revisits each slot per (slice, cycle) plane.
  const auto total_slots =
      soa_seg_.empty() ? std::uint64_t{0} : soa_seg_.back();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const std::int64_t per_slot =
      exec_path_ == ExecPath::kFused
          ? 1
          : static_cast<std::int64_t>(slices) * cycles;
  plan_work_ = static_cast<std::int64_t>(total_slots) * per_slot;
}

void AnalogLayerSim::check_codes(const std::int32_t* x) const {
  const int bits = layer_.config.input_bits;
  const auto n = static_cast<std::size_t>(layer_.rows);
  for (std::size_t r = 0; r < n; ++r)
    TINYADC_CHECK(x[r] >= 0 && x[r] < (std::int64_t{1} << bits),
                  "activation code " << x[r] << " exceeds " << bits
                                     << " bits");
}

std::vector<std::int64_t> AnalogLayerSim::mvm(
    const std::vector<std::int32_t>& x) {
  TINYADC_CHECK(static_cast<std::int64_t>(x.size()) == layer_.rows,
                "input length " << x.size() << " != layer rows "
                                << layer_.rows);
  const auto& cfg = layer_.config;
  std::vector<std::int64_t> y(static_cast<std::size_t>(layer_.cols));
  AdcCounters counters;
  if (config_.use_plan) {
    SampleScratch scratch = make_sample_scratch();
    packed_sample(x.data(), scratch, y.data(), counters);
  } else {
    dense_sample(x.data(), y.data(), counters);
  }
  merge_stats(counters, dac_cycles(cfg.input_bits, cfg.dac_bits));
  return y;
}

AnalogLayerSim::KernelScratch AnalogLayerSim::make_kernel_scratch() const {
  const auto& cfg = layer_.config;
  const auto cycles =
      static_cast<std::size_t>(dac_cycles(cfg.input_bits, cfg.dac_bits));
  const std::size_t len = std::max<std::size_t>(max_seg_len_, 1);
  KernelScratch k;
  if (exec_path_ == ExecPath::kGeneral) {
    k.ops.resize(2 * len);
    k.live_chunks.resize(len * cycles);
  }
  return k;
}

AnalogLayerSim::SampleScratch AnalogLayerSim::make_sample_scratch() const {
  SampleScratch s;
  s.pair_acc.resize(soa_out_.size());
  s.kernel = make_kernel_scratch();
  return s;
}

/// The general (non-ideal) path over pairs [p0, p1). Per segment, the
/// operands whose activation code is nonzero are gathered (branch-free:
/// every slot is written, the count advances on a nonzero code), and
/// their codes and weight magnitudes OR-ed: cycles at or above
/// ⌈bit_width(code OR) / dac_bits⌉ see only zero chunks, and slices at or
/// above ⌈bit_width(magnitude OR) / cell_bits⌉ only zero levels.
/// general_segment then sums and converts the live slices and cycles
/// only. A left-out operand, slice or cycle contributes +0.0 to its sums,
/// which changes no bit, and a dead conversion gives code 0 without a
/// clip, so conversions are credited in bulk (2·slices·cycles per pair, as
/// the fused path does) and clips counted on the live lanes.
void AnalogLayerSim::exec_general(const std::int32_t* x, std::int64_t p0,
                                  std::int64_t p1, std::int64_t* pair_acc,
                                  KernelScratch& scratch,
                                  AdcCounters& counters) const {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  std::int32_t* slot = scratch.ops.data();
  std::int32_t* code = slot + std::max<std::size_t>(max_seg_len_, 1);
  GeneralArgs g;
  g.cell_bits = cfg.cell_bits;
  g.dac_bits = cfg.dac_bits;
  g.mask = (1 << cfg.dac_bits) - 1;
  g.hoist_divide = unit_denom_ || cfg.dac_bits == 1;
  g.adc = &adc_;
  g.slot = slot;
  g.code = code;
  const std::uint64_t* seg = soa_seg_.data();
  const std::int32_t* row = soa_row_.data();
  const std::int32_t* mag = soa_mag_.data();
  AdcCounters live;  // its conversion count is replaced by the bulk credit
  for (std::int64_t pi = p0; pi < p1; ++pi) {
    std::int64_t acc = 0;
    for (int pol = 0; pol < 2; ++pol) {
      const std::size_t k =
          2 * static_cast<std::size_t>(pi) + static_cast<std::size_t>(pol);
      const std::size_t i0 = seg[k], len = seg[k + 1] - i0;
      std::size_t m = 0;
      std::uint32_t any = 0;   // OR of the codes
      std::uint32_t mags = 0;  // OR of the gathered operands' magnitudes
      for (std::size_t i = 0; i < len; ++i) {
        const std::int32_t c = x[row[i0 + i]];
        slot[m] = static_cast<std::int32_t>(i);
        code[m] = c;
        m += c != 0 ? 1 : 0;
        any |= static_cast<std::uint32_t>(c);
        mags |= static_cast<std::uint32_t>(c != 0 ? mag[i0 + i] : 0);
      }
      if (m == 0) continue;  // every conversion sees +0.0: code 0
      const int live_cycles =
          (static_cast<int>(std::bit_width(any)) + cfg.dac_bits - 1) /
          cfg.dac_bits;
      g.slices = (static_cast<int>(std::bit_width(mags)) + cfg.cell_bits - 1) /
                 cfg.cell_bits;
      g.m = m;
      g.len = len;
      g.level = soa_level_.data() + i0 * static_cast<std::size_t>(slices);
      g.var = soa_var_.data() + i0 * static_cast<std::size_t>(slices);
      g.denom = unit_denom_ ? nullptr : soa_denom_.data() + i0;
      const std::int64_t part = kGeneralSegment[static_cast<std::size_t>(
          live_cycles - 1)](g, scratch.live_chunks.data(), live);
      acc += pol == 0 ? part : -part;
    }
    pair_acc[pi] = acc;
  }
  counters.conversions += (p1 - p0) * 2 * slices * cycles;
  counters.clip_events += live.clip_events;
}

void AnalogLayerSim::exec_pairs(const std::int32_t* x, std::int64_t p0,
                                std::int64_t p1, std::int64_t* pair_acc,
                                KernelScratch& scratch,
                                AdcCounters& counters) const {
  if (exec_path_ == ExecPath::kGeneral) {
    exec_general(x, p0, p1, pair_acc, scratch, counters);
    return;
  }
  // Clip-free ideal datapath: every conversion returns its plane sum
  // exactly, so the shift-and-add telescopes into Σ ± |q_i|·x_i per
  // polarity (DESIGN.md §12). No DAC chunks, no per-plane loop.
  const auto& cfg = layer_.config;
  const std::int64_t conv_per_pair = std::int64_t{2} * cfg.slices() *
                                     dac_cycles(cfg.input_bits, cfg.dac_bits);
  const bool narrow = worst_fused_sum_ <= INT32_MAX;
  for (std::int64_t pi = p0; pi < p1; ++pi) {
    const std::size_t k0 = 2 * static_cast<std::size_t>(pi);
    if (pi + 1 < p1) {
      // One pair ahead (~2–4 cache lines of stream data) hides the
      // stream-load latency behind the current pair's arithmetic.
      const std::size_t nx = soa_seg_[k0 + 2];
      TINYADC_PREFETCH(soa_mag_.data() + nx);
      TINYADC_PREFETCH(soa_row_.data() + nx);
    }
    std::int64_t acc = 0;
    for (int pol = 0; pol < 2; ++pol) {
      const std::size_t i0 = soa_seg_[k0 + static_cast<std::size_t>(pol)];
      const std::size_t i1 = soa_seg_[k0 + static_cast<std::size_t>(pol) + 1];
      std::int64_t part;
      if (narrow) {
        std::int32_t p32 = 0;
        for (std::size_t i = i0; i < i1; ++i)
          p32 += soa_mag_[i] * x[soa_row_[i]];
        part = p32;
      } else {
        std::int64_t p64 = 0;
        for (std::size_t i = i0; i < i1; ++i)
          p64 += static_cast<std::int64_t>(soa_mag_[i]) * x[soa_row_[i]];
        part = p64;
      }
      acc += pol == 0 ? part : -part;
    }
    pair_acc[pi] = acc;
    counters.conversions += conv_per_pair;
  }
}

void AnalogLayerSim::packed_sample(const std::int32_t* x,
                                   SampleScratch& scratch, std::int64_t* y,
                                   AdcCounters& counters) const {
  check_codes(x);
  std::int64_t* pair_acc = scratch.pair_acc.data();
  const auto npairs = static_cast<std::int64_t>(soa_out_.size());

  // Each (block, logical column) pair converts independently — in hardware
  // all crossbar arrays fire in parallel. Per-pair sums land in fixed
  // slots; counters accumulate per worker chunk and merge under a local
  // mutex (integer sums, so the grand total is partition-independent). A
  // tiny plan runs inline (the sweep costs less than waking the pool), as
  // does a sample inside a parallel region (a batch-loop lane).
  if (plan_work_ < kMinParallelPlanWork || runtime::in_parallel_region() ||
      runtime::thread_count() <= 1) {
    exec_pairs(x, 0, npairs, pair_acc, scratch.kernel, counters);
  } else {
    std::mutex counters_mu;
    runtime::parallel_for(0, npairs, lane_grain(npairs),
                          [&](std::int64_t p0, std::int64_t p1) {
                            KernelScratch k = make_kernel_scratch();
                            AdcCounters local;
                            exec_pairs(x, p0, p1, pair_acc, k, local);
                            std::lock_guard<std::mutex> lk(counters_mu);
                            counters.conversions += local.conversions;
                            counters.clip_events += local.clip_events;
                          });
  }

  std::fill(y, y + layer_.cols, 0);
  for (std::size_t pi = 0; pi < soa_out_.size(); ++pi)
    y[soa_out_[pi]] += pair_acc[pi];
}

void AnalogLayerSim::dense_sample(const std::int32_t* x, std::int64_t* y,
                                  AdcCounters& counters) const {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const auto n = static_cast<std::size_t>(layer_.rows);

  // Pre-split every activation into DAC chunks: chunk[t][row].
  std::vector<std::vector<std::int32_t>> chunk(
      static_cast<std::size_t>(cycles), std::vector<std::int32_t>(n));
  for (std::size_t r = 0; r < n; ++r) {
    const auto ch = dac_chunks(x[r], cfg.input_bits, cfg.dac_bits);
    for (int t = 0; t < cycles; ++t)
      chunk[static_cast<std::size_t>(t)][r] =
          ch[static_cast<std::size_t>(t)];
  }

  // Each (block, logical column) pair converts independently — in hardware
  // all crossbar arrays fire in parallel. Accumulate every pair's digital
  // sum and ADC counters separately, then merge serially in a fixed order
  // so y and the statistics are bit-identical at any thread count.
  std::vector<std::pair<std::size_t, std::int64_t>> pairs;  // (block, col)
  for (std::size_t bi = 0; bi < layer_.blocks.size(); ++bi)
    for (std::int64_t c = 0; c < layer_.blocks[bi].cols; ++c)
      pairs.emplace_back(bi, c);
  std::vector<std::int64_t> pair_acc(pairs.size(), 0);
  std::vector<AdcCounters> pair_counters(pairs.size());

  runtime::parallel_for(
      0, static_cast<std::int64_t>(pairs.size()), 1,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t pi = p0; pi < p1; ++pi) {
          const auto [bi, c] = pairs[static_cast<std::size_t>(pi)];
          const auto& b = layer_.blocks[bi];
          const float* var =
              variation_.empty() ? nullptr : variation_[bi].data();
          AdcCounters& pc = pair_counters[static_cast<std::size_t>(pi)];
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
          if (config_.ir_drop_alpha > 0.0) {
            std::int64_t active = 0;
            for (std::int64_t r = 0; r < b.rows; ++r)
              active += (sign[static_cast<std::size_t>(r)] != 0);
            column_load = static_cast<double>(active) /
                          static_cast<double>(b.rows);
          }
          // Every (polarity, slice, cycle) analog sum first, then the
          // conversions and the shift-and-add in the same order — keeping
          // the inlined ADC out of the row scan keeps the scan's loop
          // state in registers.
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
                  const std::int64_t orig_r = layer_.kept_rows[
                      static_cast<std::size_t>(b.row0 + r)];
                  double contrib = static_cast<double>(level) *
                                   ch[static_cast<std::size_t>(orig_r)];
                  if (var != nullptr)
                    contrib *= var[static_cast<std::size_t>(
                        (r * b.cols + c) * slices + s)];
                  if (config_.ir_drop_alpha > 0.0) {
                    const double depth = static_cast<double>(r + 1) /
                                         static_cast<double>(b.rows);
                    contrib /=
                        1.0 + config_.ir_drop_alpha * depth * column_load;
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
                acc += polarity * (adc_.convert(*sum++, pc)
                                   << (s * cfg.cell_bits + t * cfg.dac_bits));
          pair_acc[static_cast<std::size_t>(pi)] = acc;
        }
      });

  std::fill(y, y + layer_.cols, 0);
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const auto [bi, c] = pairs[pi];
    const auto& b = layer_.blocks[bi];
    y[layer_.kept_cols[static_cast<std::size_t>(b.col0 + c)]] += pair_acc[pi];
    counters.conversions += pair_counters[pi].conversions;
    counters.clip_events += pair_counters[pi].clip_events;
  }
}

bool AnalogLayerSim::batch_serial(std::int64_t batch) const {
  // A batch of tiny plans is still tiny work overall, and each sample's
  // pair sweep already runs inline, so fan out only when the whole batch
  // clears the plan-work threshold. Dense
  // (use_plan == false) batches have no plan estimate and always fan out —
  // the dense scan is O(rows·cols) per sample and dwarfs the dispatch cost.
  return config_.use_plan && batch * plan_work_ < kMinParallelPlanWork;
}

bool AnalogLayerSim::fused_batch_path() const {
  return config_.use_plan && exec_path_ == ExecPath::kFused;
}

template <typename Fill, typename Emit>
void AnalogLayerSim::fused_batch(std::int64_t batch, int phases,
                                 const Fill& fill, const Emit& emit) {
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  const bool narrow = worst_fused_sum_ <= INT32_MAX;
  const FusedStreams streams{soa_seg_.data(), soa_row_.data(),
                             soa_mag_.data(), soa_out_.data(),
                             soa_out_.size()};
  const std::int64_t n8 = batch / 8;
  const std::int64_t n4 = batch % 8 / 4;
  const auto run_blocks = [&](std::int64_t k0, std::int64_t k1) {
    std::vector<std::int32_t> xt[2];
    std::vector<std::int64_t> acc[2];
    for (std::int64_t k = k0; k < k1; ++k) {
      const std::int64_t b0 = k < n8        ? 8 * k
                              : k < n8 + n4 ? 8 * n8
                                            : 8 * n8 + 4 * n4 + (k - n8 - n4);
      const int lanes = k < n8 ? 8 : k < n8 + n4 ? 4 : 1;
      const auto nl = static_cast<std::size_t>(lanes);
      for (int p = 0; p < phases; ++p) {
        xt[p].resize(nl * n);
        acc[p].assign(nl * cols, 0);
      }
      fill(b0, lanes, xt[0].data(), xt[1].data());
      for (int p = 0; p < phases; ++p) {
        if (narrow)
          fused_block<std::int32_t>(lanes, streams, xt[p].data(),
                                    acc[p].data());
        else
          fused_block<std::int64_t>(lanes, streams, xt[p].data(),
                                    acc[p].data());
      }
      emit(b0, lanes, acc[0].data(), acc[1].data());
    }
  };
  run_range(n8 + n4 + batch % 4, batch_serial(batch), run_blocks);

  // Counters are exact multiples of the single-sample fused counts:
  // 2·slices·cycles conversions per pair per MVM, zero clips by the fused
  // predicate; each phase is one MVM per sample.
  const auto& cfg = layer_.config;
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const std::int64_t mvms = batch * phases;
  AdcCounters call_counters;
  call_counters.conversions = mvms *
                              static_cast<std::int64_t>(soa_out_.size()) * 2 *
                              cfg.slices() * cycles;
  merge_stats(call_counters, static_cast<std::int64_t>(cycles) * mvms);
}

template <typename Fill, typename Emit>
void AnalogLayerSim::sample_batch(std::int64_t batch, int phases,
                                  const Fill& fill, const Emit& emit) {
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  const auto np = static_cast<std::size_t>(phases);
  AdcCounters call_counters;
  std::mutex counters_mu;
  const auto run_samples = [&](std::int64_t s0, std::int64_t s1) {
    std::vector<std::int32_t> codes(np * n);
    std::vector<std::int64_t> y(np * cols);
    SampleScratch scratch;
    if (config_.use_plan) scratch = make_sample_scratch();
    AdcCounters local;
    for (std::int64_t s = s0; s < s1; ++s) {
      fill(s, 1, codes.data(), np > 1 ? codes.data() + n : nullptr);
      for (std::size_t p = 0; p < np; ++p) {
        if (config_.use_plan)
          packed_sample(codes.data() + p * n, scratch, y.data() + p * cols,
                        local);
        else
          dense_sample(codes.data() + p * n, y.data() + p * cols, local);
      }
      emit(s, 1, y.data(), np > 1 ? y.data() + cols : nullptr);
    }
    std::lock_guard<std::mutex> lk(counters_mu);
    call_counters.conversions += local.conversions;
    call_counters.clip_events += local.clip_events;
  };
  run_range(batch, batch_serial(batch), run_samples, lane_grain(batch));

  // Integer counter sums: the totals equal batch·phases mvm() calls at any
  // thread count and partition.
  const auto& cfg = layer_.config;
  merge_stats(call_counters, std::int64_t{dac_cycles(cfg.input_bits,
                                                     cfg.dac_bits)} *
                                 batch * phases);
}

std::vector<std::int64_t> AnalogLayerSim::mvm_batch(
    const std::vector<std::int32_t>& xs, std::int64_t batch) {
  TINYADC_CHECK(batch >= 0, "negative batch");
  TINYADC_CHECK(static_cast<std::int64_t>(xs.size()) == batch * layer_.rows,
                "batched input holds " << xs.size() << " codes, expected "
                                       << batch * layer_.rows);
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  std::vector<std::int64_t> y(static_cast<std::size_t>(batch) * cols, 0);
  if (batch == 0) return y;

  const int code_bits = std::min(layer_.config.input_bits, 31);
  const auto fill = [&](std::int64_t b0, int lanes, std::int32_t* xt,
                        std::int32_t*) {
    const auto nl = static_cast<std::size_t>(lanes);
    const std::int32_t* x = xs.data() + static_cast<std::size_t>(b0) * n;
    std::uint32_t high = 0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t s = 0; s < nl; ++s) {
        xt[r * nl + s] = x[s * n + r];
        high |= static_cast<std::uint32_t>(x[s * n + r]) >> code_bits;
      }
    // Out-of-range codes: check_codes reports the first one.
    if (high != 0)
      for (std::size_t s = 0; s < nl; ++s) check_codes(x + s * n);
  };
  const auto emit = [&](std::int64_t b0, int lanes, const std::int64_t* acc,
                        const std::int64_t*) {
    const auto nl = static_cast<std::size_t>(lanes);
    std::int64_t* yb = y.data() + static_cast<std::size_t>(b0) * cols;
    for (std::size_t o = 0; o < cols; ++o)
      for (std::size_t s = 0; s < nl; ++s) yb[s * cols + o] = acc[o * nl + s];
  };
  if (fused_batch_path())
    fused_batch(batch, 1, fill, emit);
  else
    sample_batch(batch, 1, fill, emit);
  return y;
}

void AnalogLayerSim::merge_stats(const AdcCounters& counters,
                                 std::int64_t dac_cycles) {
  std::lock_guard<std::mutex> lk(*stats_mu_);
  adc_.absorb(counters);
  stats_.dac_cycles += dac_cycles;
  stats_.adc_conversions = adc_.conversions();
  stats_.adc_clip_events = adc_.clip_events();
}

std::vector<float> AnalogLayerSim::mvm_real(
    const std::vector<float>& x_real, const xbar::QuantParams& x_quant) {
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

std::vector<float> AnalogLayerSim::mvm_real_signed(
    const std::vector<float>& x_real, const xbar::QuantParams& x_quant) {
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

std::vector<float> AnalogLayerSim::mvm_real_batch(
    const std::vector<float>& xs, std::int64_t batch,
    const xbar::QuantParams& x_quant, bool signed_input) {
  TINYADC_CHECK(static_cast<std::int64_t>(xs.size()) == batch * layer_.rows,
                "batched input holds " << xs.size() << " values, expected "
                                       << batch * layer_.rows);
  // Row-major samples in and out, through the column entry point (pure
  // data moves, so the results are the same bits).
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  const auto b = static_cast<std::size_t>(batch);
  Tensor x_cols({layer_.rows, batch});
  for (std::size_t s = 0; s < b; ++s)
    for (std::size_t r = 0; r < n; ++r)
      x_cols.data()[r * b + s] = xs[s * n + r];
  const Tensor y = mvm_real_columns(x_cols, x_quant, signed_input);
  std::vector<float> out(b * cols);
  for (std::size_t s = 0; s < b; ++s)
    for (std::size_t c = 0; c < cols; ++c)
      out[s * cols + c] = y.data()[c * b + s];
  return out;
}

Tensor AnalogLayerSim::mvm_real_columns(const Tensor& x_cols,
                                        const xbar::QuantParams& x_quant,
                                        bool signed_input) {
  TINYADC_CHECK(x_cols.ndim() == 2 && x_cols.dim(0) == layer_.rows,
                "column batch " << shape_to_string(x_cols.shape())
                                << " does not have " << layer_.rows
                                << " rows");
  const std::int64_t batch = x_cols.dim(1);
  const auto b = static_cast<std::size_t>(batch);
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  const float* xs = x_cols.data();
  Tensor result({layer_.cols, batch});
  float* res = result.data();
  if (batch == 0) return result;

  // Each block's codes (a sample-loop sample is a block of one) are
  // quantized straight from the matrix rows into its lane buffer, so no
  // batch-sized code array exists. The signed two-phase scheme streams the
  // positive and the negative part as two phases, element for element the
  // mvm_real_signed split.
  const float scale = x_quant.scale * layer_.quant.scale;
  const auto fill = [&](std::int64_t b0, int lanes, std::int32_t* pos,
                        std::int32_t* neg) {
    const float* x = xs + b0;
    const auto nl = static_cast<std::size_t>(lanes);
    if (!signed_input) {
      quantize_block<0>(x, b, n, nl, x_quant, pos);
      return;
    }
    quantize_block<+1>(x, b, n, nl, x_quant, pos);
    quantize_block<-1>(x, b, n, nl, x_quant, neg);
  };
  const auto emit = [&](std::int64_t b0, int lanes, const std::int64_t* accp,
                        const std::int64_t* accn) {
    const auto nl = static_cast<std::size_t>(lanes);
    for (std::size_t o = 0; o < cols; ++o) {
      float* ro = res + o * b + static_cast<std::size_t>(b0);
      for (std::size_t s = 0; s < nl; ++s)
        ro[s] = static_cast<float>(accp[o * nl + s]) * scale;
      if (!signed_input) continue;
      // The per-sample path scales inside mvm_real and subtracts
      // afterwards, so each product must round before the subtract. A
      // store does not force that: on FMA targets GCC fused `p*scale` into
      // the subtract even through this staging, breaking batched-vs-
      // per-sample identity. The library builds with -ffp-contract=off
      // (src/msim/CMakeLists.txt), which keeps every product rounded.
      float yn[8];
      for (std::size_t s = 0; s < nl; ++s)
        yn[s] = static_cast<float>(accn[o * nl + s]) * scale;
      for (std::size_t s = 0; s < nl; ++s) ro[s] -= yn[s];
    }
  };
  const int phases = signed_input ? 2 : 1;
  if (fused_batch_path())
    fused_batch(batch, phases, fill, emit);
  else
    sample_batch(batch, phases, fill, emit);
  return result;
}

void AnalogLayerSim::reset_stats() {
  stats_ = MsimStats{};
  adc_.reset_stats();
}

MsimStats AnalogLayerSim::stats_snapshot() const {
  std::lock_guard<std::mutex> lk(*stats_mu_);
  return stats_;
}

void AnalogLayerSim::prefetch_plan() const {
  // Touch the first cache lines of the streams the layer's execution path
  // sweeps first; the hardware prefetcher picks up the sequential walk from
  // there. Stride by one cache line (8 words / 16 int32) over a small head
  // window so the hint stays cheap even for large layers.
  constexpr std::size_t kHeadSlots = 512;   // ~2-4 KiB per stream
  const std::size_t slots = std::min(kHeadSlots, soa_row_.size());
  for (std::size_t i = 0; i < slots; i += 16) {
    TINYADC_PREFETCH(soa_row_.data() + i);
    TINYADC_PREFETCH(soa_mag_.data() + i);
  }
  if (exec_path_ == ExecPath::kGeneral) {
    const std::size_t lv = std::min(kHeadSlots, soa_level_.size());
    for (std::size_t i = 0; i < lv; i += 16)
      TINYADC_PREFETCH(soa_level_.data() + i);
  }
  if (!soa_seg_.empty()) TINYADC_PREFETCH(soa_seg_.data());
}

AnalogLayerSim::AnalogLayerSim(const xbar::MappedLayer& layer,
                               MsimConfig config, RestoredState&& restored)
    : layer_(layer),
      config_(config),
      adc_(restored.adc_bits),
      variation_(std::move(restored.variation)),
      soa_out_(std::move(restored.out)),
      soa_seg_(std::move(restored.seg)),
      soa_row_(std::move(restored.row)),
      soa_mag_(std::move(restored.mag)),
      soa_level_(std::move(restored.level)),
      soa_var_(std::move(restored.var)),
      soa_denom_(std::move(restored.denom)),
      plan_ideal_(restored.plan_ideal),
      stats_mu_(std::make_unique<std::mutex>()) {
  check_accumulator_headroom();
  // Path resolution is recomputed from the loaded streams — never a plan
  // compilation.
  if (config_.use_plan) finalize_plan();
}

void AnalogLayerSim::serialize(artifact::SectionWriter& w) const {
  w.pod(static_cast<std::int32_t>(adc_.bits()));
  w.pod(static_cast<std::uint8_t>(plan_ideal_ ? 1 : 0));
  w.pod(static_cast<std::uint64_t>(variation_.size()));
  for (const auto& v : variation_) w.vec(v);
  w.pod(static_cast<std::uint8_t>(config_.use_plan ? 1 : 0));
  if (!config_.use_plan) return;
  // v3 payload: the canonical SoA streams as 64-byte-aligned arrays
  // (vec_aligned), so a mapped load can hand the executors read-only spans
  // over the file instead of copies.
  w.pod(static_cast<std::uint64_t>(soa_out_.size()));
  w.vec_aligned(soa_out_);
  w.vec_aligned(soa_seg_);
  w.vec_aligned(soa_row_);
  w.vec_aligned(soa_mag_);
  w.vec_aligned(soa_level_);
  w.vec_aligned(soa_var_);
  w.vec_aligned(soa_denom_);
}

std::unique_ptr<AnalogLayerSim> AnalogLayerSim::deserialize(
    const xbar::MappedLayer& layer, MsimConfig config,
    artifact::SectionReader& r, std::uint32_t version) {
  const auto& cfg = layer.config;
  const int slices = cfg.slices();
  RestoredState s;

  s.adc_bits = r.pod<std::int32_t>();
  const int expected_bits = config.adc_bits_override >= 0
                                ? config.adc_bits_override
                                : layer.required_adc_bits();
  TINYADC_CHECK(s.adc_bits == expected_bits,
                "layer " << layer.name << ": artifact ADC has " << s.adc_bits
                         << " bits, configuration requires " << expected_bits);
  s.plan_ideal = r.pod<std::uint8_t>() != 0;

  const auto nvar = r.pod<std::uint64_t>();
  TINYADC_CHECK((nvar > 0) == (config.variation_sigma > 0.0),
                "layer " << layer.name
                         << ": variation state disagrees with "
                            "variation_sigma");
  TINYADC_CHECK(nvar == 0 || nvar == layer.blocks.size(),
                "layer " << layer.name << ": " << nvar
                         << " variation blocks, mapping has "
                         << layer.blocks.size());
  s.variation.reserve(static_cast<std::size_t>(nvar));
  for (std::uint64_t i = 0; i < nvar; ++i) {
    auto v = r.vec<float>();
    const auto& b = layer.blocks[static_cast<std::size_t>(i)];
    TINYADC_CHECK(v.size() == static_cast<std::size_t>(b.rows * b.cols *
                                                       slices),
                  "layer " << layer.name << ": variation block " << i
                           << " holds " << v.size() << " draws, expected "
                           << b.rows * b.cols * slices);
    for (const float f : v)
      TINYADC_CHECK(std::isfinite(f) && f > 0.0F,
                    "layer " << layer.name
                             << ": non-finite variation factor");
    s.variation.push_back(std::move(v));
  }

  const bool has_plan = r.pod<std::uint8_t>() != 0;
  TINYADC_CHECK(has_plan == config.use_plan,
                "layer " << layer.name
                         << ": artifact plan presence disagrees with "
                            "MsimConfig::use_plan");
  if (has_plan) {
    TINYADC_CHECK(s.plan_ideal ==
                      plan_ideal_for(layer, config, nvar > 0),
                  "layer " << layer.name
                           << ": stored ideal-path flag disagrees with the "
                              "configuration");
    std::size_t npairs_expected = 0;
    for (const auto& b : layer.blocks)
      npairs_expected += static_cast<std::size_t>(b.cols);
    const auto npairs = r.pod<std::uint64_t>();
    TINYADC_CHECK(npairs == npairs_expected,
                  "layer " << layer.name << ": plan has " << npairs
                           << " conversion pairs, mapping needs "
                           << npairs_expected);
    if (version >= 3) {
      // --- v3: 64-byte-aligned SoA streams. On a mapped artifact these
      // come back as borrowed spans over the file (zero-copy); on a copied
      // load arr_aligned degrades to an owned copy. Either way the shared
      // validation below re-checks every structural invariant — and, on a
      // mapped load, doubles as the page-touch warm-up of the hot streams.
      s.out = r.arr_aligned<std::int64_t>("plan outs");
      s.seg = r.arr_aligned<std::uint64_t>("plan segment table");
      s.row = r.arr_aligned<std::int32_t>("plan row stream");
      s.mag = r.arr_aligned<std::int32_t>("plan magnitude stream");
      s.level = r.arr_aligned<std::int32_t>("plan level stream");
      s.var = r.arr_aligned<float>("plan variation stream");
      s.denom = r.arr_aligned<double>("plan IR-divisor stream");
    } else if (version == 2) {
      // --- v2: the SoA streams as plain (unaligned) arrays; always copied.
      std::vector<std::int64_t> out;
      out.reserve(static_cast<std::size_t>(npairs));
      for (std::uint64_t pi = 0; pi < npairs; ++pi)
        out.push_back(r.pod<std::int64_t>());
      s.out = std::move(out);
      const auto nseg = r.pod<std::uint64_t>();
      TINYADC_CHECK(nseg == 2 * npairs + 1,
                    "layer " << layer.name << ": plan segment table holds "
                             << nseg << " offsets, expected "
                             << 2 * npairs + 1);
      std::vector<std::uint64_t> seg;
      seg.reserve(static_cast<std::size_t>(nseg));
      for (std::uint64_t i = 0; i < nseg; ++i)
        seg.push_back(r.pod<std::uint64_t>());
      s.seg = std::move(seg);
      s.row = r.vec<std::int32_t>();
      s.mag = r.vec<std::int32_t>();
      s.level = r.vec<std::int32_t>();
      s.var = r.vec<float>();
      s.denom = r.vec<double>();
    } else {
      // --- v1: the PR-3 AoS entry arrays; validate exactly as the v1
      // reader did, then merge each (pair, polarity)'s slice planes into
      // one SoA segment. Rows within a plane ascend, so the union of a
      // polarity's planes (every |q| ≥ 1 weight appears in ≥ 1 plane)
      // sorts back into the dense scan order. -----------------------------
      const std::size_t planes_per_pair =
          2 * static_cast<std::size_t>(slices);
      // Each pair stores its output column and its first plane slot,
      // which must be pi·planes_per_pair (planes are contiguous).
      std::vector<std::int64_t> pair_out;
      pair_out.reserve(static_cast<std::size_t>(npairs));
      for (std::uint64_t pi = 0; pi < npairs; ++pi) {
        const auto out = r.pod<std::int64_t>();
        const auto plane0 = r.pod<std::uint64_t>();
        TINYADC_CHECK(out >= 0 && out < layer.cols,
                      "layer " << layer.name << ": plan pair " << pi
                               << " targets output column " << out);
        TINYADC_CHECK(plane0 == pi * planes_per_pair,
                      "layer " << layer.name << ": plan pair " << pi
                               << " has corrupt plane offset");
        pair_out.push_back(out);
      }
      const auto noffsets = r.pod<std::uint64_t>();
      TINYADC_CHECK(noffsets == npairs * planes_per_pair + 1,
                    "layer " << layer.name << ": plan offset table holds "
                             << noffsets << " entries, expected "
                             << npairs * planes_per_pair + 1);
      std::vector<std::size_t> offsets;
      offsets.reserve(static_cast<std::size_t>(noffsets));
      for (std::uint64_t i = 0; i < noffsets; ++i) {
        const auto off = r.pod<std::uint64_t>();
        TINYADC_CHECK((i == 0 && off == 0) ||
                          (i > 0 && off >= offsets.back()),
                      "layer " << layer.name
                               << ": plan offsets are not monotone");
        offsets.push_back(static_cast<std::size_t>(off));
      }
      const auto x = r.vec<std::int32_t>();
      const auto level = r.vec<std::int32_t>();
      const auto var = r.vec<float>();
      const auto denom = r.vec<double>();
      const std::size_t entries = offsets.back();
      TINYADC_CHECK(x.size() == entries && level.size() == entries &&
                        var.size() == entries && denom.size() == entries,
                    "layer " << layer.name
                             << ": plan entry arrays disagree with the "
                                "offset table (" << entries << " entries)");
      const std::int32_t max_level = (1 << cfg.cell_bits) - 1;
      for (std::size_t e = 0; e < entries; ++e) {
        TINYADC_CHECK(x[e] >= 0 &&
                          static_cast<std::int64_t>(x[e]) < layer.rows,
                      "layer " << layer.name << ": plan entry " << e
                               << " reads activation row " << x[e]);
        TINYADC_CHECK(level[e] > 0 && level[e] <= max_level,
                      "layer " << layer.name << ": plan entry " << e
                               << " holds cell level " << level[e]);
        TINYADC_CHECK(std::isfinite(var[e]) && var[e] > 0.0F &&
                          std::isfinite(denom[e]) && denom[e] >= 1.0,
                      "layer " << layer.name << ": plan entry " << e
                               << " holds implausible analog factors");
      }

      // AoS → SoA conversion (into owned vectors; the ArrayRef members
      // adopt them below).
      std::vector<std::int64_t> c_out;
      std::vector<std::uint64_t> c_seg;
      std::vector<std::int32_t> c_row, c_mag, c_level;
      std::vector<float> c_var;
      std::vector<double> c_denom;
      c_seg.push_back(0);
      std::vector<std::int32_t> seg_rows;
      for (std::uint64_t pi = 0; pi < npairs; ++pi) {
        c_out.push_back(pair_out[static_cast<std::size_t>(pi)]);
        const std::size_t plane0 =
            static_cast<std::size_t>(pi) * planes_per_pair;
        for (int pol = 0; pol < 2; ++pol) {
          const std::size_t sp0 =
              plane0 + static_cast<std::size_t>(pol) *
                           static_cast<std::size_t>(slices);
          seg_rows.clear();
          for (int sl = 0; sl < slices; ++sl)
            for (std::size_t e = offsets[sp0 + static_cast<std::size_t>(sl)];
                 e < offsets[sp0 + static_cast<std::size_t>(sl) + 1]; ++e)
              seg_rows.push_back(x[e]);
          std::sort(seg_rows.begin(), seg_rows.end());
          seg_rows.erase(std::unique(seg_rows.begin(), seg_rows.end()),
                         seg_rows.end());
          const std::size_t len = seg_rows.size();
          const std::size_t slot0 = c_row.size();
          for (const std::int32_t row : seg_rows) {
            c_row.push_back(row);
            c_mag.push_back(0);
            c_denom.push_back(1.0);
          }
          c_level.resize(c_level.size() +
                             len * static_cast<std::size_t>(slices),
                         0);
          c_var.resize(c_var.size() + len * static_cast<std::size_t>(slices),
                       1.0F);
          const std::size_t lbase = slot0 * static_cast<std::size_t>(slices);
          for (int sl = 0; sl < slices; ++sl) {
            for (std::size_t e = offsets[sp0 + static_cast<std::size_t>(sl)];
                 e < offsets[sp0 + static_cast<std::size_t>(sl) + 1]; ++e) {
              const auto it = std::lower_bound(seg_rows.begin(),
                                               seg_rows.end(), x[e]);
              const auto li = static_cast<std::size_t>(
                  it - seg_rows.begin());
              c_level[lbase + static_cast<std::size_t>(sl) * len + li] =
                  level[e];
              c_var[lbase + static_cast<std::size_t>(sl) * len + li] = var[e];
              c_mag[slot0 + li] += level[e] << (sl * cfg.cell_bits);
              c_denom[slot0 + li] = denom[e];
            }
          }
          c_seg.push_back(c_row.size());
        }
      }
      s.out = std::move(c_out);
      s.seg = std::move(c_seg);
      s.row = std::move(c_row);
      s.mag = std::move(c_mag);
      s.level = std::move(c_level);
      s.var = std::move(c_var);
      s.denom = std::move(c_denom);
    }

    // --- Shared structural validation over the restored streams, for
    // every payload version (v3 spans, v2 copies, v1 conversions alike).
    // Anything inconsistent with the mapping is a CheckError, never UB.
    TINYADC_CHECK(s.out.size() == npairs,
                  "layer " << layer.name << ": plan out table holds "
                           << s.out.size() << " pairs, expected " << npairs);
    for (std::size_t pi = 0; pi < s.out.size(); ++pi)
      TINYADC_CHECK(s.out[pi] >= 0 && s.out[pi] < layer.cols,
                    "layer " << layer.name << ": plan pair " << pi
                             << " targets output column " << s.out[pi]);
    TINYADC_CHECK(s.seg.size() == 2 * npairs + 1,
                  "layer " << layer.name << ": plan segment table holds "
                           << s.seg.size() << " offsets, expected "
                           << 2 * npairs + 1);
    TINYADC_CHECK(s.seg[0] == 0,
                  "layer " << layer.name
                           << ": plan segment table does not start at 0");
    for (std::size_t i = 1; i < s.seg.size(); ++i)
      TINYADC_CHECK(s.seg[i] >= s.seg[i - 1],
                    "layer " << layer.name
                             << ": plan segments are not monotone");
    const auto slots = static_cast<std::size_t>(s.seg[s.seg.size() - 1]);
    TINYADC_CHECK(
        s.row.size() == slots && s.mag.size() == slots &&
            s.denom.size() == slots &&
            s.level.size() == slots * static_cast<std::size_t>(slices) &&
            s.var.size() == slots * static_cast<std::size_t>(slices),
        "layer " << layer.name
                 << ": plan stream lengths disagree with the segment "
                    "table (" << slots << " row slots)");
    const std::int32_t max_level = (1 << cfg.cell_bits) - 1;
    const std::int32_t max_mag =
        static_cast<std::int32_t>(
            (std::int64_t{1} << (slices * cfg.cell_bits)) - 1);
    for (std::size_t k = 0; k + 1 < s.seg.size(); ++k) {
      const auto i0 = static_cast<std::size_t>(s.seg[k]);
      const auto i1 = static_cast<std::size_t>(s.seg[k + 1]);
      const std::size_t len = i1 - i0;
      const std::size_t lbase = i0 * static_cast<std::size_t>(slices);
      for (std::size_t i = 0; i < len; ++i) {
        const std::int32_t row = s.row[i0 + i];
        TINYADC_CHECK(row >= 0 && static_cast<std::int64_t>(row) <
                                      layer.rows,
                      "layer " << layer.name << ": plan slot reads "
                               << "activation row " << row);
        TINYADC_CHECK(i == 0 || s.row[i0 + i - 1] < row,
                      "layer " << layer.name
                               << ": plan segment rows are not ascending");
        const std::int32_t mag = s.mag[i0 + i];
        TINYADC_CHECK(mag > 0 && mag <= max_mag,
                      "layer " << layer.name
                               << ": plan slot holds magnitude " << mag);
        std::int32_t recomposed = 0;
        for (int sl = 0; sl < slices; ++sl) {
          const std::int32_t level =
              s.level[lbase + static_cast<std::size_t>(sl) * len + i];
          TINYADC_CHECK(level >= 0 && level <= max_level,
                        "layer " << layer.name
                                 << ": plan slot holds cell level "
                                 << level);
          const float vf =
              s.var[lbase + static_cast<std::size_t>(sl) * len + i];
          TINYADC_CHECK(std::isfinite(vf) && vf > 0.0F,
                        "layer " << layer.name
                                 << ": non-finite plan variation factor");
          // build_plan stores exactly 1.0 without variation. An ideal plan
          // that may clip runs the general lanes, which multiply by it.
          TINYADC_CHECK(nvar > 0 || vf == 1.0F,
                        "layer " << layer.name << ": plan variation factor "
                                 << vf << " on a layer without variation");
          recomposed += level << (sl * cfg.cell_bits);
        }
        TINYADC_CHECK(recomposed == mag,
                      "layer " << layer.name
                               << ": plan slot slices recompose to "
                               << recomposed << ", magnitude says " << mag);
        // The compiler writes 1 + α·depth·load ≥ 1. A divisor below 1
        // could make the general path's w = level·var/denom infinite, and
        // 0·inf = NaN would break its +0.0 identity (DESIGN.md §12).
        TINYADC_CHECK(std::isfinite(s.denom[i0 + i]) &&
                          s.denom[i0 + i] >= 1.0,
                      "layer " << layer.name
                               << ": plan IR divisor "
                               << s.denom[i0 + i] << " is not a finite "
                                  "value >= 1");
        TINYADC_CHECK(config.ir_drop_alpha > 0.0 || s.denom[i0 + i] == 1.0,
                      "layer " << layer.name << ": plan IR divisor "
                               << s.denom[i0 + i]
                               << " on a layer without IR drop");
      }
    }
  }
  return std::unique_ptr<AnalogLayerSim>(
      new AnalogLayerSim(layer, config, std::move(s)));
}

std::vector<AnalogLayerSim> make_network_sims(const xbar::MappedNetwork& net,
                                              const MsimConfig& config) {
  std::vector<AnalogLayerSim> sims;
  sims.reserve(net.layers.size());
  for (const auto& layer : net.layers) sims.emplace_back(layer, config);
  return sims;
}

}  // namespace tinyadc::msim
