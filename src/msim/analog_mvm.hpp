// Functional simulation of bit-serial analog matrix-vector multiplication.
//
// Pipeline per MVM (mirroring ISAAC's datapath):
//   1. DAC: each unsigned activation code streams in v-bit chunks.
//   2. Crossbar: per cycle, every (block, logical column, slice plane,
//      polarity) produces an analog sum Σ_rows chunk[r] · cell_level[r]
//      in LSB units; zero weights contribute nothing (their cells sit at
//      G_off), which is how CP pruning deactivates rows.
//   3. Sample & hold + ADC: each analog sum is digitized by the block's ADC
//      (Eq. 1-sized by default, overridable to study clipping).
//   4. Shift & add: digital accumulation re-weights codes by input-cycle
//      (·2^{t·v}), slice plane (·2^{s·cell_bits}) and polarity (±).
//
// With variation_sigma == 0 the result equals the integer reference MVM
// exactly whenever the ADC satisfies Eq. 1 (property P2). With variation,
// each cell's level is perturbed once at construction (a programmed chip)
// and the ADC's nearest-code rounding either absorbs the error (< ½ LSB per
// column) or not — the basis of the robustness analyses.
//
// Execution cost: CP pruning guarantees at most l ≪ r active rows per
// column, and the cell programming is static, so the per-column
// decomposition (signs, slice levels, variation, IR-drop attenuation) is
// hoisted into a packed execution plan at construction. The plan is stored
// as column-blocked SoA streams — one contiguous segment of active rows per
// (block, column, polarity), with separate row-index / magnitude /
// per-slice level / variation / IR-divisor arrays — so the inner loops are
// flat array sweeps the compiler can vectorize. Two execution paths share
// the streams (see DESIGN.md §12):
//
//   fused     ideal datapath whose ADC provably never clips: the
//             shift-and-add over (slice, cycle) telescopes exactly into
//             one sparse integer dot product Σ |q_i|·x_i per polarity.
//   general   every other plan (variation, IR drop, or an ADC that may
//             clip): per segment, only the operands with a nonzero
//             activation code are gathered, and only the DAC cycles their
//             OR-ed codes reach and the slices their OR-ed weight
//             magnitudes reach (the live cycles and slices) are summed and
//             converted. Each gathered operand's
//             level·variation (and, on a 1-bit DAC, its IR-drop divide)
//             is formed once per (segment, slice), feeding one
//             branch-free lane per live cycle that sums in the dense
//             scan's operand order. Each lane equals the dense double bit
//             for bit:
//             - exact numerator: cell_bits ≤ 8 and dac_bits ≤ 16 keep
//               level·chunk < 2^24, and var is a float, so (level·chunk)·var
//               and chunk·(level·var) are the same exact double;
//             - divides: without IR drop every divisor is 1.0 and
//               x/1.0 == x; on a 1-bit DAC chunk ∈ {0,1}, so the term is
//               chunk·((level·var)/denom), one divide per operand;
//             - +0.0 identity: a zero level (skipped by the dense scan),
//               a zero code or a zero chunk makes its term +0.0 — every
//               w = level·var/denom is finite and ≥ 0, as the loader
//               requires divisors ≥ 1 — and adding +0.0 changes no sum of
//               non-negative terms (such a sum is never −0.0). So skipped
//               zero codes change no bit, and a dead slice's or cycle's
//               sum is +0.0, which converts to code 0 and never clips;
//               its conversions are credited in bulk;
//             - inline rounding: Adc::convert, the single rounding rule of
//               every path, equals llround then the full-scale clamp.
//             An ideal plan that may clip runs here too: its variation
//             factors and divisors are exactly 1.0 (the loader enforces
//             it), and plan_ideal_for bounds its sums below 2^53, so every
//             product and sum is an exact integer-valued double and
//             Adc::convert reduces to the integer saturation.
//
// Both paths are bit-identical — outputs AND ADC counters — to the dense
// row-scan model of the same datapath, at every thread count. That model
// is the test oracle; it lives in the tinyadc_reference target
// (src/reference/dense_sim.hpp), which only tests and benches link.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "artifact/array_ref.hpp"
#include "msim/adc.hpp"
#include "msim/dac.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::artifact {
class SectionWriter;
class SectionReader;
}  // namespace tinyadc::artifact

namespace tinyadc::msim {

/// Simulation knobs.
struct MsimConfig {
  int adc_bits_override = -1;    ///< −1: per-layer Eq. 1 sizing; ≥0: forced
  double variation_sigma = 0.0;  ///< relative conductance spread (paper: 0.1)
  /// Wire-resistance (IR-drop) coefficient: a cell `r` rows down the
  /// bitline sees its contribution attenuated by 1 / (1 + α·(r+1)/rows·L),
  /// where L is the column's share of the total current (here: the number
  /// of active cells above it, normalized). α = 0 is the ideal wire. CP
  /// pruning reduces the current each bitline aggregates, so pruned
  /// columns suffer proportionally less IR drop — an analog-domain benefit
  /// on top of the ADC saving.
  double ir_drop_alpha = 0.0;
  std::uint64_t seed = 99;       ///< variation draw seed
};

/// Artifact (de)serialization of the simulation knobs (the PLANS section's
/// config header).
void serialize(const MsimConfig& config, artifact::SectionWriter& w);
MsimConfig deserialize_msim_config(artifact::SectionReader& r);

/// Aggregate statistics from a simulation run.
struct MsimStats {
  std::int64_t adc_conversions = 0;
  std::int64_t adc_clip_events = 0;
  std::int64_t dac_cycles = 0;
};

/// Simulates one mapped layer's analog MVM datapath.
///
/// Construction snapshots the layer into a sparsity-packed execution plan
/// (O(l) work per column, l = active rows), so the mapped layer must not
/// be mutated for the lifetime of the sim. Construction also verifies that
/// the largest shifted ADC code the shift-and-add stage can produce fits
/// the int64 accumulator (throws CheckError on overflow-prone
/// configurations instead of silently wrapping).
class AnalogLayerSim {
 public:
  AnalogLayerSim(const xbar::MappedLayer& layer, MsimConfig config);

  /// Writes the compiled execution state — ADC sizing, programmed variation
  /// draws, and the canonical SoA plan streams — into a deployment
  /// artifact, so a redeployment can *load* the plan instead of recompiling
  /// it.
  void serialize(artifact::SectionWriter& w) const;

  /// Reconstructs a simulator from state written by serialize(). Never
  /// invokes the plan compiler (build_plan) or redraws variation: the
  /// restored sim executes exactly the serialized operands, and every
  /// structural invariant of the plan is re-validated against `layer`.
  static std::unique_ptr<AnalogLayerSim> deserialize(
      const xbar::MappedLayer& layer, MsimConfig config,
      artifact::SectionReader& r);

  /// Process-wide count of plan compilations (build_plan runs). Lets tests
  /// and benches prove that artifact loading touches no compilation path.
  static std::int64_t plan_compilations();

  /// Integer-domain MVM: unsigned activation codes in, signed column sums
  /// out (same contract as xbar::reference_mvm). Crossbar blocks convert in
  /// parallel ("all arrays in parallel", like the hardware) with a
  /// fixed-order merge, so results and statistics are bit-identical at any
  /// thread count; concurrent mvm() calls on one sim are also safe (the
  /// statistics merge is the only shared mutation and is locked).
  std::vector<std::int64_t> mvm(const std::vector<std::int32_t>& x);

  /// Batched integer MVM: `xs` holds `batch` row-major samples of
  /// layer-rows codes each; the result holds `batch` rows of layer-cols
  /// sums. Equivalent to `batch` mvm() calls (outputs and statistics
  /// bit-identical, dac_cycles advances once per sample). On the fused
  /// path it walks the plan streams once per block of up to 8 samples,
  /// one integer lane per sample — the serve path's multi-column fast
  /// lane; the general path runs the sample loop (see sample_batch).
  std::vector<std::int64_t> mvm_batch(const std::vector<std::int32_t>& xs,
                                      std::int64_t batch);

  /// Real-domain MVM: quantizes `x_real` with `x_quant`, runs the analog
  /// datapath, and rescales the digital result to real units. Inputs must
  /// be non-negative (post-ReLU activations).
  std::vector<float> mvm_real(const std::vector<float>& x_real,
                              const xbar::QuantParams& x_quant);

  /// Signed-input variant: splits the input into its positive and negative
  /// parts, streams each through the crossbar separately, and subtracts
  /// digitally — the standard two-phase scheme for pre-activation inputs
  /// (e.g. the first conv layer's raw pixels).
  std::vector<float> mvm_real_signed(const std::vector<float>& x_real,
                                     const xbar::QuantParams& x_quant);

  /// Batched real-domain MVM over `batch` row-major samples; handles the
  /// signed two-phase split internally. Bit-identical to per-sample
  /// mvm_real / mvm_real_signed calls.
  std::vector<float> mvm_real_batch(const std::vector<float>& xs,
                                    std::int64_t batch,
                                    const xbar::QuantParams& x_quant,
                                    bool signed_input);

  /// mvm_real_batch over the columns of a (layer-rows × batch) matrix — a
  /// conv's im2col patch matrix, one sample per column — returning the
  /// (layer-cols × batch) result matrix. Both batch paths quantize straight
  /// from the matrix (the fused path a block of up to 8 columns into its
  /// sample lanes, the sample loop one column at a time), so no transposed
  /// copy or batch-sized code array is made.
  Tensor mvm_real_columns(const Tensor& x_cols,
                          const xbar::QuantParams& x_quant, bool signed_input);

  /// The ADC resolution in use.
  int adc_bits() const { return adc_.bits(); }
  /// The programmed chip's per-cell variation factors, one vector per
  /// crossbar block laid out [r * cols * slices + c * slices + s]; empty
  /// without variation. Lets a reference model replay the same draws.
  const std::vector<std::vector<float>>& variation() const {
    return variation_;
  }
  /// Statistics accumulated over all mvm() calls. Unsynchronized view —
  /// only read while no mvm() is in flight.
  const MsimStats& stats() const { return stats_; }
  /// Locked copy of the statistics; safe to call while concurrent mvm()
  /// calls are running (used by the serving engine's live stats snapshot).
  MsimStats stats_snapshot() const;
  /// Zeroes statistics.
  void reset_stats();

 private:
  // Which inner loop executes the plan (resolved once per layer from the
  // datapath's properties).
  enum class ExecPath : std::uint8_t { kFused, kGeneral };

  // Execution state restored from an artifact (see deserialize()): the
  // canonical SoA streams, exactly as finalize_plan() documents them. The
  // stream arrays are ArrayRefs: a payload read from a mapped artifact
  // restores them as borrowed spans over the mapping (zero-copy — the
  // SectionReader's keeper holds the MappedFile alive), while copied loads
  // restore owned vectors. Either way the executors see the same bytes.
  struct RestoredState {
    int adc_bits = 0;
    bool plan_ideal = false;
    std::vector<std::vector<float>> variation;
    artifact::ArrayRef<std::int64_t> out;
    artifact::ArrayRef<std::uint64_t> seg;
    artifact::ArrayRef<std::int32_t> row;
    artifact::ArrayRef<std::int32_t> mag;
    artifact::ArrayRef<std::int32_t> level;
    artifact::ArrayRef<float> var;
    artifact::ArrayRef<double> denom;
  };

  AnalogLayerSim(const xbar::MappedLayer& layer, MsimConfig config,
                 RestoredState&& restored);
  void check_accumulator_headroom() const;

  void build_plan();
  // Computes the fused-path clipping predicate from the SoA streams and
  // resolves the execution path. Shared by build_plan and deserialize so a
  // loaded plan provably dispatches through the same inner loops.
  void finalize_plan();

  // Caller-owned working memory of the general path, sized once per layer
  // by make_kernel_scratch(), so no kernel allocates.
  struct KernelScratch {
    // Nonzero operands' local slots, then their codes.
    std::vector<std::int32_t> ops;
    std::vector<double> live_chunks;  // live chunks per operand
  };
  // One sample's packed-MVM buffers: the per-pair sums and the kernel
  // scratch. One set serves every sample of a batch-loop range.
  struct SampleScratch {
    std::vector<std::int64_t> pair_acc;
    KernelScratch kernel;
  };
  KernelScratch make_kernel_scratch() const;
  SampleScratch make_sample_scratch() const;

  // Per-sample executor: reads layer_rows codes at `x`, converts pairs
  // [p0, p1) on the layer's path into the caller's per-pair slots, and
  // accumulates that range's ADC counters.
  void exec_pairs(const std::int32_t* x, std::int64_t p0, std::int64_t p1,
                  std::int64_t* pair_acc, KernelScratch& scratch,
                  AdcCounters& counters) const;
  // The general path (defined in analog_mvm.cpp).
  void exec_general(const std::int32_t* x, std::int64_t p0, std::int64_t p1,
                    std::int64_t* pair_acc, KernelScratch& scratch,
                    AdcCounters& counters) const;

  // Batch dispatch: fan samples out only above the plan-work threshold;
  // the fused sample lanes serve the fused path (see fused_batch), the
  // sample loop every other path (see sample_batch).
  bool batch_serial(std::int64_t batch) const;
  bool fused_batch_path() const;
  // The fused batch: samples run in blocks of 8, 4 or 1 lanes (the widest
  // the samples left fill). Per block, fill(b0, lanes, pos, neg) writes
  // the codes of each of `phases` input phases (neg only when the signed
  // split streams two) as [row][lane]; the block's column sums, as
  // [column][lane], go to emit(b0, lanes, acc_pos, acc_neg). Defined in
  // analog_mvm.cpp.
  template <typename Fill, typename Emit>
  void fused_batch(std::int64_t batch, int phases, const Fill& fill,
                   const Emit& emit);
  // The non-fused batch: each worker range owns one code buffer, one
  // column-sum buffer and one SampleScratch, and runs its samples one at
  // a time through the general path. Each sample is a one-lane block of
  // the fused_batch contract: fill(s, 1, pos, neg) writes its codes,
  // emit(s, 1, y_pos, y_neg) takes its column sums. Counters merge once
  // per call. Defined in analog_mvm.cpp.
  template <typename Fill, typename Emit>
  void sample_batch(std::int64_t batch, int phases, const Fill& fill,
                    const Emit& emit);

  // One sample through the packed plan: validates the codes at `x`, writes
  // the layer_cols column sums to `y` and adds the ADC counters to
  // `counters` (the caller merges the statistics). A big plan outside a
  // parallel region fans its pairs out over the pool.
  void packed_sample(const std::int32_t* x, SampleScratch& scratch,
                     std::int64_t* y, AdcCounters& counters) const;
  // Validates that one sample's codes fit the layer's input_bits.
  void check_codes(const std::int32_t* x) const;
  void merge_stats(const AdcCounters& counters, std::int64_t dac_cycles);

  const xbar::MappedLayer& layer_;
  MsimConfig config_;
  Adc adc_;
  // Per-block per-cell multiplicative variation factors for the magnitude
  // slices, laid out [block][r * cols * slices + c * slices + s].
  std::vector<std::vector<float>> variation_;

  // --- Canonical SoA execution plan -------------------------------------
  // For every (block, logical column) conversion pair pi and polarity pol,
  // segment k = 2·pi + pol holds that plane-group's active rows in
  // ascending order: soa_seg_ is the CSR offset table over the row slots,
  // soa_row_[i] the activation row index, soa_mag_[i] the
  // whole weight magnitude |q| (= Σ_s level·2^{s·cell_bits}), and
  // soa_denom_[i] the per-row IR-drop divisor. Slice-resolved streams are
  // rectangular (zeros included) and slice-major per segment:
  // soa_level_/soa_var_ at [soa_seg_[k]·slices + s·len_k + local_i]. The
  // rectangle is bit-safe (a zero level's term is +0.0, see the file
  // header) and lets every slice of a segment stream contiguously.
  // The streams are ArrayRefs (artifact/array_ref.hpp): plan compilation
  // produces owned vectors, while a mapped artifact load restores them
  // as read-only spans over the file mapping (zero-copy; the ArrayRef's
  // keeper pins the MappedFile). Executors only read, so both storage
  // modes run the same inner loops on the same bytes.
  artifact::ArrayRef<std::int64_t> soa_out_;   // pair → original output col
  artifact::ArrayRef<std::uint64_t> soa_seg_;  // 2·pairs + 1 slot offsets
  artifact::ArrayRef<std::int32_t> soa_row_;   // slot → activation row
  artifact::ArrayRef<std::int32_t> soa_mag_;   // slot → weight magnitude |q|
  artifact::ArrayRef<std::int32_t> soa_level_; // slot×slice → level (rect.)
  artifact::ArrayRef<float> soa_var_;          // slot×slice → variation
  artifact::ArrayRef<double> soa_denom_;       // slot → IR-drop divisor

  bool plan_ideal_ = false;  // no variation and no IR drop: integer datapath
  // Every IR divisor is exactly 1.0, so the general path skips the divide
  // (x / 1.0 == x). Taken from the streams, not the config, so a loaded
  // plan divides exactly where its stored divisors say.
  bool unit_denom_ = false;
  // Fused-path predicate: the worst-case plane sum (all chunks at full
  // scale) over every (pair, polarity, slice) plane. When it fits the
  // ADC's full scale no conversion can ever clip, so the shift-and-add
  // telescopes exactly (DESIGN.md §12).
  std::int64_t worst_plane_sum_ = 0;
  // Largest worst-case fused per-polarity partial Σ |q|·x — when it fits
  // int32 the fused dot accumulates in 32-bit lanes (twice the SIMD width).
  std::int64_t worst_fused_sum_ = 0;
  std::size_t max_seg_len_ = 0;  // longest segment: executor scratch size
  ExecPath exec_path_ = ExecPath::kGeneral;
  // Approximate per-MVM inner-loop work (weighted row slots; see
  // finalize_plan). Plans below the parallel threshold execute their pair
  // sweep inline — the pool's dispatch overhead dominates tiny plans, and
  // the serial sweep is the reference path, so results stay bit-identical.
  std::int64_t plan_work_ = 0;

  MsimStats stats_;
  // Guards stats_/adc_ counter merges under concurrent mvm() calls (held in
  // a unique_ptr so the sim stays movable for make_network_sims).
  std::unique_ptr<std::mutex> stats_mu_;
};

/// Convenience: simulate every layer of a mapped network on one shared
/// config, returning per-layer simulators.
std::vector<AnalogLayerSim> make_network_sims(const xbar::MappedNetwork& net,
                                              const MsimConfig& config);

}  // namespace tinyadc::msim
