// ADC behavioural model.
//
// In an ISAAC-style design the bitline current of one crossbar column is an
// integer multiple of the unit LSB current (cell level × input chunk), so an
// ideal b-bit ADC reproduces the column sum exactly iff the sum fits in
// 2^b − 1 codes — precisely the Eq. 1 sizing rule. This model rounds an
// analog (possibly variation-perturbed) sum to the nearest code and
// saturates at full scale, counting clip events so under-provisioned ADCs
// (the E9 ablation) are observable.
#pragma once

#include <algorithm>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tinyadc::msim {

/// std::max(0.0, x) — NaN, −0.0 and negatives give +0.0 — without a
/// data-dependent branch. GCC may compile the portable form into a
/// compare-and-jump once it is inlined into a lane loop, where sums of
/// exactly 0 are common and the jump mispredicts; x86's MAXSD returns its
/// second operand (+0.0) whenever the first is not greater, NaN included,
/// so it computes the same value branch-free.
inline double clamp_nonneg(double x) {
#if defined(__SSE2__)
  return _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(x), _mm_setzero_pd()));
#else
  return std::max(0.0, x);
#endif
}

/// Plain conversion counters for lock-free accumulation: parallel simulation
/// code converts against worker-local counters and merges them into the
/// owning Adc afterwards (see AnalogLayerSim::mvm), so the shared counters
/// are only touched serially.
struct AdcCounters {
  std::int64_t conversions = 0;
  std::int64_t clip_events = 0;
};

/// Behavioural ADC: rounds to the nearest integer code in [0, 2^bits − 1].
class Adc {
 public:
  /// `bits == 0` constructs a degenerate ADC that always outputs 0 (used
  /// for fully-pruned columns).
  explicit Adc(int bits);

  /// Converts an analog column sum expressed in LSB units.
  std::int64_t convert(double analog_sum) const;

  /// Conversion against caller-owned counters: touches no Adc state, so
  /// concurrent calls are safe. Merge the counters back with absorb().
  ///
  /// The one rounding definition every simulator path shares: the result
  /// equals std::llround(analog_sum) clamped to [0, full_scale()] (a clip
  /// counted when the rounded code exceeds full scale), computed exactly
  /// and without data-dependent branches. The sum is first clamped to
  /// [0, full_scale() + ½] — exact bounds, full_scale() < 2^24 — where
  /// truncation is an exact cast and `a − whole` an exact fraction, so
  /// adding `fraction ≥ ½` rounds half away from zero like llround. NaN
  /// converts to 0.
  std::int64_t convert(double analog_sum, AdcCounters& counters) const {
    const double cap = static_cast<double>(full_scale_) + 0.5;
    ++counters.conversions;
    counters.clip_events += full_scale_ > 0 && analog_sum >= cap ? 1 : 0;
    const double a = std::min(cap, clamp_nonneg(analog_sum));
    const auto whole = static_cast<std::int64_t>(a);
    const std::int64_t code =
        whole + (a - static_cast<double>(whole) >= 0.5 ? 1 : 0);
    return std::min(code, full_scale_);
  }

  /// Adds externally accumulated counters into this ADC's statistics.
  void absorb(const AdcCounters& counters);

  /// Resolution in bits.
  int bits() const { return bits_; }
  /// Largest representable code.
  std::int64_t full_scale() const { return full_scale_; }
  /// Conversions performed since construction/reset.
  std::int64_t conversions() const { return conversions_; }
  /// Conversions that saturated (information was lost).
  std::int64_t clip_events() const { return clip_events_; }
  /// Zeroes the statistics counters.
  void reset_stats();

 private:
  int bits_;
  std::int64_t full_scale_;
  mutable std::int64_t conversions_ = 0;
  mutable std::int64_t clip_events_ = 0;
};

}  // namespace tinyadc::msim
