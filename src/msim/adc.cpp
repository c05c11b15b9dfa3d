#include "msim/adc.hpp"

#include "tensor/check.hpp"

namespace tinyadc::msim {

Adc::Adc(int bits) : bits_(bits) {
  TINYADC_CHECK(bits >= 0 && bits <= 24, "ADC bits must be in [0, 24]");
  full_scale_ = bits == 0 ? 0 : (std::int64_t{1} << bits) - 1;
}

std::int64_t Adc::convert(double analog_sum) const {
  AdcCounters counters;
  const std::int64_t code = convert(analog_sum, counters);
  conversions_ += counters.conversions;
  clip_events_ += counters.clip_events;
  return code;
}

void Adc::absorb(const AdcCounters& counters) {
  conversions_ += counters.conversions;
  clip_events_ += counters.clip_events;
}

void Adc::reset_stats() {
  conversions_ = 0;
  clip_events_ = 0;
}

}  // namespace tinyadc::msim
