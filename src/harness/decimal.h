// Strict decimal parsing for seeds and counts read from the command line
// and from artifacts.

#ifndef SRC_HARNESS_DECIMAL_H_
#define SRC_HARNESS_DECIMAL_H_

#include <cstdint>
#include <string_view>

namespace odyssey {

// Parses |text| as a uint64 written in plain decimal: one or more ASCII
// digits and nothing else — no sign, no whitespace, no base prefix — whose
// value fits in 64 bits.  Returns false (leaving |*out| untouched) for
// anything else, so "-1" is rejected rather than wrapped to 2^64 - 1 and a
// 20-digit value past 2^64 - 1 is rejected rather than clamped.
bool ParseDecimalU64(std::string_view text, uint64_t* out);

}  // namespace odyssey

#endif  // SRC_HARNESS_DECIMAL_H_
