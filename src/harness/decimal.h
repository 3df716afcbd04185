// Strict decimal parsing for seeds and counts read from the command line
// and from artifacts, plus the flag and file helpers the command-line
// tools share.

#ifndef SRC_HARNESS_DECIMAL_H_
#define SRC_HARNESS_DECIMAL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace odyssey {

// Parses |text| as a uint64 written in plain decimal: one or more ASCII
// digits and nothing else — no sign, no whitespace, no base prefix — whose
// value fits in 64 bits.  Returns false (leaving |*out| untouched) for
// anything else, so "-1" is rejected rather than wrapped to 2^64 - 1 and a
// 20-digit value past 2^64 - 1 is rejected rather than clamped.
bool ParseDecimalU64(std::string_view text, uint64_t* out);

// True when |arg| is "--<name>=<value>"; stores <value> in |*out|.
bool FlagValue(const std::string& arg, const std::string& name, std::string* out);

// Writes |text| to |path|, replacing its contents.  Returns false when the
// file cannot be opened or any byte fails to reach it (the stream is
// flushed before it is checked, so a full device is reported).
bool WriteFile(const std::string& path, std::string_view text);

}  // namespace odyssey

#endif  // SRC_HARNESS_DECIMAL_H_
