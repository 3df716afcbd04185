#include "src/harness/decimal.h"

#include <limits>

namespace odyssey {

bool ParseDecimalU64(std::string_view text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace odyssey
