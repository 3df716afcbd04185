#include "src/harness/decimal.h"

#include <fstream>
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

bool FlagValue(const std::string& arg, const std::string& name, std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = arg.substr(prefix.size());
  return true;
}

bool WriteFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace odyssey
