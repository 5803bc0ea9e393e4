// Checked numeric command-line flag parsing, shared by ms_cli and the
// bench binaries: a malformed value is a UsageError naming the flag (the
// caller prints it and exits 2), never an uncaught exception, a silent
// default or an out-of-range shift.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ms::sim {

/// A malformed flag on the command line.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The whole value must be a finite number (T floating) or an unsigned
/// integer that fits T (base 0 also takes a 0x prefix), else a UsageError
/// naming the flag.
template <typename T>
T parse_flag(const std::string& flag, const std::string& value,
             int base = 10) {
  const char* s = value.c_str();
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_floating_point_v<T>) {
    const T x = std::strtod(s, &end);
    if (end != s && *end == '\0' && errno == 0 && std::isfinite(x)) return x;
  } else {
    const unsigned long long x = std::strtoull(s, &end, base);
    if (std::isdigit(static_cast<unsigned char>(s[0])) && *end == '\0' &&
        errno == 0 && x <= std::numeric_limits<T>::max()) {
      return static_cast<T>(x);
    }
  }
  throw UsageError("invalid value '" + value + "' for " + flag +
                   (std::is_floating_point_v<T>
                        ? " (expected a number)"
                        : " (expected an unsigned integer)"));
}

/// parse_flag for an unsigned integer that must also lie in [lo, hi].
template <typename T>
T parse_flag_in(const std::string& flag, const std::string& value, T lo,
                T hi) {
  const T x = parse_flag<T>(flag, value);
  if (x < lo || x > hi) {
    throw UsageError("invalid value '" + value + "' for " + flag +
                     " (expected " + std::to_string(lo) + ".." +
                     std::to_string(hi) + ")");
  }
  return x;
}

}  // namespace ms::sim
