// Strict numeric flag values for the command-line tools (thorcli, thord,
// thor-router).
//
// atoi-style parsing turns garbage into 0 without a word: `--cache abc`
// would disable the template cache, `--listen abc` would bind an
// ephemeral port and `--timeout-ms abc` would give a 0 ms deadline. These
// helpers accept a value only when the whole string parses and lands in
// [lo, hi]; anything else prints the offending flag, then the tool's
// usage, and exits with the usage's code (2).
#ifndef THOR_TOOLS_FLAGS_H_
#define THOR_TOOLS_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace thor::flags {

/// Upper bound for counts stored in an `int`.
constexpr int64_t kIntMax = std::numeric_limits<int>::max();
/// Upper bound for millisecond durations (about 11 days).
constexpr double kMaxMs = 1e9;

[[noreturn]] inline void Reject(const char* flag, const char* value,
                                int (*usage)()) {
  std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
  std::exit(usage());
}

/// The whole of `value` as a decimal integer in [lo, hi], or Reject.
inline int64_t Int(const char* flag, const char* value, int64_t lo,
                   int64_t hi, int (*usage)()) {
  const char* end = value + std::strlen(value);
  int64_t parsed = 0;
  auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < lo || parsed > hi) {
    Reject(flag, value, usage);
  }
  return parsed;
}

/// The whole of `value` as a number in [lo, hi] (NaN never is), or Reject.
inline double Double(const char* flag, const char* value, double lo,
                     double hi, int (*usage)()) {
  const char* end = value + std::strlen(value);
  double parsed = 0.0;
  auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || !(parsed >= lo && parsed <= hi)) {
    Reject(flag, value, usage);
  }
  return parsed;
}

}  // namespace thor::flags

#endif  // THOR_TOOLS_FLAGS_H_
