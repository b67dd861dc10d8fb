// Shared helpers for the experiment harnesses (E1..E10). Each binary prints
// a self-contained table; see DESIGN.md section 4 for the experiment index
// and EXPERIMENTS.md for recorded results.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace cpt::bench {

inline void header(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

// Bounds for the grid benches' flags: a triangulated side x side grid has
// about 6 * side^2 arcs, which must fit 32-bit arc ids; reps is an int.
inline constexpr unsigned long kMaxGridSide = 16384;
inline constexpr unsigned long kMaxReps = 1000000;

// Strict decimal flag value: digits only (no sign, space or trailing
// bytes), within [lo, hi]. Otherwise prints an error naming the flag and
// returns false, and the bench exits 2.
inline bool parse_count_flag(const char* flag, const char* text,
                             unsigned long lo, unsigned long hi,
                             unsigned long* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
      v < lo || v > hi) {
    std::fprintf(stderr, "error: %s expects an integer in [%lu, %lu], got "
                 "\"%s\"\n", flag, lo, hi, text);
    return false;
  }
  *out = v;
  return true;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cpt::bench
