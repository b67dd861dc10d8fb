// JSON text writers and the quantile rule shared by every document the
// program renders: aggregates, result-cache entries, BENCH_*.json files,
// traces and metrics. One definition keeps their bytes in one format
// (%.17g doubles, the same escape set), and scenario/json.h exposes it
// to the scenario layer under the same names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cpt::util {

// Appends s as a quoted, escaped JSON string.
void json_append_escaped(std::string& out, std::string_view s);

// Round-trippable double rendering (%.17g); integral doubles still carry
// their fractional marker only when needed -- callers format true integers
// through json_render_int for stable output.
std::string json_render_double(double v);
std::string json_render_int(std::int64_t v);
std::string json_render_uint(std::uint64_t v);

// Nearest-rank quarter quantile over non-empty sorted values, midpoint
// rounding up: quarter k (0..4) is sorted[(k * (count - 1) + 2) / 4].
inline std::uint64_t quarter_rank(const std::vector<std::uint64_t>& sorted,
                                  std::size_t k) {
  return sorted[(k * (sorted.size() - 1) + 2) / 4];
}

}  // namespace cpt::util
