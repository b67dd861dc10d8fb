// perfbench: the repository benchmark (see ../WORKLOADS.md).
//
//   perfbench --workload sweep|resweep|big_graph --seed N --seconds S
//             --trace 0|1 --data DIR --work DIR
//   perfbench --smoke --data DIR --work DIR
//
// --data is the perfbench directory (manifests/, reference/); --work is a
// scratch directory the run fills and the caller removes. Prints
// human-readable lines, one "name value unit" line per metric, then one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exit
// status: 0 when every check passed, 1 when one failed, 2 on a usage or
// setup error (then without a JSON line).
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

// Cold materializations per run; setup_s is their median.
constexpr int kSetupReps = 21;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sweep|resweep|big_graph --seed N "
               "--seconds S --trace 0|1 --data DIR --work DIR\n"
               "       perfbench --smoke --data DIR --work DIR\n",
               why.c_str());
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

void print_outcome(const perfbench::Outcome& o) {
  for (const perfbench::Metric& m : o.metrics) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_rate =
      o.attempted == 0 ? 1
                       : static_cast<double>(o.failed) /
                             static_cast<double>(o.attempted);
  std::printf("%-34s %14.6g 1\n", "fail_rate", fail_rate);
  std::string json = "{\"correct\": ";
  json += o.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const perfbench::Metric& m = o.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, data, work;
  std::uint64_t seed = perfbench::kReferenceSeed;
  double seconds = 30;
  int trace = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value.c_str(), &seed)) return usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds >= 0 && seconds <= 3600)) {
        return usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      trace = value == "1" ? 1 : 0;
    } else if (arg == "--data") {
      data = value;
    } else if (arg == "--work") {
      work = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (data.empty() || work.empty()) return usage("--data and --work are required");
  try {
    if (smoke) return perfbench::smoke(data, work);
    for (const perfbench::Workload& wl : perfbench::workloads()) {
      if (wl.name != workload) continue;
      std::printf("# perfbench %s: seed %llu, %g s, trace %d, %u batch threads\n",
                  wl.name.c_str(), static_cast<unsigned long long>(seed),
                  seconds, trace, wl.threads);
      const perfbench::Outcome o = perfbench::run_workload(
          wl, data, work, seed, seconds, trace == 1, kSetupReps);
      print_outcome(o);
      return o.correct ? 0 : 1;
    }
    return usage("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
