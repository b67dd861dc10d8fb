// Minimal JSON emitter for benchmark results (BENCH_*.json files).
//
// Every experiment that tracks a perf trajectory across PRs writes one
// BENCH_<name>.json: a flat object of run-level metadata plus a "metrics"
// array of named measurements. See bench/README.md for the schema and the
// recorded baselines. Strings and numbers render through the scenario
// layer's JSON writing helpers (doubles with enough digits to round-trip).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cpt::bench {

// Peak resident set size of this process so far, in bytes (0 if the
// platform does not report it).
std::uint64_t peak_rss_bytes();

class BenchJson;

// Stamps the shared provenance block every BENCH_*.json carries: git
// SHA and build type/flags (CPT_GIT_SHA / CPT_BUILD_TYPE /
// CPT_BUILD_FLAGS compile definitions, "unknown"/"" when absent),
// hostname, and std::thread::hardware_concurrency. Call once, before
// the experiment-specific meta, so trajectories across PRs identify
// the machine and commit that produced them.
void add_provenance(BenchJson& out);

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  // Run-level metadata (git describe, build type, host...).
  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, std::int64_t value);

  // One named measurement with a unit, e.g. ("stage1/messages_per_sec",
  // 1.2e7, "1/s"). Metrics appear in insertion order.
  void metric(const std::string& name, double value, const std::string& unit);

  // Serializes and writes the file; returns false on I/O failure or when
  // a metric is not finite (JSON cannot represent inf or nan), in which
  // case no file is written.
  bool write(const std::string& path) const;

  std::string to_string() const;

 private:
  struct Meta {
    std::string key;
    std::string value;  // pre-rendered JSON value
  };
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  std::vector<Meta> meta_;
  std::vector<Metric> metrics_;
};

}  // namespace cpt::bench
