#include "bench/bench_json.h"

#include <cmath>
#include <cstdio>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "scenario/json.h"

namespace cpt::bench {

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void add_provenance(BenchJson& out) {
#if defined(CPT_GIT_SHA)
  out.meta("git_sha", CPT_GIT_SHA);
#else
  out.meta("git_sha", "unknown");
#endif
#if defined(CPT_BUILD_TYPE)
  out.meta("build", CPT_BUILD_TYPE);
#elif defined(NDEBUG)
  out.meta("build", "release");
#else
  out.meta("build", "debug");
#endif
#if defined(CPT_BUILD_FLAGS)
  out.meta("build_flags", CPT_BUILD_FLAGS);
#else
  out.meta("build_flags", "");
#endif
  std::string host = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') host = buf;
#endif
  out.meta("hostname", host);
  out.meta("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
}

void BenchJson::meta(const std::string& key, const std::string& value) {
  std::string rendered;
  scenario::json_append_escaped(rendered, value);
  meta_.push_back({key, std::move(rendered)});
}

void BenchJson::meta(const std::string& key, std::int64_t value) {
  meta_.push_back({key, scenario::json_render_int(value)});
}

void BenchJson::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string BenchJson::to_string() const {
  std::string out = "{\n  \"name\": ";
  scenario::json_append_escaped(out, name_);
  for (const Meta& m : meta_) {
    out += ",\n  ";
    scenario::json_append_escaped(out, m.key);
    out += ": ";
    out += m.value;
  }
  out += ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    scenario::json_append_escaped(out, metrics_[i].name);
    out += ", \"value\": ";
    out += scenario::json_render_double(metrics_[i].value);
    out += ", \"unit\": ";
    scenario::json_append_escaped(out, metrics_[i].unit);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool BenchJson::write(const std::string& path) const {
  // JSON has no spelling for inf or nan: refuse rather than emit a file
  // no reader accepts.
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n",
                   m.name.c_str());
      return false;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_string();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cpt::bench
