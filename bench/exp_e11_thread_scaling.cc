// E11 -- multicore scaling of the batch engine: the scenario engine runs
// bench/manifests/e11.json with N concurrent single-threaded simulations,
// swept over a thread list (default 1,2,4,8). Aggregate JSON is verified
// byte-identical across every cell. Results go to BENCH_thread_scaling.json
// (bench_json schema; metric names are cross/t<N>/... -- see
// bench/README.md).
//
// Usage: exp_e11_thread_scaling [--reps=3] [--threads=1,2,4,8]
//                               [--manifest=PATH]
//                               [--out=BENCH_thread_scaling.json]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/manifest.h"

namespace cpt {
namespace {

// Comma-separated batch widths, each in [1, kMaxBatchThreads]; an empty
// list or entry is an error.
bool parse_thread_list(const char* text, std::vector<unsigned>* out) {
  out->clear();
  const std::string list(text);
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(start, comma - start);
    unsigned long v = 0;
    if (!bench::parse_count_flag("--threads", item.c_str(), 1,
                                 scenario::kMaxBatchThreads, &v)) {
      return false;
    }
    out->push_back(static_cast<unsigned>(v));
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

}  // namespace
}  // namespace cpt

int main(int argc, char** argv) {
  using namespace cpt;
  using namespace cpt::scenario;
  int reps = 3;
  std::vector<unsigned> thread_list{1, 2, 4, 8};
  std::string manifest_path = CPT_MANIFEST_DIR "/e11.json";
  std::string out_path = "BENCH_thread_scaling.json";
  for (int i = 1; i < argc; ++i) {
    unsigned long parsed = 0;
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      if (!bench::parse_count_flag("--reps", argv[i] + 7, 1, bench::kMaxReps,
                                   &parsed)) {
        return 2;
      }
      reps = static_cast<int>(parsed);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      if (!parse_thread_list(argv[i] + 10, &thread_list)) return 2;
    } else if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
      manifest_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 2;
    }
  }

  bench::header("E11: batch thread scaling",
                "cross-simulation parallelism: identical aggregates at every "
                "thread count; only wall clock moves");
  bench::BenchJson out("thread_scaling");
  bench::add_provenance(out);
  {
    std::string list;
    for (const unsigned t : thread_list) {
      if (!list.empty()) list += ',';
      list += std::to_string(t);
    }
    out.meta("threads_list", list);
  }

  // The batch engine at t concurrent simulations; the first cell's
  // aggregate is the baseline every other cell must reproduce.
  Manifest manifest;
  std::string error;
  if (!load_manifest_file(manifest_path, &manifest, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("cross-sim (batch engine, %s):\n", manifest.name.c_str());
  std::string base_aggregate;
  const auto run_cross = [&](const BatchOptions& options,
                             const std::string& cell) -> bool {
    const double wall = [&] {
      double best = 0;
      for (int i = 0; i < reps; ++i) {
        const BatchResult batch = run_batch(manifest, options);
        if (batch.failed_jobs > 0 || batch.timed_out_jobs > 0) {
          std::fprintf(stderr, "error: %u failed / %u timed-out jobs\n",
                       batch.failed_jobs, batch.timed_out_jobs);
          return -1.0;
        }
        const std::string agg = render_aggregate_json(
            manifest, batch, aggregate_cells(batch));
        if (base_aggregate.empty()) {
          base_aggregate = agg;
        } else if (agg != base_aggregate) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION at %s: aggregate JSON differs\n",
                       cell.c_str());
          return -1.0;
        }
        if (best == 0 || batch.wall_seconds < best) best = batch.wall_seconds;
      }
      return best;
    }();
    if (wall < 0) return false;
    const double jobs = static_cast<double>(expand_manifest(manifest).size());
    std::printf("  %-28s : %8.3fs  %8.1f jobs/s\n", cell.c_str(), wall,
                jobs / wall);
    out.metric(cell + "/wall", wall, "s");
    out.metric(cell + "/jobs_per_sec", jobs / wall, "1/s");
    return true;
  };
  for (const unsigned t : thread_list) {
    BatchOptions options;
    options.threads = t;
    if (!run_cross(options, "cross/t" + std::to_string(t))) return 1;
  }

  out.meta("peak_rss_bytes",
           static_cast<std::int64_t>(bench::peak_rss_bytes()));
  if (!out.write(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (peak rss %.1f MiB)\n", out_path.c_str(),
              static_cast<double>(bench::peak_rss_bytes()) / (1024 * 1024));
  return 0;
}
