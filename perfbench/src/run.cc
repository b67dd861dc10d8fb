// Setup, timed iterations and the correctness gate.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "perfbench.h"
#include "scenario/aggregate.h"
#include "scenario/invariants.h"
#include "scenario/json.h"
#include "scenario/result_cache.h"

namespace perfbench {

namespace fs = std::filesystem;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::vector<Workload> workloads() {
  // Batch width is the machine's cores, never more than 4: the width the
  // shipped numbers were taken at.
  const unsigned cores =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return {
      {"sweep", "sweep.json", cores, CacheMode::kEmpty, false, 256},
      {"resweep", "sweep.json", cores, CacheMode::kWarm, false, 256},
      {"big_graph", "big_graph.json", 1, CacheMode::kNone, true, 256},
  };
}

Iteration execute(const Run& run, cpt::util::TraceSession* trace,
                  unsigned threads, CacheMode cache) {
  if (cache == CacheMode::kEmpty) fresh_dir(run.cache_dir);
  std::optional<sc::ResultCache> results;
  if (cache != CacheMode::kNone) results.emplace(run.cache_dir);
  sc::BatchOptions opt;
  opt.threads = threads;
  opt.corpus_dir = run.corpus_dir;
  opt.result_cache = results ? &*results : nullptr;
  opt.trace = trace;
  Iteration it;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  it.batch = sc::run_batch(run.manifest, opt);
  const std::vector<sc::CellAggregate> cells = sc::aggregate_cells(it.batch);
  it.aggregate = sc::render_aggregate_json(run.manifest, it.batch, cells);
  it.csv = sc::render_aggregate_csv(cells);
  it.cpu_s = cpu_now() - c0;
  it.wall_s = wall_now() - w0;
  for (const sc::JobResult& r : it.batch.results) it.messages += r.messages;
  return it;
}

namespace {

bool reject(const Run& run, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
               run.wl.name.c_str(), why.c_str());
  return false;
}

bool check(Run* run, const Iteration& it, CacheMode cache) {
  const sc::BatchResult& b = it.batch;
  if (b.failed_jobs != 0 || b.timed_out_jobs != 0 || b.cancelled) {
    return reject(*run, std::to_string(b.failed_jobs) + " failed and " +
                            std::to_string(b.timed_out_jobs) +
                            " timed-out jobs");
  }
  if (run->expected.empty()) run->expected = it.aggregate;
  if (it.aggregate != run->expected) {
    return reject(*run, "aggregate bytes differ from the expected aggregate");
  }
  sc::InvariantReport report;
  sc::check_one_sidedness(b, &report);
  if (!report.ok()) return reject(*run, report.summary());
  const std::size_t hits = cache == CacheMode::kWarm ? b.jobs.size() : 0;
  if (b.cache_hit_jobs != hits) {
    return reject(*run, std::to_string(b.cache_hit_jobs) +
                            " result-cache hits, expected " +
                            std::to_string(hits));
  }
  if (run->check_big_graph) {
    const bool exact = b.results.size() == 1 &&
                       b.results[0].verdict == cpt::Verdict::kAccept &&
                       b.results[0].rounds == kBigGraphRounds &&
                       b.results[0].messages == kBigGraphMessages;
    if (!exact) {
      return reject(*run, "big_graph must accept with 422096 rounds and "
                          "82519260 messages");
    }
  }
  return true;
}

// Resets the resident-set high-water mark, so that peak_rss_mb() after an
// iteration is that iteration's peak (setup and resweep's cache fill
// excluded).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// Cold materialization of every unique graph into the empty directory
// `dir`; returns its wall seconds.
double materialize_cold(const Run& run, const std::string& dir) {
  fresh_dir(dir);
  sc::BatchOptions opt;
  opt.threads = run.wl.threads;
  opt.corpus_dir = dir;
  const double t0 = wall_now();
  const sc::MaterializeResult m = sc::materialize_manifest(run.manifest, opt);
  const double seconds = wall_now() - t0;
  if (m.failed_instances != 0 ||
      m.corpus.generated != m.corpus.unique_instances) {
    throw std::runtime_error("cold materialization failed" +
                             (m.errors.empty() ? "" : ": " + m.errors[0]));
  }
  return seconds;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;
}

}  // namespace

bool gate(Run* run, const Iteration& it, CacheMode cache) {
  const bool ok = check(run, it, cache);
  run->attempted += it.batch.jobs.size();
  if (!ok) run->failed += it.batch.jobs.size();
  return ok;
}

Iteration run_iteration(Run* run, cpt::util::TraceSession* trace) {
  Iteration it = execute(*run, trace, run->wl.threads, run->wl.cache);
  gate(run, it, run->wl.cache);
  return it;
}

Outcome run_workload(const Workload& wl, const std::string& data,
                     const std::string& work, std::uint64_t seed,
                     double seconds, bool trace, int setup_reps) {
  Run run;
  run.wl = wl;
  run.work = fresh_dir(work);
  run.corpus_dir = work + "/corpus";
  run.cache_dir = work + "/cache";
  std::string error;
  if (!sc::load_manifest_file(data + "/manifests/" + wl.manifest,
                              &run.manifest, &error)) {
    throw std::runtime_error(error);
  }
  // The benchmark's seed replaces the manifest's; the program only ever
  // sees the generated manifest.
  const bool reference =
      seed == kReferenceSeed && run.manifest.base_seed == kReferenceSeed;
  run.manifest.base_seed = seed;
  run.check_big_graph = wl.big_graph_counts && reference;
  if (reference) {
    const std::string path = data + "/reference/" +
                             fs::path(wl.manifest).stem().string() +
                             ".seed42.json";
    if (!sc::read_text_file(path, &run.expected)) {
      throw std::runtime_error("cannot read " + path);
    }
  }

  // Setup: cold materialization of the unique graphs into an empty corpus,
  // several times; the last corpus stays for the measured batches. The
  // repetitions run back to back before any batch, so that no batch's own
  // disk writes (sweep's cache stores) land in them.
  std::vector<double> setup;
  for (int i = 0; i < setup_reps; ++i) {
    setup.push_back(materialize_cold(run, run.corpus_dir));
  }

  // One batch thread must render the same aggregate bytes as the
  // workload's width (at the reference seed, also the reference's). This
  // batch also warms the corpus pages before anything is timed.
  if (wl.threads > 1) gate(&run, execute(run, nullptr, 1, CacheMode::kNone),
                           CacheMode::kNone);
  if (wl.cache == CacheMode::kWarm) {
    gate(&run, execute(run, nullptr, wl.threads, CacheMode::kEmpty),
         CacheMode::kEmpty);
  }

  Outcome out;
  if (trace) {
    traced_run(&run, seconds, &out.metrics);
  } else {
    std::vector<double> jobs_rate, msg_rate, cpu, rss;
    const double start = wall_now();
    do {
      // Each iteration starts from a trimmed heap, as a fresh `cpt_batch
      // run` process would, so its resident peak does not depend on what
      // earlier batches' threads left in their malloc arenas.
      malloc_trim(0);
      const bool rss_reset = reset_peak_rss();
      const Iteration it = run_iteration(&run, nullptr);
      if (rss_reset) rss.push_back(peak_rss_mb());
      jobs_rate.push_back(static_cast<double>(it.batch.jobs.size()) /
                          it.wall_s);
      msg_rate.push_back(static_cast<double>(it.messages) / it.wall_s);
      cpu.push_back(it.cpu_s);
    } while (wall_now() - start < seconds);
    // Without the reset, VmHWM is the whole process's peak.
    if (rss.empty()) rss.push_back(peak_rss_mb());
    std::printf("# %zu iterations; jobs_per_s p25 %.6g p50 %.6g p75 %.6g\n",
                jobs_rate.size(), quantile(jobs_rate, 0.25),
                median(jobs_rate), quantile(jobs_rate, 0.75));
    std::printf("# %zu cold materializations; setup_s p25 %.6g p50 %.6g "
                "p75 %.6g\n",
                setup.size(), quantile(setup, 0.25), median(setup),
                quantile(setup, 0.75));
    out.metrics = {
        {"jobs_per_s", median(jobs_rate), "1/s"},
        {"sim_msgs_per_s", median(msg_rate), "1/s"},
        {"cpu_s", median(cpu), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", median(rss), "MiB"},
    };
  }
  out.attempted = run.attempted;
  out.failed = run.failed;
  out.correct = run.failed == 0 && run.attempted > 0;
  return out;
}

}  // namespace perfbench
