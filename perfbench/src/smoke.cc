// --smoke: the benchmark's own tests. Every workload's path runs once on
// small inputs (ci_smoke's manifest for sweep and resweep, a 32x32 grid for
// big_graph), untraced and traced, with every check on. Two self-tests pin
// what the measurements rely on: the gate rejects a wrong aggregate or a
// rejected planar instance, and engine job timings come from fresh jobs
// only.
#include <cstdio>
#include <string>

#include "perfbench.h"
#include "scenario/result_cache.h"

namespace perfbench {

namespace {

bool expect(bool cond, const char* what) {
  std::printf("smoke: %s: %s\n", cond ? "ok" : "FAILED", what);
  return cond;
}

sc::Manifest smoke_manifest(const std::string& data) {
  sc::Manifest m;
  std::string error;
  if (!sc::load_manifest_file(data + "/manifests/smoke.json", &m, &error)) {
    std::fprintf(stderr, "smoke: %s\n", error.c_str());
  }
  return m;
}

// The gate must not be vacuous: a wrong expected aggregate and a planar
// instance reported as rejected must each fail it.
bool gate_selftest(const std::string& data, const std::string& work) {
  Run run;
  run.wl = workloads()[0];
  run.manifest = smoke_manifest(data);
  run.cache_dir = fresh_dir(work + "/gate-cache");
  const Iteration it = execute(run, nullptr, 2, CacheMode::kNone);
  bool ok = expect(gate(&run, it, CacheMode::kNone),
                   "the gate passes a clean batch");
  run.expected = "{}";
  ok &= expect(!gate(&run, it, CacheMode::kNone),
               "the gate rejects a different aggregate");
  Iteration flipped = it;
  run.expected = flipped.aggregate;
  for (sc::JobResult& r : flipped.batch.results) r.verdict = cpt::Verdict::kReject;
  ok &= expect(!gate(&run, flipped, CacheMode::kNone),
               "the gate rejects a planar instance reported as rejected");
  ok &= expect(run.failed == 2 * it.batch.jobs.size(),
               "failed checks count their batch's jobs");
  return ok;
}

// A cache-served JobResult carries the wall_seconds stored when the job
// first ran, so engine.* takes job timings from the trace's fresh "job"
// spans and never from JobResult::wall_seconds. Pins both halves.
bool stale_timing_selftest(const std::string& data, const std::string& work) {
  const sc::Manifest m = smoke_manifest(data);
  sc::ResultCache cache(fresh_dir(work + "/selftest-cache"));
  sc::BatchOptions opt;
  opt.threads = 2;
  opt.result_cache = &cache;
  cpt::util::TraceSession cold_trace;
  opt.trace = &cold_trace;
  const sc::BatchResult cold = sc::run_batch(m, opt);
  cpt::util::TraceSession warm_trace;
  opt.trace = &warm_trace;
  const sc::BatchResult warm = sc::run_batch(m, opt);
  bool ok = expect(!cold.jobs.empty() && cold.cache_hit_jobs == 0 &&
                       warm.cache_hit_jobs == warm.jobs.size(),
                   "a second batch is served from the result cache");
  bool stale = true;
  for (std::size_t j = 0; j < cold.results.size(); ++j) {
    stale = stale && cold.results[j].wall_seconds > 0 &&
            warm.results[j].wall_seconds == cold.results[j].wall_seconds;
  }
  ok &= expect(stale, "cache-served results carry the stored wall_seconds");
  ok &= expect(fresh_job_seconds(cold, cold_trace).size() == cold.jobs.size(),
               "every job of the cold batch is timed as fresh");
  ok &= expect(fresh_job_seconds(warm, warm_trace).empty(),
               "no job of the cached batch is timed as fresh");
  return ok;
}

}  // namespace

int smoke(const std::string& data, const std::string& work) {
  bool ok = true;
  for (Workload wl : workloads()) {
    wl.manifest = wl.name == "big_graph" ? "smoke_grid.json" : "smoke.json";
    wl.probe_side = 32;
    for (const bool trace : {false, true}) {
      const Outcome o = run_workload(wl, data, work + "/" + wl.name,
                                     /*seed=*/7, /*seconds=*/0, trace,
                                     /*setup_reps=*/1);
      const std::string what = wl.name + (trace ? " traced" : " untraced") +
                               ": " + std::to_string(o.attempted) +
                               " jobs checked, " +
                               std::to_string(o.metrics.size()) + " metrics";
      ok &= expect(o.correct && !o.metrics.empty(), what.c_str());
    }
  }
  ok &= gate_selftest(data, work);
  ok &= stale_timing_selftest(data, work);
  std::printf("smoke: %s\n", ok ? "all checks passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
