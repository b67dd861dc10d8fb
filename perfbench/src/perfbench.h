// perfbench, the repository benchmark: shared declarations. WORKLOADS.md
// (one directory up) says why each workload exists and which layer metric
// should move which end-to-end metric on which workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/manifest.h"
#include "util/trace.h"

namespace perfbench {

namespace sc = cpt::scenario;

// The seed the aggregates under reference/ were recorded at (the shipped
// batch_sweep.json's base_seed). Other seeds have no reference; there the
// gate compares batch thread counts instead.
inline constexpr std::uint64_t kReferenceSeed = 42;

// big_graph at the reference seed: triangulated_grid 256x256, eps = 0.1.
inline constexpr std::uint64_t kBigGraphRounds = 422096;
inline constexpr std::uint64_t kBigGraphMessages = 82519260;

enum class CacheMode {
  kNone,   // no result cache
  kEmpty,  // an empty result cache every iteration: every job stores
  kWarm,   // the cache a sweep iteration left behind: every job hits
};

struct Workload {
  std::string name;
  std::string manifest;  // file under <data>/manifests
  unsigned threads = 1;  // batch threads
  CacheMode cache = CacheMode::kNone;
  bool big_graph_counts = false;  // gate on kBigGraph* at the reference seed
  unsigned probe_side = 256;      // grid side of the congest probes' network
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One workload run: the generated manifest, its materialized corpus, the
// aggregate the gate demands and the gate's tally.
struct Run {
  Workload wl;
  sc::Manifest manifest;
  std::string work;        // scratch directory (the caller removes it)
  std::string corpus_dir;  // materialized in setup
  std::string cache_dir;   // result cache of kEmpty and kWarm batches
  std::string expected;    // aggregate bytes; "" = the next gated batch sets it
  bool check_big_graph = false;
  std::uint64_t attempted = 0;  // jobs of every gated batch and the replay
  std::uint64_t failed = 0;     // failed, timed out, or in a failed check
};

struct Iteration {
  sc::BatchResult batch;
  std::string aggregate;       // rendered aggregate JSON
  std::string csv;             // rendered aggregate CSV
  double wall_s = 0;           // run_batch + aggregation + rendering
  double cpu_s = 0;            // process CPU over the same interval
  std::uint64_t messages = 0;  // summed from the job results
};

double wall_now();
double cpu_now();
double median(std::vector<double> v);
// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
// Removes `path` if present, creates it empty, returns it.
std::string fresh_dir(const std::string& path);

// One batch of the run's manifest on its corpus, then aggregation and
// rendering, timed together. Applies no checks.
Iteration execute(const Run& run, cpt::util::TraceSession* trace,
                  unsigned threads, CacheMode cache);

// The correctness gate, applied to every batch (WORKLOADS.md lists the
// checks); tallies the batch's jobs into run->attempted / run->failed.
bool gate(Run* run, const Iteration& it, CacheMode cache);

// execute + gate with the workload's own settings.
Iteration run_iteration(Run* run, cpt::util::TraceSession* trace);

// Wall seconds of the freshly executed jobs of a traced batch: those with a
// "job" span. A cache-served or resumed JobResult carries the wall_seconds
// stored when the job first ran, so JobResult::wall_seconds is never used.
std::vector<double> fresh_job_seconds(const sc::BatchResult& batch,
                                      cpt::util::TraceSession& session);

// The traced run (--trace 1): appends every per-layer metric. A replayed
// job that disagrees with the untraced batch counts in run->failed.
void traced_run(Run* run, double seconds, std::vector<Metric>* out);

struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Setup, gate and measurement of one workload inside `work`.
Outcome run_workload(const Workload& wl, const std::string& data,
                     const std::string& work, std::uint64_t seed,
                     double seconds, bool trace, int setup_reps);

// sweep, resweep and big_graph.
std::vector<Workload> workloads();

// --smoke: every workload's path once on small inputs, untraced and
// traced, plus the self-tests. Returns the process exit status.
int smoke(const std::string& data, const std::string& work);

}  // namespace perfbench
