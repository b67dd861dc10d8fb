// Batch engine: expands a manifest into jobs and executes the independent
// simulations concurrently on a util/parallel.h WorkerPool -- cross-
// simulation parallelism (each job runs its own Network/Simulator on the
// worker that claimed it). Workers claim jobs dynamically, so the schedule
// is work-stealing and nondeterministic, but every result lands in its
// job's slot and each job's result is a function of its own inputs (graph,
// options, seeds): the result array -- and everything aggregated from it --
// is bit-identical at every --threads value. Wall-clock fields are the only
// nondeterministic outputs and are kept out of the aggregate schema.
//
// Stage I sharing: Stage I reads no random bits, so the trials of one
// instance repeat it exactly. Jobs are claimed in *units* -- maximal runs
// of consecutive jobs with one share key (graph, epsilon, alpha, adaptive,
// pipelined, round budget). A unit's first job the result cache does not
// serve simulates Stage I and publishes a Stage1Record; the unit's later
// jobs replay it (partition/partition.h).
// Replay is exact -- same results, ledgers and pass spans -- and which
// jobs replay depends only on the job list and the served set.
//
// Graph materialization happens before job execution: unique instances
// (deduplicated by instance hash) are generated -- or loaded from the
// corpus store -- in parallel, then shared read-only by all their jobs.
//
// Failures (an unreadable "file" path, any std::exception out of
// generation or simulation) are captured per job: the slot's JobResult
// carries failed=true plus the message, BatchResult::failed_jobs counts
// them, and aggregation excludes them -- callers must check (cpt_batch
// exits nonzero) instead of trusting a silently partial aggregate. A
// failure is final for the run: a job is a deterministic function of its
// inputs, so running it again in the same process fails the same way.
// Failed results are never stored in the result cache, so a rerun with
// the same cache re-executes them.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "congest/simulator.h"  // SimMemory
#include "core/stage2.h"  // Verdict
#include "partition/partition.h"  // PhaseStats, Stage1Scratch, Stage1Record
#include "scenario/corpus.h"
#include "scenario/manifest.h"
#include "util/trace.h"

namespace cpt::scenario {

class ResultCache;  // scenario/result_cache.h

struct JobResult {
  Verdict verdict = Verdict::kAccept;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  NodeId n = 0;
  EdgeId m = 0;
  // Final partition quality (measure_partition; planarity tester and the
  // two partition workloads -- zero for cycle_free/bipartite, whose
  // AppResult reports num_parts only).
  NodeId num_parts = 0;
  std::uint64_t cut_edges = 0;
  std::uint32_t max_part_ecc = 0;
  std::uint32_t max_tree_depth = 0;
  std::uint32_t stage1_phases = 0;        // phases emulated
  std::uint32_t stage1_phases_total = 0;  // incl. fast-forwarded
  std::uint32_t trials_per_phase = 0;     // random_partition only (Lemma 13)
  // Per-phase trajectory (partition workloads only; E4's table).
  std::vector<PhaseStats> phase_stats;
  // Failure capture: failed jobs carry an error message and contribute to
  // no aggregate cell.
  bool failed = false;
  std::string error;
  // Round budget violation (SimOptions::max_rounds via Job::max_rounds):
  // deterministic, excluded from aggregate cells but counted separately
  // (BatchResult::timed_out_jobs) -- a timed-out job is not a *failed*
  // job, it is a refused one.
  bool timed_out = false;
  double wall_seconds = 0;  // nondeterministic; excluded from aggregates
};

// Widest batch: BatchOptions::threads is clamped to it, and the CLIs
// refuse a --threads above it.
inline constexpr unsigned kMaxBatchThreads = 32;

struct BatchOptions {
  // Concurrent simulations. 0 resolves to the CPT_TEST_THREADS environment
  // variable if set, else 1; clamped to [1, kMaxBatchThreads].
  unsigned threads = 1;
  // Corpus directory ("" = in-memory dedup only).
  std::string corpus_dir;
  // Cooperative cancellation (cpt_batch's SIGINT/SIGTERM path). When the
  // pointee flips true, workers stop claiming jobs and in-flight jobs
  // drain; BatchResult::cancelled reports the truncation. With a result
  // cache, every result executed before the drain is already stored, so a
  // rerun with the same cache resumes where this one stopped.
  const std::atomic<bool>* cancel = nullptr;
  // Persistent result cache (scenario/result_cache.h). Consulted before
  // execution -- hits land in their job slots exactly like fresh results,
  // so aggregates stay byte-identical to uncached runs -- and populated as
  // each freshly executed job finishes. Instances whose every job is
  // served from the cache are not materialized at all. Counted in
  // BatchResult::cache_hit_jobs. nullptr = off.
  ResultCache* result_cache = nullptr;
  // Optional trace session (util/trace.h). The engine lays out tracks
  // deterministically -- 0 = batch phases, 1+slot = instance
  // materialization, 1+num_slots+job_index = jobs -- so the rendered
  // stream's non-timestamp bytes are identical at every --threads value.
  // Schedule-dependent quantities (worker busy time, delivery-path
  // tallies) go to the session registry under rt/ names. nullptr = no
  // tracing.
  util::TraceSession* trace = nullptr;
};

struct CorpusCounters {
  std::uint64_t unique_instances = 0;
  std::uint64_t disk_hits = 0;   // loaded from the corpus store
  std::uint64_t generated = 0;   // built by the registry (disk misses)
  std::uint64_t corrupt_files = 0;  // rejected .cpg files (regenerated)
  // Instances never materialized because every dependent job was served
  // from the result cache. An instance that failed to materialize counts
  // in none of disk_hits, generated and skipped, so disk_hits + generated
  // + skipped + (failed instances) == unique_instances.
  std::uint64_t skipped = 0;
};

struct BatchResult {
  std::vector<Job> jobs;
  std::vector<JobResult> results;  // slot i <-> jobs[i]
  CorpusCounters corpus;
  // Jobs that ran and failed; excludes timed_out jobs and the jobs a
  // cancelled batch never ran.
  std::uint32_t failed_jobs = 0;
  std::uint32_t timed_out_jobs = 0;  // round-budget violations
  // Always 0: no job is ever re-run. Kept only because
  // perfbench/src/layers.cc still reads it; it goes with the benchmark
  // change of ROADMAP item 7(a).
  std::uint32_t total_retries = 0;
  // Served from the persistent result cache (BatchOptions::result_cache).
  // Reported via the CLI summary and the batch/cache_hit_jobs metric only:
  // the aggregate document is byte-identical either way.
  std::uint32_t cache_hit_jobs = 0;
  // Jobs that replayed another job's Stage I instead of simulating it
  // (see "Stage I sharing" above). Never part of the aggregate document.
  std::uint32_t stage1_replayed_jobs = 0;
  // Cancellation (BatchOptions::cancel): true when the run stopped early.
  // completed_jobs counts the jobs whose result is in, executed or served
  // from the result cache; after a cancel they need not be a prefix of the
  // job list. The slot of a job that never ran carries failed=true and the
  // error "cancelled before execution", so it joins no aggregate cell, but
  // it is not counted in failed_jobs. In a full run completed_jobs equals
  // jobs.size().
  bool cancelled = false;
  std::uint32_t completed_jobs = 0;
  double wall_seconds = 0;
  // Batch width actually used (concurrent simulations): the resolved
  // --threads value.
  unsigned threads_used = 1;
};

// Pooled per-worker run state: simulator buffers (flights and the gather
// inbox) and Stage I scratch (peeling + merge-proposal arrays), reused
// across the jobs one batch worker claims.
// Purely an allocation optimization: every pooled buffer is re-sized and
// re-initialized by its consumer before use, so results are bit-identical
// to fresh state at every --threads value (pinned by tests). A RunState
// must never be shared between concurrently running jobs.
struct RunState {
  congest::SimMemory sim_memory;
  Stage1Scratch stage1;
};

// Runs one job against a pre-built graph (also the single-simulation entry
// point the migrated E1-E7 benches and the equivalence tests use).
// Exceptions are captured into JobResult::failed/error. `state` (optional)
// donates pooled buffers for the run and receives them back afterwards.
// `trace` (optional) receives a "job" span wrapping per-pass ledger spans
// and simulator events; it must be a track no other thread writes.
// `stage1_record` / `stage1_replay` (optional, at most one) capture the
// job's Stage I or replay one captured by a job with the same share key;
// only jobs whose partition ignores the tester seed accept them (not
// random_partition, not randomized testers).
JobResult run_job(const Job& job, const Graph& g, RunState* state = nullptr,
                  util::TraceBuffer* trace = nullptr,
                  Stage1Record* stage1_record = nullptr,
                  const Stage1Record* stage1_replay = nullptr);

BatchResult run_batch(const Manifest& manifest, const BatchOptions& options);

// Materialize-only mode: resolves every unique cacheable instance in the
// manifest into the corpus store (a verified load, else build_instance +
// save) without running any job, releasing each graph immediately.
// Instances already present (and valid) in the store count as disk_hits.
// Without a corpus directory each instance is only built and dropped.
// perfbench/src/run.cc times cold runs of it as `setup_s`; it goes with
// the rest of the corpus (ROADMAP item 7).
struct MaterializeResult {
  CorpusCounters corpus;
  std::uint32_t failed_instances = 0;
  std::vector<std::string> errors;  // one message per failed instance
};

MaterializeResult materialize_manifest(const Manifest& manifest,
                                       const BatchOptions& options);

}  // namespace cpt::scenario
