// Crash-safety suite for the resumable batch stack: the fault-plan
// grammar and its determinism contract, bounded transient retry, corrupt-
// corpus regeneration, the orphan-tmp sweep, in-process resume from a
// result cache (cached jobs provably not re-executed), the round-budget
// timeout classification, cooperative cancellation -- and a subprocess
// kill/resume harness that hard-kills the real cpt_batch binary at
// injected job indices and pins the aggregate of the rerun over the same
// --cache directory byte-identical to an uninterrupted run at --threads 1
// and 4.
//
// Every test that installs a fault plan uninstalls it on exit (the plan is
// process-global); plans are re-parsed per run because check() consumes
// per-key budgets.
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/io.h"
#include "scenario/aggregate.h"
#include "scenario/corpus.h"
#include "scenario/engine.h"
#include "scenario/faultinject.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "util/rng.h"

namespace cpt::scenario {
namespace {

constexpr const char* kSmallManifest = R"({
  "name": "crashsafe",
  "base_seed": 7,
  "defaults": {"trials": 2, "epsilon": 0.15, "tester": ["planarity", "cycle_free"]},
  "cells": [
    {"scenario": "grid", "params": {"rows": [10, 12], "cols": 10}},
    {"scenario": "cycle", "params": {"n": 40},
     "perturb": {"kind": "k33_blobs", "count": [1, 3]},
     "tester": "planarity", "trials": 1, "instances": 2}
  ]
})";

Manifest small_manifest() {
  Manifest m;
  std::string err;
  EXPECT_TRUE(parse_manifest(kSmallManifest, &m, &err)) << err;
  return m;
}

// Parses and installs a plan; uninstalls on scope exit.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const std::string& spec) {
    auto plan = std::make_shared<FaultPlan>();
    std::string err;
    EXPECT_TRUE(FaultPlan::parse(spec, plan.get(), &err)) << err;
    install_fault_plan(std::move(plan));
  }
  ~ScopedFaultPlan() { install_fault_plan(nullptr); }
};

std::string temp_dir() {
  std::string t = testing::TempDir() + "cpt_crashsafe_XXXXXX";
  const char* made = mkdtemp(t.data());
  EXPECT_NE(made, nullptr);
  return t;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
}

std::size_t count_files_containing(const std::string& dir,
                                   const std::string& infix) {
  std::size_t count = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* entry = readdir(d)) {
    if (std::string(entry->d_name).find(infix) != std::string::npos) ++count;
  }
  closedir(d);
  return count;
}

// ---- Fault-plan grammar and determinism ---------------------------------

TEST(FaultPlan, ParsesGrammar) {
  FaultPlan plan;
  std::string err;
  EXPECT_TRUE(FaultPlan::parse("", &plan, &err)) << err;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(FaultPlan::parse(
      "seed=9,throw@run_job:every=7,corrupt@corpus_load:key=42,"
      "exit@stream_write:key=3,badalloc@materialize:rate=0.5:times=2",
      &plan, &err))
      << err;
  EXPECT_EQ(plan.seed(), 9u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string err;
  const char* bad[] = {
      "bogus@run_job",           // unknown action
      "throw@nowhere",           // unknown site
      "throw",                   // missing @site
      "throw@run_job:rate=2",    // rate out of [0, 1]
      "throw@run_job:every=0",   // modulus must be positive
      "throw@run_job:times=0",   // budget must be positive
      "throw@run_job:frobnicate=1",
      "seed=abc",
      "throw@run_job,,corrupt@corpus_load",  // empty rule
  };
  for (const char* spec : bad) {
    err.clear();
    EXPECT_FALSE(FaultPlan::parse(spec, &plan, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(FaultPlan, KeyEveryTimesSemantics) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("throw@run_job:key=5:times=2", &plan, &err));
  EXPECT_EQ(plan.check(FaultSite::kRunJob, 4), FaultAction::kNone);
  EXPECT_EQ(plan.check(FaultSite::kMaterialize, 5), FaultAction::kNone);
  EXPECT_EQ(plan.check(FaultSite::kRunJob, 5), FaultAction::kThrow);
  EXPECT_EQ(plan.check(FaultSite::kRunJob, 5), FaultAction::kThrow);
  // times=2 budget exhausted for key 5.
  EXPECT_EQ(plan.check(FaultSite::kRunJob, 5), FaultAction::kNone);

  ASSERT_TRUE(FaultPlan::parse("corrupt@corpus_load:every=3", &plan, &err));
  EXPECT_EQ(plan.check(FaultSite::kCorpusLoad, 6), FaultAction::kCorrupt);
  EXPECT_EQ(plan.check(FaultSite::kCorpusLoad, 7), FaultAction::kNone);
  // Default times=1: key 6 fired once already.
  EXPECT_EQ(plan.check(FaultSite::kCorpusLoad, 6), FaultAction::kNone);
  EXPECT_EQ(plan.check(FaultSite::kCorpusLoad, 9), FaultAction::kCorrupt);
}

TEST(FaultPlan, RateRulesAreSeededAndReproducible) {
  // The same (seed, site, key) draws the same coin in two plan instances;
  // a different seed draws a different subset.
  FaultPlan a, b, c;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("seed=3,throw@run_job:rate=0.4:times=1000000",
                               &a, &err));
  ASSERT_TRUE(FaultPlan::parse("seed=3,throw@run_job:rate=0.4:times=1000000",
                               &b, &err));
  ASSERT_TRUE(FaultPlan::parse("seed=4,throw@run_job:rate=0.4:times=1000000",
                               &c, &err));
  int fired_a = 0, fired_c = 0, diverged = 0;
  for (std::uint64_t key = 0; key < 256; ++key) {
    const FaultAction fa = a.check(FaultSite::kRunJob, key);
    EXPECT_EQ(fa, b.check(FaultSite::kRunJob, key));
    fired_a += fa != FaultAction::kNone;
    const FaultAction fc = c.check(FaultSite::kRunJob, key);
    fired_c += fc != FaultAction::kNone;
    diverged += fa != fc;
  }
  // ~40% of 256 keys fire, under either seed, on different key subsets.
  EXPECT_GT(fired_a, 60);
  EXPECT_LT(fired_a, 150);
  EXPECT_GT(fired_c, 60);
  EXPECT_GT(diverged, 20);
}

TEST(FaultPlan, ClassifierSeparatesTransientFromDeterministic) {
  EXPECT_TRUE(is_transient_error("injected transient fault at run_job key=3"));
  EXPECT_TRUE(is_transient_error("std::bad_alloc"));
  EXPECT_FALSE(is_transient_error("file scenario: x: malformed edge list"));
  EXPECT_FALSE(is_transient_error("simulated round budget exceeded"));
}

// ---- Graceful degradation: retry, regeneration, classification ----------

TEST(CrashSafe, TransientFaultsRetryToBitIdenticalAggregate) {
  const Manifest m = small_manifest();
  BatchOptions opt;
  opt.threads = 4;
  const BatchResult clean = run_batch(m, opt);
  ASSERT_EQ(clean.failed_jobs, 0u);
  const std::string clean_json =
      render_aggregate_json(m, clean, aggregate_cells(clean));

  BatchResult faulty;
  {
    // times=1 per key: every third job fails once, the retry succeeds.
    ScopedFaultPlan plan("throw@run_job:every=3");
    faulty = run_batch(m, opt);
  }
  EXPECT_EQ(faulty.failed_jobs, 0u);
  EXPECT_GT(faulty.retried_jobs, 0u);
  EXPECT_EQ(faulty.retried_jobs, faulty.total_retries);
  EXPECT_EQ(render_aggregate_json(m, faulty, aggregate_cells(faulty)),
            clean_json);
}

TEST(CrashSafe, RetryBudgetExhaustionFailsTheJob) {
  const Manifest m = small_manifest();
  BatchOptions opt;
  opt.threads = 2;
  opt.max_retries = 2;
  BatchResult batch;
  {
    // Fires on every attempt of job 3: initial + 2 retries all fail.
    ScopedFaultPlan plan("throw@run_job:key=3:times=1000");
    batch = run_batch(m, opt);
  }
  EXPECT_EQ(batch.failed_jobs, 1u);
  EXPECT_EQ(batch.total_retries, 2u);
  ASSERT_GT(batch.results.size(), 3u);
  EXPECT_TRUE(batch.results[3].failed);
  EXPECT_EQ(batch.results[3].retries, 2u);
  EXPECT_NE(batch.results[3].error.find("injected transient"),
            std::string::npos);
}

TEST(CrashSafe, DeterministicFailuresAreNotRetried) {
  // A corrupted edge-list read is a deterministic failure: the whole
  // cell fails with zero retries (re-reading the same bytes cannot help).
  const std::string dir = temp_dir();
  const std::string edge_path = dir + "/input.edges";
  {
    ScenarioParams params;
    params.set_int("rows", 6);
    params.set_int("cols", 6);
    const Graph g = build_instance(resolve_scenario("grid", params, 1, 0));
    std::ofstream out(edge_path);
    write_edge_list(g, out);
  }
  Manifest m;
  std::string err;
  const std::string text = std::string(R"({
    "name": "filecell", "base_seed": 3,
    "defaults": {"trials": 2, "epsilon": 0.15, "tester": "planarity"},
    "cells": [{"scenario": "file", "params": {"path": ")") +
                           edge_path + R"("}}]})";
  ASSERT_TRUE(parse_manifest(text, &m, &err)) << err;

  BatchOptions opt;
  opt.threads = 2;
  const BatchResult clean = run_batch(m, opt);
  EXPECT_EQ(clean.failed_jobs, 0u);

  BatchResult corrupt;
  {
    ScopedFaultPlan plan("corrupt@edge_list:key=" +
                         std::to_string(fnv1a64(edge_path)) + ":times=1000");
    corrupt = run_batch(m, opt);
  }
  EXPECT_EQ(corrupt.failed_jobs, static_cast<std::uint32_t>(
                                     corrupt.jobs.size()));
  EXPECT_EQ(corrupt.total_retries, 0u);
  ASSERT_FALSE(corrupt.results.empty());
  EXPECT_NE(corrupt.results[0].error.find("malformed edge list"),
            std::string::npos);
}

TEST(CrashSafe, MaterializeRetriesTransientFaults) {
  const Manifest m = small_manifest();
  BatchOptions opt;
  opt.threads = 2;
  const BatchResult clean = run_batch(m, opt);
  const std::string clean_json =
      render_aggregate_json(m, clean, aggregate_cells(clean));
  BatchResult batch;
  {
    // every=1 fires once per instance hash: every materialization fails
    // on its first attempt and succeeds on retry.
    ScopedFaultPlan plan("badalloc@materialize:every=1");
    batch = run_batch(m, opt);
  }
  EXPECT_EQ(batch.failed_jobs, 0u);
  EXPECT_GT(batch.total_retries, 0u);
  EXPECT_EQ(render_aggregate_json(m, batch, aggregate_cells(batch)),
            clean_json);
}

TEST(CrashSafe, CorruptCorpusReadRegeneratesInstances) {
  const Manifest m = small_manifest();
  const std::string dir = temp_dir();
  BatchOptions opt;
  opt.threads = 2;
  opt.corpus_dir = dir;
  const BatchResult first = run_batch(m, opt);  // populates the corpus
  ASSERT_EQ(first.failed_jobs, 0u);
  ASSERT_GT(first.corpus.generated, 0u);
  const std::string clean_json =
      render_aggregate_json(m, first, aggregate_cells(first));

  BatchResult second;
  {
    ScopedFaultPlan plan("corrupt@corpus_load:every=1");
    second = run_batch(m, opt);
  }
  EXPECT_EQ(second.failed_jobs, 0u);
  // Every load was declared corrupt; every instance regenerated.
  EXPECT_EQ(second.corpus.corrupt_files, second.corpus.unique_instances);
  EXPECT_EQ(second.corpus.disk_hits, 0u);
  EXPECT_EQ(render_aggregate_json(m, second, aggregate_cells(second)),
            clean_json);
}

TEST(CrashSafe, ShortWriteLeavesTmpAndConstructorSweepsIt) {
  const std::string dir = temp_dir();
  ScenarioParams params;
  params.set_int("rows", 6);
  params.set_int("cols", 6);
  const ScenarioInstance inst = resolve_scenario("grid", params, 1, 0);
  const Graph g = build_instance(inst);

  char name[64];
  std::snprintf(name, sizeof name, "%016llx.cpg",
                static_cast<unsigned long long>(inst.hash()));
  const std::string final_path = dir + "/" + name;

  {
    CorpusStore store(dir);
    ScopedFaultPlan plan("shortwrite@corpus_save:key=" +
                         std::to_string(inst.hash()));
    EXPECT_FALSE(store.save(inst.hash(), g));
  }
  // The half-written temp file (now pid+counter suffixed so concurrent
  // writers never collide) was deliberately left behind...
  EXPECT_EQ(count_files_containing(dir, ".cpg.tmp"), 1u);
  EXPECT_FALSE(file_exists(final_path));
  // ...and opening the corpus again sweeps true orphans -- legacy
  // fixed-name temps and dead-pid temps -- but keeps ours: its suffix
  // carries this (live) process's pid, so for all the sweep can tell a
  // sibling thread is still mid-save.
  write_file(dir + "/" + name + ".tmp", "legacy orphan");
  write_file(dir + "/" + name + ".tmp.999999999.0", "dead-pid orphan");
  CorpusStore swept(dir);
  EXPECT_EQ(count_files_containing(dir, ".cpg.tmp"), 1u);
  // Once the owner is gone (simulated by renaming to a dead pid), the
  // next sweep collects it too.
  {
    DIR* d = opendir(dir.c_str());
    ASSERT_NE(d, nullptr);
    while (const dirent* entry = readdir(d)) {
      if (std::strstr(entry->d_name, ".cpg.tmp") != nullptr) {
        std::rename((dir + "/" + entry->d_name).c_str(),
                    (dir + "/" + name + ".tmp.999999999.1").c_str());
      }
    }
    closedir(d);
  }
  CorpusStore swept_again(dir);
  EXPECT_EQ(count_files_containing(dir, ".cpg.tmp"), 0u);
  // The store still works after the sweep.
  EXPECT_TRUE(swept.save(inst.hash(), g));
  Graph loaded;
  EXPECT_EQ(swept.load(inst.hash(), &loaded), CorpusStore::LoadStatus::kHit);
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
}

// ---- Round budget (max_rounds -> timed_out) ------------------------------

TEST(CrashSafe, RoundBudgetTimesOutWithoutPoisoningSiblings) {
  // Sibling cell first, budget cell second: the sibling's jobs keep their
  // indices and seeds when the budget cell is appended, so its results
  // must be bitwise unchanged.
  const char* base = R"({
    "name": "budget", "base_seed": 5,
    "defaults": {"trials": 2, "epsilon": 0.15, "tester": "planarity"},
    "cells": [{"scenario": "grid", "params": {"rows": 10, "cols": 10}}]})";
  const char* with_budget = R"({
    "name": "budget", "base_seed": 5,
    "defaults": {"trials": 2, "epsilon": 0.15, "tester": "planarity"},
    "cells": [{"scenario": "grid", "params": {"rows": 10, "cols": 10}},
              {"scenario": "grid", "params": {"rows": 12, "cols": 12},
               "max_rounds": 3}]})";
  Manifest a, b;
  std::string err;
  ASSERT_TRUE(parse_manifest(base, &a, &err)) << err;
  ASSERT_TRUE(parse_manifest(with_budget, &b, &err)) << err;

  BatchOptions opt;
  opt.threads = 2;
  const BatchResult ra = run_batch(a, opt);
  const BatchResult rb = run_batch(b, opt);
  ASSERT_EQ(ra.failed_jobs, 0u);

  // The budget cell timed out wholesale; nothing *failed*, and the exit-1
  // path (failed_jobs) stays clean.
  EXPECT_EQ(rb.failed_jobs, 0u);
  EXPECT_EQ(rb.timed_out_jobs, static_cast<std::uint32_t>(
                                   rb.jobs.size() - ra.jobs.size()));
  ASSERT_GT(rb.timed_out_jobs, 0u);
  for (std::size_t j = ra.jobs.size(); j < rb.results.size(); ++j) {
    EXPECT_TRUE(rb.results[j].timed_out);
    EXPECT_FALSE(rb.results[j].failed);
    EXPECT_EQ(rb.results[j].retries, 0u);  // deterministic: never retried
  }
  // Sibling jobs are untouched by the new cell.
  for (std::size_t j = 0; j < ra.results.size(); ++j) {
    EXPECT_FALSE(rb.results[j].timed_out);
    EXPECT_EQ(rb.results[j].verdict, ra.results[j].verdict);
    EXPECT_EQ(rb.results[j].rounds, ra.results[j].rounds);
    EXPECT_EQ(rb.results[j].messages, ra.results[j].messages);
  }
  // The aggregate document renders the exclusion.
  const std::string json = render_aggregate_json(b, rb, aggregate_cells(rb));
  EXPECT_NE(json.find("\"timed_out_jobs\""), std::string::npos);
}

// ---- Resume and cancellation (in-process) --------------------------------

TEST(CrashSafe, ResumeSkipsCompletedJobsAndReproducesTheAggregate) {
  const Manifest m = small_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  BatchOptions opt;
  opt.threads = 4;

  // The uninterrupted run; its first half goes into a cache, as a run
  // killed halfway would have left it.
  ResultCache cache(temp_dir());
  std::string clean_jsonl;
  std::uint32_t stored = 0;
  {
    StreamingAggregator agg(jobs);
    agg.set_cell_sink([&](const CellAggregate& cell) {
      clean_jsonl += render_stream_cell(cell);
    });
    run_batch(m, opt, [&](const Job& job, const JobResult& result) {
      if (job.job_index < jobs.size() / 2) {
        EXPECT_TRUE(cache.store(job, result));
        ++stored;
      }
      agg.consume(job, result);
    });
    agg.finish();
  }
  ASSERT_GT(stored, 2u);

  // Resume through the cache; prove cached jobs never execute by arming a
  // would-fail fault on one of them.
  BatchOptions resume_opt = opt;
  resume_opt.threads = 1;  // different schedule, same bytes
  resume_opt.max_retries = 0;
  resume_opt.result_cache = &cache;
  std::string resumed_jsonl;
  BatchResult batch;
  {
    ScopedFaultPlan plan("throw@run_job:key=1:times=1000000");
    StreamingAggregator agg(jobs);
    agg.set_cell_sink([&](const CellAggregate& cell) {
      resumed_jsonl += render_stream_cell(cell);
    });
    batch = run_batch(m, resume_opt,
                      [&](const Job& job, const JobResult& result) {
                        agg.consume(job, result);
                      });
    agg.finish();
  }
  EXPECT_EQ(batch.failed_jobs, 0u);  // job 1 came from the cache
  EXPECT_EQ(batch.cache_hit_jobs, stored);
  EXPECT_EQ(resumed_jsonl, clean_jsonl);
}

TEST(CrashSafe, CancelFlagDrainsToAResumablePrefix) {
  const Manifest m = small_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  std::atomic<bool> cancel{true};  // pre-set: cancel before any claim
  BatchOptions opt;
  opt.threads = 2;
  opt.cancel = &cancel;

  std::uint32_t sunk = 0;
  const BatchResult batch = run_batch(
      m, opt, [&](const Job&, const JobResult&) { ++sunk; });
  EXPECT_TRUE(batch.cancelled);
  EXPECT_EQ(batch.completed_jobs, sunk);
  EXPECT_LT(batch.completed_jobs, jobs.size());
  // The footer renders the truncation for downstream consumers.
  const std::string footer = render_stream_footer(batch, 0);
  EXPECT_NE(footer.find("\"partial\": true"), std::string::npos);
  EXPECT_NE(footer.find("\"completed_jobs\""), std::string::npos);
}

// ---- Subprocess kill/resume harness (the real binary) --------------------

#ifdef CPT_BATCH_BIN

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_text_file(path, &text)) << path;
  return text;
}

// The hits H and job count N of the "# cache: H of N jobs ..." line in a
// cpt_batch summary; false when the line is missing.
bool cache_line(const std::string& summary, unsigned* hits, unsigned* jobs) {
  const std::size_t at = summary.find("# cache: ");
  return at != std::string::npos &&
         std::sscanf(summary.c_str() + at, "# cache: %u of %u", hits, jobs) ==
             2;
}

TEST(KillResumeHarness, HardKillThenResumeIsByteIdentical) {
  const std::string manifest = std::string(CPT_MANIFEST_DIR) +
                               "/batch_sweep.json";
  const std::string dir = temp_dir();
  const std::string clean_out = dir + "/clean.json";

  // Uninterrupted baseline.
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=4 --quiet --out=" + clean_out),
            0);
  const std::string clean = slurp(clean_out);
  ASSERT_FALSE(clean.empty());

  // 208 jobs in batch_sweep; pick schedule-independent kill points from a
  // seeded stream, away from the very start and end.
  std::uint64_t state = 0x6a6f75726e616cULL;
  for (const unsigned threads : {1u, 4u}) {
    const std::uint32_t kill_at =
        10 + static_cast<std::uint32_t>(splitmix64(state) % 150);
    const std::string tag = dir + "/t" + std::to_string(threads);
    const std::string cache = tag + ".cache";
    const std::string out = tag + ".json";
    const std::string base = std::string(CPT_BATCH_BIN) + " run " + manifest +
                             " --threads=" + std::to_string(threads) +
                             " --cache=" + cache + " --out=" + out;
    const std::string kill_plan =
        " --quiet --fault-plan=exit@run_job:key=" + std::to_string(kill_at) +
        " 2>/dev/null";
    const std::string where = "threads=" + std::to_string(threads) +
                              " kill_at=" + std::to_string(kill_at);

    // First run dies mid-sweep with the SIGKILL-alike status.
    EXPECT_EQ(run_command(base + kill_plan), kFaultExitCode) << where;
    // Double kill: job kill_at never finished, so it is not in the cache;
    // the rerun executes it and the same key-based plan fires again --
    // proving both that the plan is schedule-independent and that cached
    // jobs are the only skips.
    EXPECT_EQ(run_command(base + kill_plan), kFaultExitCode) << where;
    // Final rerun, no faults: completes from the cache plus the remainder
    // and reproduces the clean bytes.
    ASSERT_EQ(run_command(base + " > " + tag + ".log"), 0) << where;
    EXPECT_EQ(slurp(out), clean) << where;
    unsigned hits = 0, jobs = 0;
    ASSERT_TRUE(cache_line(slurp(tag + ".log"), &hits, &jobs)) << where;
    EXPECT_EQ(jobs, 208u) << where;
    EXPECT_GT(hits, 0u) << where;
    EXPECT_LT(hits, jobs) << where;
    // Temps the kills orphaned were swept when the rerun opened the cache.
    EXPECT_EQ(count_files_containing(cache, ".cpr.tmp"), 0u) << where;
  }
}

TEST(KillResumeHarness, FaultPlanEnvFallbackResumesFromCache) {
  const std::string manifest = std::string(CPT_MANIFEST_DIR) +
                               "/metamorphic_smoke.json";
  const std::string dir = temp_dir();
  const std::string out = dir + "/env.json";
  const std::string clean_out = dir + "/clean.json";

  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=2 --quiet --out=" + clean_out),
            0);

  // A fresh cache directory is a fresh start, so the same command line
  // retries to success; the kill plan arrives via the environment.
  const std::string base = std::string(CPT_BATCH_BIN) + " run " + manifest +
                           " --threads=2 --quiet --cache=" + dir +
                           "/cache --out=" + out;
  EXPECT_EQ(run_command("CPT_FAULT_PLAN=exit@run_job:key=5 " + base +
                        " 2>/dev/null"),
            kFaultExitCode);
  ASSERT_EQ(run_command(base), 0);
  EXPECT_EQ(slurp(out), slurp(clean_out));
}

TEST(KillResumeHarness, SigtermDrainsFlushesAndExitsResumable) {
  const std::string manifest = std::string(CPT_MANIFEST_DIR) +
                               "/batch_sweep.json";
  const std::string dir = temp_dir();
  const std::string cache = dir + "/cache";
  const std::string out = dir + "/sig.json";
  const std::string err = dir + "/sig.err";
  const std::string clean_out = dir + "/clean.json";

  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=4 --quiet --out=" + clean_out),
            0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Keep the child's "interrupted" notice for the check below.
    std::freopen(err.c_str(), "w", stderr);
    execl(CPT_BATCH_BIN, CPT_BATCH_BIN, "run", manifest.c_str(),
          "--threads=2", "--quiet", ("--cache=" + cache).c_str(),
          ("--out=" + out).c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Signal as soon as the first result lands in the cache: the handler is
  // installed by then, and the rest of the sweep (~0.3 s at 2 threads) is
  // still ahead, so the signal always arrives mid-sweep.
  for (int waited_ms = 0; count_files_containing(cache, ".cpr") == 0;
       waited_ms += 1) {
    ASSERT_LT(waited_ms, 20000) << "no result was ever stored";
    usleep(1000);
  }
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 75);  // EX_TEMPFAIL: resumable

  // The drained run left stored results, a partial aggregate, and a
  // notice that names the cache to resume from.
  EXPECT_GT(count_files_containing(cache, ".cpr"), 0u);
  EXPECT_NE(slurp(out).find("\"partial\": true"), std::string::npos);
  const std::string notice = slurp(err);
  EXPECT_NE(notice.find("--cache=" + cache), std::string::npos) << notice;

  // The rerun over the same cache completes and reproduces the
  // uninterrupted bytes.
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=4 --quiet --cache=" + cache +
                        " --out=" + out),
            0);
  EXPECT_EQ(slurp(out), slurp(clean_out));
  EXPECT_EQ(count_files_containing(cache, ".cpr.tmp"), 0u);
}

TEST(KillResumeHarness, KillAtFooterWriteLosesNoStoredResults) {
  // Every fresh result is stored before the streaming sink sees it, so a
  // process killed exactly at the stream footer write -- after every job
  // retired -- leaves a cache that already holds the whole sweep.
  const std::string dir = temp_dir();
  const std::string manifest_path = dir + "/footer.json";
  // One cell -> stream emit ordinals: header=0, cell=1, footer=2.
  write_file(manifest_path, R"({
    "name": "footer", "base_seed": 3,
    "defaults": {"trials": 7, "epsilon": 0.15, "tester": "planarity"},
    "cells": [{"scenario": "grid", "params": {"rows": 8, "cols": 8}}]})");
  const std::string base = std::string(CPT_BATCH_BIN) + " run " +
                           manifest_path + " --threads=2 --cache=" + dir +
                           "/cache --stream=" + dir + "/footer.jsonl";

  EXPECT_EQ(run_command(base + " --quiet --fault-plan=exit@stream_write:key=2"
                               " 2>/dev/null"),
            kFaultExitCode);

  // The rerun executes nothing: every job is served from the cache.
  ASSERT_EQ(run_command(base + " > " + dir + "/footer.log"), 0);
  unsigned hits = 0, jobs = 0;
  ASSERT_TRUE(cache_line(slurp(dir + "/footer.log"), &hits, &jobs));
  EXPECT_EQ(jobs, 7u);
  EXPECT_EQ(hits, jobs);
  EXPECT_EQ(count_files_containing(dir + "/cache", ".cpr.tmp"), 0u);
}

// ---- CLI flag parsing (the bare-atoi regression) --------------------------

TEST(CliParsing, RejectsNonNumericAndOutOfRangeFlagValues) {
  const std::string manifest =
      std::string(CPT_MANIFEST_DIR) + "/batch_sweep.json";
  const std::string base = std::string(CPT_BATCH_BIN) + " run " + manifest +
                           " --quiet 2>/dev/null";
  // Bare atoi used to map these to 0 (or garbage) and run anyway; they
  // must be usage errors now.
  const char* bad[] = {
      "--threads=abc",      "--threads=",      "--threads=-1",
      "--threads=2x",       "--threads=1e3",   "--threads=99999999999",
      "--threads=33",
      "--max-retries=abc",  "--max-retries=-2",
      "--max-retries=999999999999999999999",
      "--base-seed=seven",  "--index=0.5",
  };
  for (const char* flag : bad) {
    EXPECT_EQ(run_command(base + " " + flag), 2) << flag;
  }
}

TEST(CliParsing, JournalFlagsAreUnknown) {
  // A killed run resumes from its --cache directory; the journal flags
  // that used to do that are gone, so they are usage errors now.
  const std::string base = std::string(CPT_BATCH_BIN) + " run " +
                           std::string(CPT_MANIFEST_DIR) + "/ci_smoke.json" +
                           " --quiet 2>/dev/null";
  for (const char* flag : {"--journal=sweep.journal", "--resume"}) {
    EXPECT_EQ(run_command(base + " " + flag), 2) << flag;
  }
}

TEST(CliParsing, ThreadsZeroIsTheValidSerialPath) {
  // --threads=0 defers to CPT_TEST_THREADS (unset here: serial). It must
  // parse, run, and produce the same aggregate as an explicit --threads=1.
  const std::string manifest =
      std::string(CPT_MANIFEST_DIR) + "/ci_smoke.json";
  const std::string dir = temp_dir();
  const std::string out0 = dir + "/t0.json";
  const std::string out1 = dir + "/t1.json";
  ASSERT_EQ(run_command("env -u CPT_TEST_THREADS " +
                        std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=0 --quiet --out=" + out0),
            0);
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=1 --quiet --out=" + out1),
            0);
  EXPECT_EQ(slurp(out0), slurp(out1));
}

TEST(CliParsing, MaterializeSubcommandPopulatesCorpusForRun) {
  const std::string manifest =
      std::string(CPT_MANIFEST_DIR) + "/ci_smoke.json";
  const std::string dir = temp_dir();
  const std::string corpus = dir + "/corpus";
  // Without --corpus the subcommand is a usage error.
  EXPECT_EQ(run_command(std::string(CPT_BATCH_BIN) + " materialize " +
                        manifest + " --quiet 2>/dev/null"),
            2);
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " materialize " +
                        manifest + " --threads=2 --quiet --corpus=" + corpus),
            0);
  // The populated corpus serves the run entirely from disk.
  const std::string summary_path = dir + "/summary.txt";
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=2 --corpus=" + corpus + " > " +
                        summary_path),
            0);
  const std::string summary = slurp(summary_path);
  EXPECT_NE(summary.find("0 generated"), std::string::npos) << summary;
}

TEST(CliParsing, UnusableStoreDirectoriesExitOne) {
  // A store that cannot write is a miss, not an error, so an unusable
  // --corpus/--cache path must be refused before any work (exit 1, like
  // an unwritable --out) rather than silently cache nothing.
  const std::string manifest =
      std::string(CPT_MANIFEST_DIR) + "/ci_smoke.json";
  const std::string dir = temp_dir();
  write_file(dir + "/file", "not a directory\n");
  const std::string bin = std::string(CPT_BATCH_BIN);
  const std::string err = dir + "/err.txt";
  const auto expect_refused = [&](const std::string& args, const char* flag) {
    EXPECT_EQ(run_command(bin + " " + args + " --quiet 2>" + err), 1) << args;
    EXPECT_NE(slurp(err).find(flag), std::string::npos) << args;
  };
  for (const std::string& bad :
       {dir + "/missing/a/b", dir + "/file/x", dir + "/file"}) {
    expect_refused("materialize " + manifest + " --corpus=" + bad,
                   "--corpus=");
    expect_refused("run " + manifest + " --corpus=" + bad, "--corpus=");
    expect_refused("run " + manifest + " --cache=" + bad, "--cache=");
  }
  // A missing leaf under an existing parent is created.
  EXPECT_EQ(run_command(bin + " materialize " + manifest + " --quiet" +
                        " --corpus=" + dir + "/corpus"),
            0);
  EXPECT_EQ(run_command(bin + " run " + manifest + " --quiet --corpus=" +
                        dir + "/corpus --cache=" + dir + "/cache"),
            0);
  EXPECT_GT(count_files_containing(dir + "/cache", ".cpr"), 0u);
}

#endif  // CPT_BATCH_BIN

#ifdef CPT_CLI_BIN

TEST(CliParsing, CptCliRejectsBadArguments) {
  const std::string dir = temp_dir();
  const std::string cycle = dir + "/c4.el";
  write_file(cycle, "4 4\n0 1\n1 2\n2 3\n3 0\n");
  const std::string k5 = dir + "/k5.el";
  write_file(k5,
             "5 10\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n");
  const std::string bin = std::string(CPT_CLI_BIN);
  const auto status = [&](const std::string& args) {
    const int st = std::system((bin + " " + args + " >/dev/null 2>&1").c_str());
    EXPECT_TRUE(WIFEXITED(st)) << args;
    return WEXITSTATUS(st);
  };
  // Positive controls: the verdict is the exit code.
  EXPECT_EQ(status("test " + cycle), 0);
  EXPECT_EQ(status("test " + cycle + " 0.2 7"), 0);
  EXPECT_EQ(status("test " + k5), 1);
  // Bad EPS, bad seed (2^64 overflows), an unknown subcommand (`gen`) and
  // an unknown flag (--threads) are usage errors.
  for (const char* args :
       {" 0", " 1.5", " abc", " 0.2 abc", " 0.2 7x", " 0.2 -3",
        " 0.2 18446744073709551616"}) {
    EXPECT_EQ(status("test " + cycle + args), 2) << args;
  }
  EXPECT_EQ(status("gen grid 0 5"), 2);
  EXPECT_EQ(status("--threads=2 test " + cycle), 2);
  // A missing file, a file without the "n m" header and an endpoint out of
  // range are input errors for every subcommand: exit 2, not an abort.
  const std::string headerless = dir + "/headerless.el";
  write_file(headerless, "0 1\n1 2\n2 3\n3 0\n");
  const std::string out_of_range = dir + "/range.el";
  write_file(out_of_range, "3 3\n0 1\n1 5\n2 0\n");
  for (const char* sub : {"test", "partition", "spanner", "witness"}) {
    for (const std::string& bad :
         {dir + "/missing.el", headerless, out_of_range}) {
      EXPECT_EQ(status(std::string(sub) + " " + bad), 2) << sub << " " << bad;
    }
  }
  const std::string why = "error: " + out_of_range + ": edge list: endpoint";
  EXPECT_EQ(std::system((bin + " witness " + out_of_range +
                         " 2>&1 >/dev/null | grep -qF '" + why + "'")
                            .c_str()),
            0);
}

#endif  // CPT_CLI_BIN

}  // namespace
}  // namespace cpt::scenario
