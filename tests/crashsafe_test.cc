// Crash-safety suite for the resumable batch stack: the fault-plan
// grammar, in-process resume from a result cache (cached jobs provably not
// re-executed), the round-budget timeout classification -- and a
// subprocess kill/resume harness that kills the real cpt_batch binary
// (at injected job indices, or with SIGTERM) and pins the aggregate of the
// rerun over the same --cache directory byte-identical to an
// uninterrupted run at --threads 1 and 4.
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/faultinject.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/result_cache.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/trace.h"

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

std::string temp_dir() {
  std::string t = testing::TempDir() + "cpt_crashsafe_XXXXXX";
  const char* made = mkdtemp(t.data());
  EXPECT_NE(made, nullptr);
  return t;
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

// Published result-cache entries: "<key>.cpr" files, not the
// "<key>.cpr.tmp.*" files of stores in progress.
std::size_t count_cache_entries(const std::string& dir) {
  std::size_t count = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    const std::size_t at = name.rfind(".cpr");
    if (at != std::string::npos && at + 4 == name.size()) ++count;
  }
  closedir(d);
  return count;
}

// ---- Fault-plan grammar ---------------------------------------------------

TEST(FaultPlan, ParsesGrammar) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("exit@run_job:key=13", &plan, &err)) << err;
  EXPECT_EQ(plan.key, 13u);
  ASSERT_TRUE(FaultPlan::parse("exit@run_job:key=18446744073709551615", &plan,
                               &err))
      << err;
  EXPECT_EQ(plan.key, ~0ULL);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string err;
  const char* bad[] = {
      "",
      "exit",
      "exit@run_job",                  // key is required
      "exit@run_job:key=",
      "exit@run_job:key=abc",
      "exit@run_job:key=-1",
      "exit@run_job:key=1x",
      "exit@run_job:key=18446744073709551616",  // 2^64
      "exit@nowhere:key=1",
      "exit@run_job:key=1,exit@run_job:key=2",  // one rule per plan
      "exit@run_job:key=1:times=2",
      // Retired actions, sites and conditions.
      "throw@run_job:key=1",
      "badalloc@run_job:key=1",
      "corrupt@run_job:key=1",
      "shortwrite@stream_write:key=1",
      "exit@stream_write:key=0",
      "exit@corpus_load:key=1",
      "exit@corpus_save:key=1",
      "exit@edge_list:key=1",
      "exit@materialize:key=1",
      "exit@run_job:every=5",
      "exit@run_job:rate=0.5",
      "exit@run_job:times=2",
      "seed=3",
      "seed=3,exit@run_job:key=1",
  };
  for (const char* spec : bad) {
    err.clear();
    EXPECT_FALSE(FaultPlan::parse(spec, &plan, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
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

// ---- Resume (in-process) -------------------------------------------------

TEST(CrashSafe, ResumeSkipsCompletedJobsAndReproducesTheAggregate) {
  const Manifest m = small_manifest();
  BatchOptions opt;
  opt.threads = 4;

  // The uninterrupted run; its first half goes into a cache, as a run
  // killed halfway would have left it.
  const BatchResult clean = run_batch(m, opt);
  ASSERT_EQ(clean.failed_jobs, 0u);
  const std::string clean_json =
      render_aggregate_json(m, clean, aggregate_cells(clean));
  ResultCache cache(temp_dir());
  const std::uint32_t stored =
      static_cast<std::uint32_t>(clean.jobs.size() / 2);
  ASSERT_GT(stored, 2u);
  for (std::uint32_t j = 0; j < stored; ++j) {
    EXPECT_TRUE(cache.store(clean.jobs[j], clean.results[j]));
  }

  // Resume through the cache; prove cached jobs never execute by the
  // resumed batch's trace: a "job" span for each executed job, and a
  // job/cache_hit instant, but no span, for each served one.
  BatchOptions resume_opt = opt;
  resume_opt.threads = 1;  // different schedule, same bytes
  resume_opt.result_cache = &cache;
  util::TraceSession session;
  resume_opt.trace = &session;
  const BatchResult batch = run_batch(m, resume_opt);
  EXPECT_EQ(batch.failed_jobs, 0u);
  EXPECT_EQ(batch.cache_hit_jobs, stored);
  EXPECT_EQ(render_aggregate_json(m, batch, aggregate_cells(batch)),
            clean_json);
  const std::string trace = session.render_jsonl(m.name);
  const auto count = [&trace](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"kind\":\"span\",\"name\":\"job\","),
            batch.jobs.size() - stored);
  EXPECT_EQ(count("\"kind\":\"instant\",\"name\":\"job/cache_hit\","),
            stored);
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

TEST(KillResumeHarness, SigtermEndsTheRunLikeAKill) {
  const std::string manifest = std::string(CPT_MANIFEST_DIR) +
                               "/batch_sweep.json";
  const std::string dir = temp_dir();
  const std::string cache = dir + "/cache";
  const std::string out = dir + "/sig.json";
  const std::string clean_out = dir + "/clean.json";

  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=4 --quiet --out=" + clean_out),
            0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(CPT_BATCH_BIN, CPT_BATCH_BIN, "run", manifest.c_str(),
          "--threads=2", "--quiet", ("--cache=" + cache).c_str(),
          ("--out=" + out).c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Signal as soon as the first result is published in the cache: the
  // rest of the sweep (~0.3 s at 2 threads) is still ahead, so the signal
  // always arrives mid-sweep.
  for (int waited_ms = 0; count_cache_entries(cache) == 0; waited_ms += 1) {
    ASSERT_LT(waited_ms, 20000) << "no result was ever stored";
    usleep(1000);
  }
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  // SIGTERM keeps its default action: the run dies of it, like a kill,
  // and publishes no aggregate. The results stored before it survive.
  ASSERT_TRUE(WIFSIGNALED(status)) << status;
  EXPECT_EQ(WTERMSIG(status), SIGTERM);
  EXPECT_NE(access(out.c_str(), F_OK), 0) << out;
  EXPECT_GT(count_cache_entries(cache), 0u);

  // The rerun over the same cache completes and reproduces the
  // uninterrupted bytes, and sweeps any store the signal cut short.
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest +
                        " --threads=4 --quiet --cache=" + cache +
                        " --out=" + out),
            0);
  EXPECT_EQ(slurp(out), slurp(clean_out));
  EXPECT_EQ(count_files_containing(cache, ".cpr.tmp"), 0u);
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
      "--base-seed=seven",  "--index=0.5",
  };
  for (const char* flag : bad) {
    EXPECT_EQ(run_command(base + " " + flag), 2) << flag;
  }
}

TEST(CliParsing, GenOutOfRangeIntegerIsNotClamped) {
  // strtoll clamps a value past the int64 range to INT64_MAX or INT64_MIN;
  // the error must not report a number that was never typed.
  const std::string dir = temp_dir();
  const std::string err = dir + "/gen.err";
  for (const char* rows :
       {"rows=99999999999999999999", "rows=-99999999999999999999"}) {
    EXPECT_EQ(run_command(std::string(CPT_BATCH_BIN) + " gen grid " + rows +
                          " cols=3 > /dev/null 2> " + err),
              1)
        << rows;
    const std::string text = slurp(err);
    EXPECT_EQ(text.find("9223372036854775807"), std::string::npos) << text;
    EXPECT_EQ(text.find("9223372036854775808"), std::string::npos) << text;
  }
}

TEST(CliParsing, GenRejectsParamsItsScenarioDoesNotHave) {
  // A misspelled key fails as it does in a manifest, instead of leaving
  // the family's default in place and surviving only in the label.
  const std::string dir = temp_dir();
  const std::string err = dir + "/gen.err";
  const std::string gen = std::string(CPT_BATCH_BIN) + " gen grid rows=3 ";
  EXPECT_EQ(run_command(gen + "colz=3 > /dev/null 2> " + err), 1);
  const std::string text = slurp(err);
  EXPECT_NE(text.find("colz: unknown param for \"grid\" (accepted: rows,cols)"),
            std::string::npos)
      << text;
  EXPECT_EQ(run_command(gen + "cols=3 > /dev/null"), 0);
}

TEST(CliParsing, JournalFlagsAreUnknown) {
  // A killed or failed run re-runs from its --cache directory; the journal
  // and retry flags that used to recover in other ways are gone, so they
  // are usage errors now, and so are the retired streaming, timing and
  // progress flags and every retired fault action and site.
  const std::string base = std::string(CPT_BATCH_BIN) + " run " +
                           std::string(CPT_MANIFEST_DIR) + "/ci_smoke.json" +
                           " --quiet 2>/dev/null";
  for (const char* flag :
       {"--journal=sweep.journal", "--resume", "--max-retries=2",
        "--fault-plan=throw@run_job:key=1",
        "--fault-plan=exit@corpus_load:key=1", "--stream=x.jsonl",
        "--fault-plan=exit@stream_write:key=0", "--timing-out=t.json",
        "--progress"}) {
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

// The "generated" and "disk hits" counts of the "# corpus: G generated, H
// disk hits" line in a cpt_batch summary; false when the line is missing.
bool corpus_line(const std::string& summary, unsigned* generated,
                 unsigned* hits) {
  const std::size_t at = summary.find("# corpus: ");
  return at != std::string::npos &&
         std::sscanf(summary.c_str() + at,
                     "# corpus: %u generated, %u disk hits", generated,
                     hits) == 2;
}

TEST(CliParsing, RunFillsTheCorpusAndMaterializeIsUnknown) {
  const std::string manifest =
      std::string(CPT_MANIFEST_DIR) + "/ci_smoke.json";
  const std::string dir = temp_dir();
  const std::string corpus = dir + "/corpus";
  const std::string run = std::string(CPT_BATCH_BIN) + " run " + manifest +
                          " --threads=2 --corpus=" + corpus + " > ";
  // A first run generates every instance into the corpus ...
  ASSERT_EQ(run_command(run + dir + "/cold.txt"), 0);
  unsigned generated = 0, hits = 0;
  ASSERT_TRUE(corpus_line(slurp(dir + "/cold.txt"), &generated, &hits));
  EXPECT_GT(generated, 0u);
  EXPECT_EQ(hits, 0u);
  // ... and a second is served entirely from it.
  ASSERT_EQ(run_command(run + dir + "/warm.txt"), 0);
  const std::string warm = slurp(dir + "/warm.txt");
  EXPECT_NE(warm.find("# corpus: 0 generated"), std::string::npos) << warm;
  // `run --corpus` fills the store; there is no materialize subcommand.
  EXPECT_EQ(run_command(std::string(CPT_BATCH_BIN) + " materialize " +
                        manifest + " --corpus=" + corpus + " 2>/dev/null"),
            2);
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
    expect_refused("run " + manifest + " --corpus=" + bad, "--corpus=");
    expect_refused("run " + manifest + " --cache=" + bad, "--cache=");
  }
  // A missing leaf under an existing parent is created.
  EXPECT_EQ(run_command(bin + " run " + manifest + " --quiet --corpus=" +
                        dir + "/corpus --cache=" + dir + "/cache"),
            0);
  EXPECT_GT(count_files_containing(dir + "/corpus", ".cpg"), 0u);
  EXPECT_GT(count_files_containing(dir + "/cache", ".cpr"), 0u);
}

TEST(CrashSafe, ChecksumValidForgedCorpusFileIsRegenerated) {
  // A .cpg whose first arc points at node 10^9, with both checksums
  // recomputed: a loader that adopted the file's arrays crashed the run on
  // it. The run must warn, count the file corrupt, regenerate the instance
  // and reproduce the uncached aggregate.
  const std::string dir = temp_dir();
  const std::string manifest = dir + "/one.json";
  write_file(manifest, R"({"name": "one", "cells": [{"scenario": "grid",
    "params": {"rows": 4, "cols": 4}}]})");
  const std::string corpus = dir + "/corpus";
  const std::string run =
      std::string(CPT_BATCH_BIN) + " run " + manifest + " --quiet";
  ASSERT_EQ(run_command(run + " --out=" + dir + "/clean.json"), 0);
  ASSERT_EQ(run_command(run + " --corpus=" + corpus), 0);

  std::string cpg;
  if (DIR* d = opendir(corpus.c_str())) {
    while (const dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 4 && name.substr(name.size() - 4) == ".cpg") {
        cpg = corpus + "/" + name;
      }
    }
    closedir(d);
  }
  ASSERT_FALSE(cpg.empty());
  std::string bytes = slurp(cpg);
  ASSERT_GE(bytes.size(), 64u);
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + 8, 8);
  const std::uint32_t far_node = 1000000000u;
  std::memcpy(bytes.data() + testutil::cpg_arcs_offset(n), &far_node, 4);
  testutil::reseal_cpg(&bytes);
  write_file(cpg, bytes);

  ASSERT_EQ(run_command(run + " --corpus=" + corpus + " --out=" + dir +
                        "/forged.json --metrics=" + dir +
                        "/metrics.json 2> " + dir + "/err.txt"),
            0);
  EXPECT_NE(slurp(dir + "/err.txt").find("warning: corpus file"),
            std::string::npos);
  EXPECT_NE(slurp(dir + "/metrics.json").find("\"corpus/corrupt_files\": 1"),
            std::string::npos);
  EXPECT_EQ(slurp(dir + "/forged.json"), slurp(dir + "/clean.json"));
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
  // A header's node count sizes the graph before any edge is read, so a
  // count past kMaxEdgeListNodes is refused before anything is allocated.
  const std::string huge = dir + "/huge.el";
  write_file(huge, "4294967295 0\n");
  EXPECT_EQ(status("test " + huge), 2);
  const std::string too_many =
      "error: " + huge + ": edge list: node count exceeds 2^24";
  EXPECT_EQ(std::system((bin + " test " + huge +
                         " 2>&1 >/dev/null | grep -qF '" + too_many + "'")
                            .c_str()),
            0);
}

#endif  // CPT_CLI_BIN

}  // namespace
}  // namespace cpt::scenario
