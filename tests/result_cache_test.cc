// Result-cache suite: content-address round-trip through the persistent
// result cache, corrupt-entry self-healing (power-cut leftovers included:
// empty, cut-short, zero-filled and misnamed entries), engine-level cache
// hits pinned byte-identical to fresh execution at --threads 1 and 4 (with
// fully cached instances never materialized), thread- and
// process-concurrent cache hammering, and cpt_batch runs sharing one
// --cache directory reproducing the uncached aggregate bytes.
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"

namespace cpt::scenario {
namespace {

std::string temp_dir() {
  std::string t = testing::TempDir() + "cpt_cache_XXXXXX";
  EXPECT_NE(mkdtemp(t.data()), nullptr);
  return t;
}

constexpr const char* kManifest = R"({
  "name": "cache_suite",
  "base_seed": 11,
  "defaults": {"trials": 2, "epsilon": 0.15,
               "tester": ["planarity", "cycle_free"]},
  "cells": [
    {"scenario": "grid", "params": {"rows": [8, 10], "cols": 9}},
    {"scenario": "cycle", "params": {"n": 40},
     "perturb": {"kind": "k33_blobs", "count": 2},
     "tester": "planarity", "instances": 2}
  ]
})";

Manifest suite_manifest() {
  Manifest m;
  std::string err;
  EXPECT_TRUE(parse_manifest(kManifest, &m, &err)) << err;
  return m;
}

std::string aggregate_of(const Manifest& m, const BatchResult& batch) {
  return render_aggregate_json(m, batch, aggregate_cells(batch));
}

// Every JobResult field an entry round-trips (phase_stats is not stored).
bool same_result(const JobResult& a, const JobResult& b) {
  return a.verdict == b.verdict && a.rounds == b.rounds &&
         a.messages == b.messages && a.n == b.n && a.m == b.m &&
         a.num_parts == b.num_parts && a.cut_edges == b.cut_edges &&
         a.max_part_ecc == b.max_part_ecc &&
         a.max_tree_depth == b.max_tree_depth &&
         a.stage1_phases == b.stage1_phases &&
         a.stage1_phases_total == b.stage1_phases_total &&
         a.trials_per_phase == b.trials_per_phase && a.failed == b.failed &&
         a.error == b.error && a.timed_out == b.timed_out &&
         a.wall_seconds == b.wall_seconds;
}

std::size_t count_entries(const std::string& dir, const char* infix) {
  std::size_t count = 0;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      if (std::strstr(entry->d_name, infix) != nullptr) ++count;
    }
    closedir(d);
  }
  return count;
}

// Full paths of the directory's files whose names contain ".cpr".
std::vector<std::string> entry_paths(const std::string& dir) {
  std::vector<std::string> paths;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      if (std::strstr(entry->d_name, ".cpr") != nullptr) {
        paths.push_back(dir + "/" + entry->d_name);
      }
    }
    closedir(d);
  }
  return paths;
}

// ---- ResultCache unit behavior -------------------------------------------

TEST(ResultCache, RoundTripsResultsByContentAddress) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  const ResultCache cache(dir + "/cache");

  JobResult r;
  r.verdict = Verdict::kReject;
  r.n = 90;
  r.m = 160;
  r.rounds = 12;
  r.messages = 3456;
  r.num_parts = 4;
  r.cut_edges = 7;
  r.max_part_ecc = 5;
  r.max_tree_depth = 6;
  r.stage1_phases = 3;
  r.stage1_phases_total = 9;
  r.trials_per_phase = 2;
  r.wall_seconds = 0.1;
  ASSERT_TRUE(cache.store(jobs[0], r));

  JobResult loaded;
  ASSERT_EQ(cache.load(jobs[0], &loaded), ResultCache::LoadStatus::kHit);
  EXPECT_TRUE(same_result(loaded, r));

  // Other jobs miss -- the key folds cell_key, instance hash and seed.
  EXPECT_EQ(cache.load(jobs[1], &loaded), ResultCache::LoadStatus::kMiss);
  EXPECT_EQ(count_entries(dir + "/cache", ".cpr"), 1u);
}

TEST(ResultCache, FailedResultsAreNeverStoredTimedOutAre) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  const ResultCache cache(dir);

  JobResult failed;
  failed.failed = true;
  failed.error = "file scenario: cannot open x.el";
  EXPECT_FALSE(cache.store(jobs[0], failed));
  JobResult probe;
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kMiss);

  // A round-budget refusal is deterministic, so caching it is sound.
  JobResult timed_out;
  timed_out.timed_out = true;
  timed_out.error = "round budget exceeded";
  EXPECT_TRUE(cache.store(jobs[0], timed_out));
  ASSERT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kHit);
  EXPECT_TRUE(probe.timed_out);
  EXPECT_FALSE(probe.failed);
}

TEST(ResultCache, CorruptEntriesAreRemovedOnLoad) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  const ResultCache cache(dir);
  JobResult r;
  r.verdict = Verdict::kAccept;
  r.rounds = 5;
  ASSERT_TRUE(cache.store(jobs[0], r));
  ASSERT_EQ(count_entries(dir, ".cpr"), 1u);

  // Flip one byte inside the record: the checksum line no longer
  // validates, the entry is removed, and the caller sees kCorrupt.
  const std::string path = entry_paths(dir).at(0);
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  JobResult probe;
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kCorrupt);
  EXPECT_EQ(count_entries(dir, ".cpr"), 0u);
  // Once removed, the entry is an ordinary miss.
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kMiss);
  // Re-storing self-heals.
  ASSERT_TRUE(cache.store(jobs[0], r));
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kHit);

  // Forged records whose checksum is recomputed, so only the field checks
  // can catch them: every stored count must be a non-negative JSON integer
  // that fits its JobResult field, and every written field must be there.
  r.n = 16;
  r.m = 24;
  r.messages = 77;
  r.trials_per_phase = 3;
  ASSERT_TRUE(cache.store(jobs[0], r));
  std::string text;
  ASSERT_TRUE(read_text_file(path, &text));
  // {"sum": "<16hex>", "rec": <rec>}\n
  const std::string rec = text.substr(35, text.size() - 35 - 2);
  const auto forge = [&](std::vector<std::pair<std::string, std::string>> edits) {
    std::string forged = rec;
    for (const auto& [from, to] : edits) {
      const std::size_t at = forged.find(from);
      EXPECT_NE(at, std::string::npos) << from << " in " << rec;
      if (at != std::string::npos) forged.replace(at, from.size(), to);
    }
    char sum[17];
    std::snprintf(sum, sizeof sum, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(forged)));
    EXPECT_TRUE(write_text_file(
        path, "{\"sum\": \"" + std::string(sum) + "\", \"rec\": " + forged + "}\n"));
    return forged;
  };
  // The forger writes valid entries: an unchanged record, and one with the
  // "retries" key older entries carry, both still hit.
  for (const auto& edits :
       std::vector<std::vector<std::pair<std::string, std::string>>>{
           {}, {{"\"wall_seconds\"", "\"retries\": 1, \"wall_seconds\""}}}) {
    const std::string forged = forge(edits);
    ASSERT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kHit)
        << forged;
    EXPECT_EQ(probe.rounds, 5u);
    EXPECT_EQ(probe.n, 16u);
    EXPECT_EQ(probe.trials_per_phase, 3u);
  }
  const std::vector<std::vector<std::pair<std::string, std::string>>> bad = {
      {{"\"rounds\": 5", "\"rounds\": -7"}, {"\"n\": 16", "\"n\": 1e300"}},
      {{"\"rounds\": 5", "\"rounds\": -7"}},
      {{"\"n\": 16", "\"n\": 1e300"}},
      {{"\"rounds\": 5", "\"rounds\": 5.5"}},
      {{"\"rounds\": 5", "\"rounds\": \"5\""}},
      {{"\"m\": 24", "\"m\": 4294967296"}},  // EdgeId is 32 bits
      {{"\"messages\": 77", "\"messages\": 18446744073709551616"}},
      {{", \"messages\": 77", ""}},
      {{", \"n\": 16", ""}},
      {{"\"trials_per_phase\": 3", "\"trials_per_phase\": -1"}},
  };
  for (const auto& edits : bad) {
    const std::string forged = forge(edits);
    EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kCorrupt)
        << forged;
    EXPECT_EQ(count_entries(dir, ".cpr"), 0u) << forged;
  }
}

// Stores do not fsync, so a power cut can leave an entry empty, cut short,
// zero-filled, or holding another entry's complete bytes. Each must load
// as corrupt or a miss, never as a hit, and a re-store must hit again.
TEST(ResultCache, PowerCutLeftoversAreNeverAWrongHit) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  const ResultCache cache(dir);
  JobResult r;
  r.verdict = Verdict::kReject;
  r.rounds = 31;
  r.messages = 2718;
  const auto path_of = [&](const Job& job) {
    char name[17];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(ResultCache::key_for(job)));
    return dir + "/" + name + ".cpr";
  };
  const auto write_raw = [](const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
  };
  const auto restore_hits = [&](const Job& job) {
    JobResult probe;
    ASSERT_TRUE(cache.store(job, r));
    ASSERT_EQ(cache.load(job, &probe), ResultCache::LoadStatus::kHit);
    EXPECT_TRUE(same_result(probe, r));
  };
  const std::string path = path_of(jobs[0]);
  restore_hits(jobs[0]);
  std::string line;
  ASSERT_TRUE(read_text_file(path, &line));

  std::vector<std::string> leftovers = {"", std::string(line.size(), '\0')};
  for (std::size_t len = 1; len < line.size(); ++len) {
    leftovers.push_back(line.substr(0, len));
  }
  for (const std::string& bytes : leftovers) {
    write_raw(path, bytes);
    JobResult probe;
    EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kCorrupt)
        << bytes.size() << " bytes";
    EXPECT_EQ(access(path.c_str(), F_OK), -1) << bytes.size() << " bytes";
    restore_hits(jobs[0]);
  }

  // Another job's complete entry under this job's name: a miss that
  // leaves the file to its owner, never that job's result.
  restore_hits(jobs[1]);
  std::string other;
  ASSERT_TRUE(read_text_file(path_of(jobs[1]), &other));
  write_raw(path, other);
  JobResult probe;
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kMiss);
  EXPECT_EQ(access(path.c_str(), F_OK), 0);
  restore_hits(jobs[0]);
  EXPECT_EQ(count_entries(dir, ".cpr"), 2u);
}

// ---- Engine integration: hits, byte-identity, skip-materialize -----------

TEST(Engine, CacheHitsReproduceAggregateBytesAtEveryThreadCount) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();

  // Serverless, uncached baseline.
  BatchOptions plain;
  plain.threads = 1;
  const std::string baseline = aggregate_of(m, run_batch(m, plain));

  // Cold populate at threads 1.
  ResultCache cache(dir + "/cache");
  BatchOptions opt;
  opt.threads = 1;
  opt.result_cache = &cache;
  const BatchResult cold = run_batch(m, opt);
  EXPECT_EQ(cold.cache_hit_jobs, 0u);
  EXPECT_EQ(aggregate_of(m, cold), baseline);

  // Warm runs at threads 1 and 4: zero execution, zero materialization,
  // byte-identical aggregate.
  for (const unsigned threads : {1u, 4u}) {
    ResultCache warm_cache(dir + "/cache");
    BatchOptions warm_opt;
    warm_opt.threads = threads;
    warm_opt.result_cache = &warm_cache;
    const BatchResult warm = run_batch(m, warm_opt);
    EXPECT_EQ(warm.cache_hit_jobs, num_jobs) << threads;
    EXPECT_EQ(warm.corpus.skipped, warm.corpus.unique_instances) << threads;
    EXPECT_EQ(warm.corpus.generated, 0u) << threads;
    EXPECT_EQ(warm.corpus.disk_hits, 0u) << threads;
    EXPECT_EQ(aggregate_of(m, warm), baseline) << threads;
  }
}

TEST(Engine, CorruptCacheEntryIsReExecutedAndHealed) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();

  ResultCache cache(dir);
  BatchOptions opt;
  opt.threads = 2;
  opt.result_cache = &cache;
  const std::string baseline = aggregate_of(m, run_batch(m, opt));
  const std::size_t entries = count_entries(dir, ".cpr");
  ASSERT_GT(entries, 0u);

  // Garble one entry; the warm run re-executes exactly that job and
  // re-publishes it, bytes unchanged.
  const std::string victim = entry_paths(dir).back();
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 50, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 50, SEEK_SET), 0);
    std::fputc(c ^ 0x11, f);
    std::fclose(f);
  }
  ResultCache healed(dir);
  BatchOptions warm;
  warm.threads = 2;
  warm.result_cache = &healed;
  const BatchResult batch = run_batch(m, warm);
  // Exactly the garbled entry missed: it was removed and re-executed.
  EXPECT_EQ(batch.cache_hit_jobs, num_jobs - 1);
  EXPECT_EQ(aggregate_of(m, batch), baseline);
  EXPECT_EQ(count_entries(dir, ".cpr"), entries);  // re-published
}

TEST(Engine, EmptiedCacheEntriesAreReExecutedAndRepublished) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();

  ResultCache cache(dir);
  BatchOptions opt;
  opt.threads = 2;
  opt.result_cache = &cache;
  const std::string baseline = aggregate_of(m, run_batch(m, opt));
  const std::vector<std::string> entries = entry_paths(dir);
  ASSERT_EQ(entries.size(), num_jobs);

  // Every entry emptied, as a power cut after unsynced stores can leave
  // them: the warm run re-executes every job and re-publishes each entry.
  for (const std::string& path : entries) {
    ASSERT_EQ(truncate(path.c_str(), 0), 0) << path;
  }
  for (const std::size_t hits : {std::size_t{0}, num_jobs}) {
    ResultCache healed(dir);
    BatchOptions warm;
    warm.threads = 2;
    warm.result_cache = &healed;
    const BatchResult batch = run_batch(m, warm);
    EXPECT_EQ(batch.cache_hit_jobs, hits);
    EXPECT_EQ(aggregate_of(m, batch), baseline) << hits;
    std::string text;
    for (const std::string& path : entries) {
      ASSERT_TRUE(read_text_file(path, &text)) << path;
      EXPECT_FALSE(text.empty()) << path;
    }
  }
}

// ---- Concurrency: threads and processes ----------------------------------

TEST(ResultCache, ConcurrentThreadReadersAndWritersStaySafe) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  const ResultCache cache(dir);
  JobResult canonical;
  canonical.verdict = Verdict::kReject;
  canonical.rounds = 17;
  canonical.messages = 999;

  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      JobResult probe;
      for (int round = 0; round < 40; ++round) {
        const Job& job = jobs[(t + round) % jobs.size()];
        if (t % 2 == 0) {
          if (!cache.store(job, canonical)) bad.store(true);
        } else {
          const auto status = cache.load(job, &probe);
          if (status == ResultCache::LoadStatus::kCorrupt) bad.store(true);
          if (status == ResultCache::LoadStatus::kHit &&
              !same_result(probe, canonical)) {
            bad.store(true);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(count_entries(dir, ".cpr.tmp"), 0u);
}

TEST(ResultCache, ConcurrentProcessWritersNeverPublishTornEntries) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  JobResult canonical;
  canonical.verdict = Verdict::kAccept;
  canonical.rounds = 23;
  canonical.messages = 4242;

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    const ResultCache mine(dir);
    for (int round = 0; round < 30; ++round) {
      for (const Job& job : jobs) {
        if (!mine.store(job, canonical)) _exit(1);
      }
    }
    _exit(0);
  }
  const ResultCache cache(dir);
  JobResult probe;
  for (int round = 0; round < 30; ++round) {
    for (const Job& job : jobs) {
      ASSERT_TRUE(cache.store(job, canonical));
      const auto status = cache.load(job, &probe);
      ASSERT_NE(status, ResultCache::LoadStatus::kCorrupt);
      if (status == ResultCache::LoadStatus::kHit) {
        ASSERT_TRUE(same_result(probe, canonical));
      }
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(count_entries(dir, ".cpr.tmp"), 0u);
  // Post-quiesce, every entry is a hit with the canonical bytes.
  for (const Job& job : jobs) {
    ASSERT_EQ(cache.load(job, &probe), ResultCache::LoadStatus::kHit);
    EXPECT_TRUE(same_result(probe, canonical));
  }
}

#ifdef CPT_BATCH_BIN

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

TEST(ResultCache, CliRunsShareOneCacheDirectory) {
  const std::string dir = temp_dir();
  const std::string manifest_path = dir + "/m.json";
  {
    std::FILE* f = std::fopen(manifest_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(kManifest, f);
    std::fclose(f);
  }
  const std::string base_cmd =
      std::string(CPT_BATCH_BIN) + " run " + manifest_path;
  ASSERT_EQ(run_command(base_cmd + " --quiet --threads=1 --out=" + dir +
                        "/plain.json"),
            0);
  std::string plain;
  ASSERT_TRUE(read_text_file(dir + "/plain.json", &plain));

  // Cold then warm through one --cache directory: the warm run serves
  // every job from the cache, and both write the uncached bytes.
  const std::size_t num_jobs = expand_manifest(suite_manifest()).size();
  for (int round = 0; round < 2; ++round) {
    const std::string stem = dir + "/cached" + std::to_string(round);
    ASSERT_EQ(run_command(base_cmd + " --threads=2 --cache=" + dir +
                          "/cache --out=" + stem + ".json > " + stem +
                          ".log"),
              0);
    std::string out, log;
    ASSERT_TRUE(read_text_file(stem + ".json", &out));
    ASSERT_TRUE(read_text_file(stem + ".log", &log));
    EXPECT_EQ(out, plain) << round;
    const std::size_t hits = round == 0 ? 0 : num_jobs;
    const std::string summary = "# cache: " + std::to_string(hits) + " of " +
                                std::to_string(num_jobs) +
                                " jobs from result cache";
    EXPECT_NE(log.find(summary), std::string::npos) << log;
  }
  EXPECT_EQ(count_entries(dir + "/cache", ".cpr.tmp"), 0u);
}

#endif  // CPT_BATCH_BIN

}  // namespace
}  // namespace cpt::scenario
