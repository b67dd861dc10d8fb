// Corpus v3 + pooled run-state suite: v3 round-trip through the
// read-verify-rebuild hit path, a loaded graph's CSR bit-identical to the
// GraphBuilder build across every registry family, torn/truncated/
// bit-rotted v3 files, checksum-valid forgeries and stale v2 files (all
// corrupt, so regenerated), and the engine's pooled RunState reuse pinned
// bit-identical to fresh state at every thread count.
#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "scenario/aggregate.h"
#include "scenario/corpus.h"
#include "scenario/engine.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace cpt::scenario {
namespace {

std::string temp_dir() {
  std::string t = testing::TempDir() + "cpt_v3_XXXXXX";
  EXPECT_NE(mkdtemp(t.data()), nullptr);
  return t;
}

std::string slurp_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::uint32_t get_u32(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 4);
  return v;
}

// Flips one byte at `offset` in an existing file.
void garble_file(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

// Structural bit-identity: same CSR arrays, arc for arc. A loaded graph
// must be indistinguishable from a GraphBuilder build of the same edge set.
void expect_identical_csr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ao = a.csr_offsets();
  const auto bo = b.csr_offsets();
  ASSERT_EQ(ao.size(), bo.size());
  ASSERT_EQ(std::memcmp(ao.data(), bo.data(), ao.size_bytes()), 0);
  const auto aa = a.csr_arcs();
  const auto ba = b.csr_arcs();
  ASSERT_EQ(aa.size(), ba.size());
  ASSERT_EQ(std::memcmp(aa.data(), ba.data(), aa.size_bytes()), 0);
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.endpoints(e).u, b.endpoints(e).u) << e;
    ASSERT_EQ(a.endpoints(e).v, b.endpoints(e).v) << e;
  }
}

// ---- v3 round-trip ----------------------------------------------------------

TEST(CorpusV3, RoundTripsToTheBuiltGraph) {
  const CorpusStore store(temp_dir());
  ScenarioParams params;
  params.set_int("n", 90);
  const ScenarioInstance inst = resolve_scenario("random_planar", params, 9, 1);
  const Graph g = build_instance(inst);
  ASSERT_TRUE(store.save(inst.hash(), g));
  Graph loaded;
  ASSERT_EQ(store.load(inst.hash(), &loaded), CorpusStore::LoadStatus::kHit);
  expect_identical_csr(loaded, g);
  // Shallow copies share the loaded graph's arrays.
  Graph copy = loaded;
  EXPECT_EQ(copy.csr_offsets().data(), loaded.csr_offsets().data());
}

TEST(CorpusV3, LoadedGraphMatchesBuilderAcrossFamilies) {
  const CorpusStore store(temp_dir());
  for (const FamilyInfo& family : scenario_families()) {
    if (std::string_view(family.name) == "file") continue;  // needs a path
    const ScenarioInstance inst =
        resolve_scenario(family.name, ScenarioParams{}, /*base_seed=*/11,
                         /*index=*/0);
    const Graph built = build_instance(inst);
    ASSERT_TRUE(store.save(inst.hash(), built)) << family.name;
    Graph loaded;
    ASSERT_EQ(store.load(inst.hash(), &loaded), CorpusStore::LoadStatus::kHit)
        << family.name;
    expect_identical_csr(loaded, built);
  }
}

// ---- Damage detection ------------------------------------------------------

TEST(CorpusV3, DetectsTornTruncatedAndBitRottenFiles) {
  const std::string dir = temp_dir();
  const CorpusStore store(dir);
  const ScenarioInstance inst =
      resolve_scenario("grid", ScenarioParams{}, 4, 0);
  const Graph g = build_instance(inst);
  ASSERT_TRUE(store.save(inst.hash(), g));
  const std::string path = store.path_for(inst.hash());
  const std::string pristine = slurp_bytes(path);
  ASSERT_GE(pristine.size(), 64u + 4u);  // header + at least one section

  Graph out;
  const auto expect_corrupt_at = [&](long offset) {
    garble_file(path, offset);
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt)
        << "offset " << offset;
    ASSERT_TRUE(store.save(inst.hash(), g));
  };
  expect_corrupt_at(1);       // magic
  expect_corrupt_at(5);       // version
  expect_corrupt_at(10);      // n (header checksum catches it)
  expect_corrupt_at(18);      // m
  expect_corrupt_at(26);      // payload checksum field
  expect_corrupt_at(34);      // header checksum field
  expect_corrupt_at(45);      // reserved padding must stay zero
  expect_corrupt_at(64 + 2);  // offsets section (payload checksum)
  expect_corrupt_at(static_cast<long>(pristine.size()) - 3);  // endpoints

  // Torn mid-header and mid-payload.
  for (const std::size_t keep : {std::size_t{10}, std::size_t{64},
                                 pristine.size() - 1}) {
    write_bytes(path, pristine.substr(0, keep));
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt)
        << "torn at " << keep;
  }
  // Trailing junk: the exact-size cross-check refuses it.
  write_bytes(path, pristine + "x");
  EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);

  // Checksum-valid forgeries: both sums are recomputed after each edit,
  // so only the rebuild can refuse them. Each edit is a list of (byte
  // offset, new u32) writes.
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  const std::size_t arcs = testutil::cpg_arcs_offset(n);
  const std::size_t edges = pristine.size() - 8 * m;
  const auto u_of = [&](std::uint64_t e) { return edges + 8 * e; };
  const auto v_of = [&](std::uint64_t e) { return edges + 8 * e + 4; };
  const auto word = [&](std::size_t offset) { return get_u32(pristine, offset); };
  const std::vector<std::pair<const char*,
                              std::vector<std::pair<std::size_t, std::uint32_t>>>>
      forgeries = {
          {"arc to out of range", {{arcs, 1000000000u}}},
          {"peer_arc out of range", {{arcs + 8, 1000000000u}}},
          {"endpoint >= n", {{v_of(m - 1), static_cast<std::uint32_t>(n)}}},
          {"u >= v", {{u_of(0), word(v_of(0))}, {v_of(0), word(u_of(0))}}},
          {"two edges swapped",
           {{u_of(0), word(u_of(1))}, {v_of(0), word(v_of(1))},
            {u_of(1), word(u_of(0))}, {v_of(1), word(v_of(0))}}},
          {"edge duplicated over its neighbour",
           {{u_of(1), word(u_of(0))}, {v_of(1), word(v_of(0))}}},
          {"offsets entry changed", {{64 + 4, word(64 + 4) + 1}}},
      };
  for (const auto& [what, writes] : forgeries) {
    std::string forged = pristine;
    for (const auto& [offset, value] : writes) {
      std::memcpy(forged.data() + offset, &value, 4);
    }
    ASSERT_NE(forged, pristine) << what;
    testutil::reseal_cpg(&forged);
    write_bytes(path, forged);
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt)
        << what;
  }
  // The resealing itself is sound: the unedited bytes still load.
  std::string resealed = pristine;
  testutil::reseal_cpg(&resealed);
  ASSERT_EQ(resealed, pristine);
  // A legacy v2 file (u32 magic, version 2, n, m, endpoint pairs, u64
  // checksum) is no longer read: it is corrupt, so the engine regenerates
  // the instance and re-saves it as v3.
  {
    std::vector<std::uint32_t> words = {0x43545043u, 2u, g.num_nodes(),
                                        g.num_edges()};
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      words.push_back(g.endpoints(e).u);
      words.push_back(g.endpoints(e).v);
    }
    words.insert(words.end(), {0u, 0u});
    write_bytes(path, std::string(reinterpret_cast<const char*>(words.data()),
                                  4 * words.size()));
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
  }
  ASSERT_TRUE(store.save(inst.hash(), g));
  EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kHit);
  expect_identical_csr(out, g);
}

TEST(CorpusV3, ConcurrentSavesFromTwoProcessesNeverTearFiles) {
  // Regression for the fixed "<hash>.cpg.tmp" publish name: two writers
  // racing on the same instance used to interleave writes into one temp
  // file, so the winning rename could publish a torn hybrid. With
  // pid+counter-suffixed temps each writer owns its bytes and the final
  // rename is atomic-replace of a complete file, whoever wins.
  const std::string dir = temp_dir();
  std::vector<ScenarioInstance> insts;
  for (int i = 0; i < 4; ++i) {
    ScenarioParams params;
    params.set_int("rows", 8 + i);
    params.set_int("cols", 9);
    insts.push_back(resolve_scenario("grid", params, 21, 0));
  }
  constexpr int kRounds = 8;
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    const CorpusStore store(dir);
    for (int round = 0; round < kRounds; ++round) {
      for (const ScenarioInstance& inst : insts) {
        if (!store.save(inst.hash(), build_instance(inst))) _exit(1);
      }
    }
    _exit(0);
  }
  {
    const CorpusStore store(dir);
    for (int round = 0; round < kRounds; ++round) {
      for (const ScenarioInstance& inst : insts) {
        EXPECT_TRUE(store.save(inst.hash(), build_instance(inst)));
      }
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // No temp litter (every unique tmp was renamed or removed), and every
  // published file is complete: it loads as a hit with the exact bytes a
  // solo save produces.
  std::size_t tmp_litter = 0;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      if (std::strstr(entry->d_name, ".tmp") != nullptr) ++tmp_litter;
    }
    closedir(d);
  }
  EXPECT_EQ(tmp_litter, 0u);
  const std::string solo_dir = temp_dir();
  const CorpusStore raced(dir);
  const CorpusStore solo(solo_dir);
  for (const ScenarioInstance& inst : insts) {
    const Graph expect = build_instance(inst);
    Graph got;
    EXPECT_EQ(raced.load(inst.hash(), &got), CorpusStore::LoadStatus::kHit);
    EXPECT_EQ(got.num_nodes(), expect.num_nodes());
    EXPECT_EQ(got.num_edges(), expect.num_edges());
    ASSERT_TRUE(solo.save(inst.hash(), expect));
    EXPECT_EQ(slurp_bytes(raced.path_for(inst.hash())),
              slurp_bytes(solo.path_for(inst.hash())));
  }
}

TEST(CorpusV3, OrphanSweepCoversSuffixedAndLegacyTmpNames) {
  const std::string dir = temp_dir();
  { const CorpusStore create(dir); }  // not strictly needed: mkdtemp made it
  // Legacy bare-marker and dead-pid temps are orphans; a temp owned by a
  // live pid (ours here) must survive the sweep -- its writer may still
  // be mid-save. 999999999 exceeds any kernel pid_max, so kill() reports
  // ESRCH deterministically.
  const std::string live_name =
      "aaaa000000000004.cpg.tmp." + std::to_string(::getpid()) + ".5";
  for (const std::string& name :
       {std::string("aaaa000000000001.cpg.tmp"),
        std::string("aaaa000000000002.cpg.tmp.999999999.7"),
        std::string("aaaa000000000003.cpg.tmp.999999999.0"), live_name}) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("orphaned partial write", f);
    std::fclose(f);
  }
  const CorpusStore swept(dir);
  std::size_t remaining = 0;
  bool live_kept = false;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      if (std::strstr(entry->d_name, ".cpg.tmp") != nullptr) {
        ++remaining;
        live_kept = live_kept || live_name == entry->d_name;
      }
    }
    closedir(d);
  }
  EXPECT_EQ(remaining, 1u);
  EXPECT_TRUE(live_kept);
}

// ---- Engine integration ----------------------------------------------------

constexpr const char* kPoolManifest = R"({
  "name": "v3pool",
  "base_seed": 5,
  "defaults": {"trials": 2, "epsilon": 0.15,
               "tester": ["planarity", "cycle_free", "bipartite"]},
  "cells": [
    {"scenario": "grid", "params": {"rows": [8, 10], "cols": 9}},
    {"scenario": "road_network",
     "params": {"rows": 12, "cols": 12, "flyovers": 10}},
    {"scenario": "random_planar", "params": {"n": 60}, "instances": 2},
    {"scenario": "grid", "params": {"rows": 7, "cols": 7},
     "tester": "stage1_partition"},
    {"scenario": "grid", "params": {"rows": 7, "cols": 7},
     "tester": "random_partition"}
  ]
})";

Manifest pool_manifest() {
  Manifest m;
  std::string err;
  EXPECT_TRUE(parse_manifest(kPoolManifest, &m, &err)) << err;
  return m;
}

TEST(Engine, ColdAndWarmCorpusKeepAggregatesIdentical) {
  const Manifest m = pool_manifest();
  // Baseline: no corpus.
  BatchOptions plain;
  plain.threads = 2;
  const BatchResult base = run_batch(m, plain);
  const std::string base_json =
      render_aggregate_json(m, base, aggregate_cells(base));

  // Cold corpus: every instance is built and saved. Same aggregate bytes.
  BatchOptions with_corpus = plain;
  with_corpus.corpus_dir = temp_dir();
  const BatchResult first = run_batch(m, with_corpus);
  EXPECT_EQ(first.corpus.disk_hits, 0u);
  EXPECT_EQ(first.corpus.generated, first.corpus.unique_instances);
  EXPECT_EQ(render_aggregate_json(m, first, aggregate_cells(first)),
            base_json);

  // Warm corpus: every instance is a disk hit; still the same bytes, at
  // both thread counts.
  for (const unsigned threads : {1u, 4u}) {
    BatchOptions hit = with_corpus;
    hit.threads = threads;
    const BatchResult again = run_batch(m, hit);
    EXPECT_EQ(again.corpus.disk_hits, again.corpus.unique_instances);
    EXPECT_EQ(again.corpus.generated, 0u);
    EXPECT_EQ(render_aggregate_json(m, again, aggregate_cells(again)),
              base_json);
  }
}

TEST(Engine, PooledRunStateIsBitIdenticalToFreshState) {
  const Manifest m = pool_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  // One RunState reused across every job in sequence -- the worst case for
  // stale-buffer leakage (different graphs, testers and sizes back to
  // back) -- must reproduce fresh-state results field for field.
  RunState pooled;
  for (const Job& job : jobs) {
    const Graph g = build_instance(job.instance);
    const JobResult fresh = run_job(job, g);
    const JobResult reused = run_job(job, g, &pooled);
    ASSERT_FALSE(fresh.failed) << fresh.error;
    ASSERT_FALSE(reused.failed) << reused.error;
    EXPECT_EQ(reused.verdict, fresh.verdict) << job.job_index;
    EXPECT_EQ(reused.rounds, fresh.rounds) << job.job_index;
    EXPECT_EQ(reused.messages, fresh.messages) << job.job_index;
    EXPECT_EQ(reused.num_parts, fresh.num_parts) << job.job_index;
    EXPECT_EQ(reused.cut_edges, fresh.cut_edges) << job.job_index;
    EXPECT_EQ(reused.max_part_ecc, fresh.max_part_ecc) << job.job_index;
    EXPECT_EQ(reused.max_tree_depth, fresh.max_tree_depth) << job.job_index;
    EXPECT_EQ(reused.stage1_phases, fresh.stage1_phases) << job.job_index;
    EXPECT_EQ(reused.phase_stats.size(), fresh.phase_stats.size());
  }
  // And the batch engine (one pooled state per worker) agrees with itself
  // across a thread sweep.
  std::string golden;
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchOptions opt;
    opt.threads = threads;
    const BatchResult batch = run_batch(m, opt);
    const std::string json =
        render_aggregate_json(m, batch, aggregate_cells(batch));
    if (golden.empty()) {
      golden = json;
    } else {
      EXPECT_EQ(json, golden) << threads << " threads";
    }
  }
}

TEST(Engine, MaterializeManifestPopulatesTheCorpusWithoutRunningJobs) {
  const Manifest m = pool_manifest();
  BatchOptions opt;
  opt.threads = 2;
  opt.corpus_dir = temp_dir();
  const MaterializeResult mat = materialize_manifest(m, opt);
  EXPECT_EQ(mat.failed_instances, 0u);
  EXPECT_GT(mat.corpus.unique_instances, 0u);
  EXPECT_EQ(mat.corpus.generated, mat.corpus.unique_instances);
  EXPECT_EQ(mat.corpus.disk_hits, 0u);

  // Re-materializing is all hits; a subsequent run generates nothing.
  const MaterializeResult again = materialize_manifest(m, opt);
  EXPECT_EQ(again.corpus.disk_hits, again.corpus.unique_instances);
  EXPECT_EQ(again.corpus.generated, 0u);
  const BatchResult batch = run_batch(m, opt);
  EXPECT_EQ(batch.corpus.disk_hits, batch.corpus.unique_instances);
  EXPECT_EQ(batch.corpus.generated, 0u);
  EXPECT_EQ(batch.failed_jobs, 0u);
}

}  // namespace
}  // namespace cpt::scenario
