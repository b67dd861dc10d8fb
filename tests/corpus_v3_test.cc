// Corpus v3 + streaming generators + pooled run-state suite (the
// out-of-core PR): v3 round-trip through the zero-copy mmap path,
// mapped-view vs GraphBuilder bit-identity across every registry family,
// torn/truncated/bit-rotted v3 files and stale v2 files (both corrupt,
// so regenerated), save_stream byte-identity with the in-memory writer,
// edge-stream equivalence with the materialized generators, and the
// engine's pooled RunState reuse pinned bit-identical to fresh state at
// every thread count.
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

#include "graph/edge_stream.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "scenario/aggregate.h"
#include "scenario/corpus.h"
#include "scenario/engine.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
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

// Structural bit-identity: same CSR arrays, arc for arc. The acceptance
// bar for the mmap path -- a mapped view must be indistinguishable from a
// GraphBuilder build of the same edge set.
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

// ---- v3 round-trip and the zero-copy contract -----------------------------

TEST(CorpusV3, RoundTripsAsZeroCopyView) {
  const CorpusStore store(temp_dir());
  ScenarioParams params;
  params.set_int("n", 90);
  const ScenarioInstance inst = resolve_scenario("random_planar", params, 9, 1);
  const Graph g = build_instance(inst);
  EXPECT_FALSE(g.is_external_view());
  ASSERT_TRUE(store.save(inst.hash(), g));
  Graph loaded;
  ASSERT_EQ(store.load(inst.hash(), &loaded), CorpusStore::LoadStatus::kHit);
  // The hit is a mapping of the file, not a rebuild.
  EXPECT_TRUE(loaded.is_external_view());
  expect_identical_csr(loaded, g);
  // Shallow copies share the mapping and stay valid views.
  Graph copy = loaded;
  EXPECT_TRUE(copy.is_external_view());
  EXPECT_EQ(copy.csr_offsets().data(), loaded.csr_offsets().data());
}

TEST(CorpusV3, MappedViewMatchesBuilderAcrossFamilies) {
  const CorpusStore store(temp_dir());
  for (const FamilyInfo& family : scenario_families()) {
    if (std::string_view(family.name) == "file") continue;  // needs a path
    const ScenarioInstance inst =
        resolve_scenario(family.name, ScenarioParams{}, /*base_seed=*/11,
                         /*index=*/0);
    const Graph built = build_instance(inst);
    ASSERT_TRUE(store.save(inst.hash(), built)) << family.name;
    Graph mapped;
    ASSERT_EQ(store.load(inst.hash(), &mapped), CorpusStore::LoadStatus::kHit)
        << family.name;
    EXPECT_TRUE(mapped.is_external_view()) << family.name;
    expect_identical_csr(mapped, built);
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
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(pristine.data(), 1, keep, f), keep);
    std::fclose(f);
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt)
        << "torn at " << keep;
  }
  // Trailing junk: the exact-size cross-check refuses it.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(pristine.data(), 1, pristine.size(), f),
              pristine.size());
    std::fputc('x', f);
    std::fclose(f);
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
  }
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
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(words.data(), 4, words.size(), f), words.size());
    std::fclose(f);
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
  }
  ASSERT_TRUE(store.save(inst.hash(), g));
  EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kHit);
  expect_identical_csr(out, g);
}

// ---- Streaming generators --------------------------------------------------

void expect_stream_matches(gen::EdgeStream& stream, const Graph& g) {
  ASSERT_EQ(stream.num_nodes(), g.num_nodes());
  ASSERT_EQ(stream.num_edges(), g.num_edges());
  Endpoints e{};
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    ASSERT_TRUE(stream.next(&e)) << i;
    EXPECT_EQ(e.u, g.endpoints(i).u) << i;
    EXPECT_EQ(e.v, g.endpoints(i).v) << i;
  }
  EXPECT_FALSE(stream.next(&e));
}

TEST(EdgeStream, MatchesMaterializedGenerators) {
  {
    const auto s = gen::grid_stream(9, 13);
    const Graph g = gen::grid(9, 13);
    expect_stream_matches(*s, g);
    s->rewind();
    expect_stream_matches(*s, g);  // rewind restarts the exact sequence
  }
  {
    const auto s = gen::triangulated_grid_stream(8, 11);
    expect_stream_matches(*s, gen::triangulated_grid(8, 11));
  }
  {
    // Degenerate lattices: single row/column have no south/diagonal arcs.
    const auto s = gen::grid_stream(1, 17);
    expect_stream_matches(*s, gen::grid(1, 17));
    const auto t = gen::triangulated_grid_stream(5, 1);
    expect_stream_matches(*t, gen::triangulated_grid(5, 1));
  }
}

TEST(EdgeStream, RegistryStreamsMatchBuildInstance) {
  // Every instance the registry claims to stream must yield exactly the
  // edge list build_instance produces -- including the seeded
  // plus_random_edges perturbation (road_network preset), whose draw
  // sequence is replayed against analytic lattice adjacency.
  const char* names[] = {"grid", "triangulated_grid", "road_network"};
  for (const char* name : names) {
    const ScenarioInstance inst =
        resolve_scenario(name, ScenarioParams{}, 21, 3);
    const auto stream = make_edge_stream(inst);
    ASSERT_NE(stream, nullptr) << name;
    const Graph g = build_instance(inst);
    expect_stream_matches(*stream, g);
  }
  // Families without a streaming generator decline instead of lying.
  EXPECT_EQ(make_edge_stream(
                resolve_scenario("random_planar", ScenarioParams{}, 21, 3)),
            nullptr);
}

TEST(CorpusV3, StreamedSaveIsByteIdenticalToSave) {
  const std::string dir_a = temp_dir();
  const std::string dir_b = temp_dir();
  const CorpusStore save_store(dir_a);
  const CorpusStore stream_store(dir_b);
  const char* names[] = {"grid", "triangulated_grid", "road_network"};
  for (const char* name : names) {
    const ScenarioInstance inst =
        resolve_scenario(name, ScenarioParams{}, 13, 1);
    ASSERT_TRUE(save_store.save(inst.hash(), build_instance(inst)));
    const auto stream = make_edge_stream(inst);
    ASSERT_NE(stream, nullptr) << name;
    ASSERT_TRUE(stream_store.save_stream(inst.hash(), *stream)) << name;
    EXPECT_EQ(slurp_bytes(save_store.path_for(inst.hash())),
              slurp_bytes(stream_store.path_for(inst.hash())))
        << name;
  }
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

TEST(Engine, MmapHitsAndStreamedMaterializationKeepAggregatesIdentical) {
  const Manifest m = pool_manifest();
  // Baseline: no corpus (GraphBuilder everywhere).
  BatchOptions plain;
  plain.threads = 2;
  const BatchResult base = run_batch(m, plain);
  const std::string base_json =
      render_aggregate_json(m, base, aggregate_cells(base));

  // First corpus run: streamable families go through save_stream + mmap,
  // the rest through build + save. Same aggregate bytes.
  BatchOptions with_corpus = plain;
  with_corpus.corpus_dir = temp_dir();
  const BatchResult first = run_batch(m, with_corpus);
  EXPECT_EQ(first.corpus.disk_hits, 0u);
  EXPECT_EQ(first.corpus.generated, first.corpus.unique_instances);
  EXPECT_EQ(render_aggregate_json(m, first, aggregate_cells(first)),
            base_json);

  // Second run: every instance is an mmap hit; still the same bytes, at
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
