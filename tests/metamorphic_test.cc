// Metamorphic invariant harness (ISSUE 5): drives randomized sweeps
// straight from the scenario registry and asserts the paper-level
// guarantees (Levi-Medina-Ron, PODC 2018) and the engine-level
// determinism contracts on every job, instead of spot-checking hand-
// picked graphs:
//
//   (a) one-sidedness  -- no guaranteed-planar instance is ever rejected,
//       at any eps / seed / thread count (Theorem 1's zero-error side);
//   (b) detection monotonicity -- rejection rates are non-decreasing in
//       perturbation strength (fixed base graph, the registry's seed
//       contract) and non-increasing in epsilon (the frontier manifest);
//   (c) relabeling invariance -- a vertex-permuted instance yields the
//       same verdict (round counts are id-tie-break-dependent and
//       deliberately NOT pinned; see scenario/invariants.h);
//   (d) determinism -- corpus replay and --threads 1/4 aggregation are
//       bit-identical, and pipelined streams dominate unpipelined ones
//       (same verdicts/partitions, <= cost).
//
// The whole suite must stay green at CPT_TEST_THREADS 1 and 4 (the CI
// legs); batch thread counts below are explicit where determinism is the
// point and env-resolved (threads=0) where coverage is the point.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/invariants.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"

namespace cpt::scenario {
namespace {

#ifndef CPT_MANIFEST_DIR
#error "CPT_MANIFEST_DIR must point at bench/manifests"
#endif

Manifest load(const char* name) {
  Manifest m;
  std::string err;
  const std::string path = std::string(CPT_MANIFEST_DIR) + "/" + name;
  if (!load_manifest_file(path, &m, &err)) {
    ADD_FAILURE() << err;
  }
  return m;
}

Manifest parse(const std::string& json) {
  Manifest m;
  std::string err;
  if (!parse_manifest(json, &m, &err)) {
    ADD_FAILURE() << err;
  }
  return m;
}

// ---- (a) one-sidedness ----------------------------------------------------

// Small-instance params for every guaranteed-planar registry family: the
// sweep below covers each of them, so a newly registered planar family
// automatically joins the invariant (or fails the coverage assert here).
std::string planar_family_params(const std::string& family) {
  if (family == "grid" || family == "triangulated_grid") {
    return R"({"rows": 8, "cols": 8})";
  }
  if (family == "binary_tree") return R"({"n": 63})";
  if (family == "random_tree") return R"({"n": 120})";
  if (family == "outerplanar") return R"({"n": 100})";
  if (family == "apollonian") return R"({"n": 120})";
  if (family == "random_planar") return R"({"n": 120, "m": 240})";
  if (family == "caterpillar") return R"({"spine": 30, "legs": 60})";
  return R"({"n": 60})";  // path, cycle, star, wheel
}

TEST(Metamorphic, OneSidednessAcrossAllPlanarRegistryFamilies) {
  std::string cells;
  std::size_t planar_families = 0;
  for (const FamilyInfo& family : scenario_families()) {
    if (!family.planar) continue;
    ++planar_families;
    if (!cells.empty()) cells += ",\n";
    cells += std::string(R"({"scenario": ")") + family.name +
             R"(", "params": )" + planar_family_params(family.name) + "}";
  }
  ASSERT_GE(planar_families, 12u) << "planar registry coverage shrank";
  const Manifest m = parse(
      R"({"name": "one_sided", "base_seed": 2026,
          "defaults": {"epsilon": [0.1, 0.3], "instances": 2, "trials": 2,
                       "tester": ["planarity", "stage1_partition"]},
          "cells": [)" +
      cells + "]}");

  BatchOptions opt;
  opt.threads = 0;  // CPT_TEST_THREADS: the CI legs run this at 1 and 4
  const BatchResult batch = run_batch(m, opt);
  ASSERT_EQ(batch.failed_jobs, 0u);
  ASSERT_EQ(batch.jobs.size(), planar_families * 2 * 2 * 2 * 2);

  InvariantReport report;
  check_one_sidedness(batch, &report);
  EXPECT_EQ(report.checks, batch.jobs.size());
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---- (b) detection monotonicity ------------------------------------------

TEST(Metamorphic, DetectionMonotoneInPerturbationStrength) {
  const Manifest m = parse(
      R"({"name": "monotone_strength", "base_seed": 31,
          "defaults": {"instances": 2, "trials": 3, "tester": "planarity"},
          "cells": [
            {"scenario": "grid", "params": {"rows": 10, "cols": 10},
             "perturb": {"kind": "plus_random_edges",
                         "extra": [0, 8, 40, 120]},
             "epsilon": [0.08, 0.2]},
            {"scenario": "cycle", "params": {"n": 120},
             "perturb": {"kind": "k33_blobs", "count": [0, 2, 8]},
             "epsilon": 0.1}
          ]})");
  BatchOptions opt;
  opt.threads = 0;
  const BatchResult batch = run_batch(m, opt);
  ASSERT_EQ(batch.failed_jobs, 0u);

  InvariantReport report;
  check_monotone_detection(batch, "extra", /*perturb_axis=*/true,
                           /*direction=*/+1, &report);
  check_monotone_detection(batch, "count", /*perturb_axis=*/true,
                           /*direction=*/+1, &report);
  // 2 eps groups x 3 extra-steps + 1 count group x 2 steps.
  EXPECT_EQ(report.checks, 2u * 3u + 1u * 2u);
  EXPECT_TRUE(report.ok()) << report.summary();

  // The sweep is informative, not vacuously monotone: the zero-strength
  // points never reject (they are planar: one-sidedness) and the strongest
  // points always do.
  std::uint32_t zero_rejects = 0, strong_jobs = 0, strong_rejects = 0;
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    const ScenarioParams& pp = batch.jobs[j].instance.perturb_params;
    const std::int64_t strength =
        pp.has("extra") ? pp.get_int("extra", 0) : pp.get_int("count", 0);
    if (strength == 0 && batch.results[j].verdict == Verdict::kReject) {
      ++zero_rejects;
    }
    if (strength >= 100 || (pp.has("count") && strength >= 8)) {
      ++strong_jobs;
      if (batch.results[j].verdict == Verdict::kReject) ++strong_rejects;
    }
  }
  EXPECT_EQ(zero_rejects, 0u);
  EXPECT_GT(strong_jobs, 0u);
  EXPECT_EQ(strong_rejects, strong_jobs);
}

TEST(Metamorphic, DetectionMonotoneInEpsilonOnTheFrontierManifest) {
  const Manifest m = load("frontier.json");
  BatchOptions opt;
  opt.threads = 0;
  const BatchResult batch = run_batch(m, opt);
  ASSERT_EQ(batch.failed_jobs, 0u);

  InvariantReport report;
  check_monotone_detection_in_epsilon(batch, &report);
  // grid cell: 3 strengths x 2 instances... grouped by cell key minus eps:
  // 3 extra-values -> 3 groups x 4 eps-steps; cycle: 3 counts x 3 steps.
  EXPECT_EQ(report.checks, 3u * 4u + 3u * 3u);
  EXPECT_TRUE(report.ok()) << report.summary();

  // The frontier actually crosses the detection threshold: the sweep must
  // contain both fully-detected and fully-accepted (eps too large) points.
  const std::vector<CellAggregate> cells = aggregate_cells(batch);
  bool saw_full_detection = false, saw_no_detection = false;
  for (const CellAggregate& cell : cells) {
    if (cell.rejects == cell.jobs) saw_full_detection = true;
    if (cell.rejects == 0) saw_no_detection = true;
  }
  EXPECT_TRUE(saw_full_detection);
  EXPECT_TRUE(saw_no_detection);
}

// ---- (c) relabeling invariance -------------------------------------------

TEST(Metamorphic, RelabelingPreservesVerdicts) {
  const Manifest m = parse(
      R"({"name": "relabel", "base_seed": 77,
          "defaults": {"trials": 1, "tester": "planarity"},
          "cells": [
            {"scenario": "grid", "params": {"rows": 8, "cols": 8},
             "epsilon": 0.15},
            {"scenario": "apollonian", "params": {"n": 100},
             "epsilon": 0.15},
            {"scenario": "grid", "params": {"rows": 8, "cols": 8},
             "perturb": {"kind": "plus_random_edges", "extra": 60},
             "epsilon": 0.1},
            {"scenario": "cycle", "params": {"n": 90},
             "perturb": {"kind": "k33_blobs", "count": 4}, "epsilon": 0.1},
            {"scenario": "random_tree", "params": {"n": 150},
             "tester": "cycle_free", "epsilon": 0.2}
          ]})");
  const std::vector<Job> jobs = expand_manifest(m);
  InvariantReport report;
  for (const Job& job : jobs) {
    const Graph g = build_instance(job.instance);
    // Two permutations per instance, seeds chained off the instance seed.
    check_relabeling_invariance(job, g, job.instance.seed ^ 1, &report);
    check_relabeling_invariance(job, g, job.instance.seed ^ 2, &report);
  }
  EXPECT_EQ(report.checks, jobs.size() * 2);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---- (d) determinism ------------------------------------------------------

TEST(Metamorphic, PipelinedStreamsDominateUnpipelinedThroughTheEngine) {
  Manifest m = load("metamorphic_smoke.json");
  BatchOptions opt;
  opt.threads = 0;
  const BatchResult pipelined = run_batch(m, opt);
  ASSERT_EQ(pipelined.failed_jobs, 0u);
  for (ManifestCell& cell : m.cells) cell.pipelined = false;
  const BatchResult unpipelined = run_batch(m, opt);
  ASSERT_EQ(unpipelined.failed_jobs, 0u);

  InvariantReport report;
  check_pipelining_dominance(pipelined, unpipelined, &report);
  EXPECT_EQ(report.checks, pipelined.jobs.size());
  EXPECT_TRUE(report.ok()) << report.summary();

  // The flag is live: some planarity job must actually get cheaper.
  bool strictly_cheaper = false;
  for (std::size_t j = 0; j < pipelined.jobs.size(); ++j) {
    strictly_cheaper |=
        pipelined.results[j].rounds < unpipelined.results[j].rounds;
  }
  EXPECT_TRUE(strictly_cheaper);
}

TEST(Metamorphic, CorpusReplayAndThreadsAreBitIdentical) {
  const Manifest m = load("metamorphic_smoke.json");

  // Thread sweep, in-memory.
  BatchOptions serial;
  serial.threads = 1;
  const BatchResult t1 = run_batch(m, serial);
  ASSERT_EQ(t1.failed_jobs, 0u);
  const std::string reference =
      render_aggregate_json(m, t1, aggregate_cells(t1));
  BatchOptions quad;
  quad.threads = 4;
  const BatchResult t4 = run_batch(m, quad);
  EXPECT_EQ(render_aggregate_json(m, t4, aggregate_cells(t4)), reference);

  // Corpus replay: second run loads every instance from disk and must
  // aggregate identically.
  std::string dir_template = testing::TempDir() + "cpt_meta_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  BatchOptions corpus;
  corpus.threads = 2;
  corpus.corpus_dir = dir_template;
  const BatchResult generate = run_batch(m, corpus);
  const BatchResult replay = run_batch(m, corpus);
  EXPECT_EQ(replay.corpus.disk_hits, replay.corpus.unique_instances);
  EXPECT_EQ(replay.corpus.generated, 0u);
  EXPECT_EQ(render_aggregate_json(m, generate, aggregate_cells(generate)),
            reference);
  EXPECT_EQ(render_aggregate_json(m, replay, aggregate_cells(replay)),
            reference);
}

}  // namespace
}  // namespace cpt::scenario
