// Acceptance pin for the scenario engine (ISSUE 4): the shipped
// batch_sweep manifest expands to >= 200 simulations across >= 6 graph
// families, and the aggregate JSON is bit-identical between 1-thread and
// 4-thread batch runs. Also sanity-checks the aggregated semantics
// (one-sidedness on planar cells, detection on far cells).
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/manifest.h"

namespace cpt::scenario {
namespace {

#ifndef CPT_MANIFEST_DIR
#error "CPT_MANIFEST_DIR must point at bench/manifests"
#endif

TEST(ScenarioBatch, SweepManifestCoversTheAcceptanceMatrix) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;
  const std::vector<Job> jobs = expand_manifest(m);
  EXPECT_GE(jobs.size(), 200u);
  std::set<std::string> families;
  for (const Job& job : jobs) families.insert(job.instance.family);
  EXPECT_GE(families.size(), 6u) << "families covered: " << families.size();
}

TEST(ScenarioBatch, AggregateJsonBitIdenticalAcrossThreads) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;

  BatchOptions serial;
  serial.threads = 1;
  const BatchResult a = run_batch(m, serial);
  BatchOptions parallel;
  parallel.threads = 4;
  const BatchResult b = run_batch(m, parallel);

  ASSERT_GE(a.jobs.size(), 200u);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(b.threads_used, 4u);

  const std::vector<CellAggregate> cells_a = aggregate_cells(a);
  const std::vector<CellAggregate> cells_b = aggregate_cells(b);
  const std::string json_a = render_aggregate_json(m, a, cells_a);
  const std::string json_b = render_aggregate_json(m, b, cells_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(render_aggregate_csv(cells_a), render_aggregate_csv(cells_b));

  // Semantics: one-sidedness means planar-family planarity cells never
  // reject; the far families in the sweep must detect.
  for (const CellAggregate& cell : cells_a) {
    if (cell.tester != "planarity") continue;
    const bool planar_family =
        cell.scenario.rfind("grid(", 0) == 0 ||
        cell.scenario.rfind("triangulated_grid(", 0) == 0 ||
        cell.scenario.rfind("apollonian(", 0) == 0 ||
        (cell.scenario.rfind("random_planar(", 0) == 0 &&
         cell.scenario.find('+') == std::string::npos) ||
        cell.scenario.rfind("random_tree(", 0) == 0;
    if (planar_family && cell.scenario.find('+') == std::string::npos) {
      EXPECT_EQ(cell.rejects, 0u) << "one-sidedness violated: " << cell.key;
    }
    if (cell.scenario.rfind("k5_blobs(", 0) == 0 ||
        cell.scenario.find("+k33_blobs(") != std::string::npos) {
      EXPECT_EQ(cell.rejects, cell.jobs) << "missed detection: " << cell.key;
    }
  }
}

}  // namespace
}  // namespace cpt::scenario
