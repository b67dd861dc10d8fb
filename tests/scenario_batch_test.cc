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

// ISSUE 5 acceptance: the streamed aggregate (per-cell JSONL flushed as
// each sweep cell completes, per-job results never retained) is
// bit-identical to the in-memory aggregate on batch_sweep.json at
// --threads 1 and 4, with per-job result storage bounded by the reorder
// window + one open sweep cell.
TEST(ScenarioBatch, StreamedAggregateBitIdenticalToInMemory) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;
  const std::vector<Job> jobs = expand_manifest(m);

  struct StreamRun {
    std::string jsonl;
    std::string aggregate_json;
    std::size_t peak_pending = 0;
    std::size_t peak_open_cells = 0;
    std::size_t cells = 0;
  };
  const auto run_streamed = [&](unsigned threads) {
    StreamRun out;
    StreamingAggregator agg(jobs);
    out.jsonl = render_stream_header(m, jobs.size());
    agg.set_cell_sink([&](const CellAggregate& cell) {
      out.jsonl += render_stream_cell(cell);
    });
    BatchOptions opt;
    opt.threads = threads;
    StreamStats stats;
    const BatchResult batch = run_batch(
        m, opt,
        [&](const Job& job, const JobResult& result) {
          agg.consume(job, result);
        },
        &stats);
    EXPECT_TRUE(batch.results.empty());
    out.jsonl += render_stream_footer(batch, agg.finish().size());
    out.aggregate_json = render_aggregate_json(m, batch, agg.cells());
    out.peak_pending = stats.peak_pending_results;
    out.peak_open_cells = agg.peak_open_cells();
    out.cells = agg.cells().size();
    return out;
  };

  const StreamRun t1 = run_streamed(1);
  const StreamRun t4 = run_streamed(4);
  EXPECT_EQ(t1.jsonl, t4.jsonl);
  EXPECT_EQ(t1.aggregate_json, t4.aggregate_json);

  // In-memory reference: identical document.
  BatchOptions opt;
  opt.threads = 1;
  const BatchResult retained = run_batch(m, opt);
  EXPECT_EQ(render_aggregate_json(m, retained, aggregate_cells(retained)),
            t1.aggregate_json);

  // Bounded residency: expansion emits each cell's jobs contiguously, so
  // at most one cell buffers per-job values at a time, and the engine's
  // reorder window is O(batch threads) -- while the sweep itself is 200+
  // jobs over dozens of cells.
  EXPECT_GE(t4.cells, 25u);
  EXPECT_EQ(t1.peak_open_cells, 1u);
  EXPECT_LE(t4.peak_open_cells, 2u);
  EXPECT_LE(t1.peak_pending, 1u);
  EXPECT_LE(t4.peak_pending, 4u * 4u + 4u);
  // The streamed JSONL carries one line per cell plus header and footer.
  std::size_t lines = 0;
  for (const char c : t1.jsonl) lines += c == '\n';
  EXPECT_EQ(lines, t1.cells + 2);
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
