// Aggregation of batch results into a stable JSON/CSV schema.
//
// Jobs group by Job::cell_key() (instance label + tester + epsilon +
// mode markers); within a cell the instance and trial indices enumerate
// repetitions. Every aggregate field is a deterministic function of the
// job list and the simulated results (verdicts, rounds, messages, graph
// sizes) -- wall clock lives in the --trace job spans -- so the
// rendered aggregate JSON is bit-identical across batch --threads values
// (pinned by scenario_batch_test.cc).
//
// Quantiles are nearest-rank with midpoint rounding up over the sorted
// per-cell values: index(q) = floor(q * (count - 1) + 1/2) computed in
// integer arithmetic (quarters: (k*(count-1) + 2) / 4 for k = 0..4).
//
// Failed jobs (JobResult::failed) and timed-out jobs (JobResult::
// timed_out, the max_rounds guard) contribute to no cell; callers surface
// BatchResult::failed_jobs / timed_out_jobs (rendered as "failed_jobs" /
// "timed_out_jobs" when nonzero). A cancelled batch renders "partial":
// true plus "completed_jobs" so a truncated document can never pass for a
// finished sweep; the jobs it never ran join no cell either.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/engine.h"

namespace cpt::scenario {

struct QuantileSummary {
  std::uint64_t min = 0, p25 = 0, p50 = 0, p75 = 0, max = 0;
};

QuantileSummary summarize(std::vector<std::uint64_t> values);

struct CellAggregate {
  std::string key;              // Job::cell_key()
  std::string scenario;         // instance label (family+params+perturb)
  std::string tester;
  double epsilon = 0.1;
  bool adaptive = false;
  bool randomized = false;
  std::uint32_t jobs = 0;       // instances x trials (failed jobs excluded)
  std::uint32_t instances = 0;  // distinct graphs
  std::uint32_t accepts = 0;
  std::uint32_t rejects = 0;
  double detection_rate = 0;    // rejects / jobs
  NodeId n_min = 0, n_max = 0;  // across the cell's instances
  EdgeId m_min = 0, m_max = 0;
  QuantileSummary rounds;
  QuantileSummary messages;
};

// One pass over the batch's results. Cells come in first-seen order:
// the order of each cell's first job that joins it, which is
// deterministic (expansion order).
std::vector<CellAggregate> aggregate_cells(const BatchResult& batch);

// The aggregate document. Schema documented in bench/README.md.
std::string render_aggregate_json(const Manifest& manifest,
                                  const BatchResult& batch,
                                  const std::vector<CellAggregate>& cells);

// One header line + one row per cell.
std::string render_aggregate_csv(const std::vector<CellAggregate>& cells);

}  // namespace cpt::scenario
