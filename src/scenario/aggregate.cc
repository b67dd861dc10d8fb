#include "scenario/aggregate.h"

#include <algorithm>

#include "scenario/json.h"
#include "util/contracts.h"

namespace cpt::scenario {

QuantileSummary summarize(std::vector<std::uint64_t> values) {
  QuantileSummary q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t last = values.size() - 1;
  const auto rank = [&](std::size_t k) {  // quarter k of 4
    return values[(k * last + 2) / 4];
  };
  q.min = values.front();
  q.p25 = rank(1);
  q.p50 = rank(2);
  q.p75 = rank(3);
  q.max = values.back();
  return q;
}

StreamingAggregator::StreamingAggregator(const std::vector<Job>& jobs) {
  for (const Job& job : jobs) ++expected_[job.cell_key()];
}

void StreamingAggregator::finalize(std::size_t index) {
  CellAggregate& cell = cells_[index];
  Accum& acc = accums_[index];
  cell.instances = static_cast<std::uint32_t>(acc.instance_hashes.size());
  cell.detection_rate =
      cell.jobs == 0 ? 0.0
                     : static_cast<double>(cell.rejects) / cell.jobs;
  cell.rounds = summarize(std::move(acc.rounds));
  cell.messages = summarize(std::move(acc.messages));
  acc = Accum{};  // drop the per-job buffers
  acc.done = true;
  --open_cells_;
}

void StreamingAggregator::consume(const Job& job, const JobResult& result) {
  ++consumed_jobs_;
  std::string key = job.cell_key();
  const std::uint32_t seen = ++consumed_[key];
  if (result.failed || result.timed_out) {
    // Neither contributes values to a cell; both still tick the per-key
    // counter so the cell finalizes when its last job arrives.
    if (result.timed_out) {
      ++timed_out_jobs_;
    } else {
      ++failed_jobs_;
    }
  } else {
    auto [it, fresh] = index_.emplace(std::move(key), cells_.size());
    if (fresh) {
      CellAggregate cell;
      cell.key = it->first;
      cell.scenario = job.instance.label();
      cell.tester = tester_name(job.tester);
      cell.epsilon = job.epsilon;
      cell.adaptive = job.adaptive;
      cell.randomized = job.randomized;
      cell.n_min = result.n;
      cell.n_max = result.n;
      cell.m_min = result.m;
      cell.m_max = result.m;
      cells_.push_back(std::move(cell));
      accums_.emplace_back();
      accums_.back().open = true;
      ++open_cells_;
      peak_open_cells_ = std::max(peak_open_cells_, open_cells_);
    }
    CellAggregate& cell = cells_[it->second];
    Accum& acc = accums_[it->second];
    ++cell.jobs;
    if (result.verdict == Verdict::kAccept) ++cell.accepts;
    if (result.verdict == Verdict::kReject) ++cell.rejects;
    cell.n_min = std::min(cell.n_min, result.n);
    cell.n_max = std::max(cell.n_max, result.n);
    cell.m_min = std::min(cell.m_min, result.m);
    cell.m_max = std::max(cell.m_max, result.m);
    cell.wall_seconds += result.wall_seconds;
    acc.rounds.push_back(result.rounds);
    acc.messages.push_back(result.messages);
    acc.instance_hashes.insert(job.instance.hash());
    key = cell.key;  // emplace may have consumed the local above
  }
  if (seen == expected_[key]) {
    const auto it = index_.find(key);
    if (it != index_.end() && accums_[it->second].open) {
      finalize(it->second);
    }
  }
  // Flush finalized cells in first-seen order (== the in-memory document's
  // cell order); a cell whose key recurs later in the expansion holds the
  // queue until its last job lands.
  while (next_flush_ < cells_.size() && accums_[next_flush_].done) {
    if (cell_sink_) cell_sink_(cells_[next_flush_]);
    ++next_flush_;
  }
}

const std::vector<CellAggregate>& StreamingAggregator::finish() {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (accums_[i].open) finalize(i);
  }
  while (next_flush_ < cells_.size()) {
    if (cell_sink_) cell_sink_(cells_[next_flush_]);
    ++next_flush_;
  }
  return cells_;
}

std::vector<CellAggregate> aggregate_cells(const BatchResult& batch) {
  CPT_EXPECTS(batch.jobs.size() == batch.results.size());
  StreamingAggregator agg(batch.jobs);
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    agg.consume(batch.jobs[j], batch.results[j]);
  }
  return agg.cells();
}

namespace {

void append_quantiles(std::string& out, const char* name,
                      const QuantileSummary& q) {
  out += "\"";
  out += name;
  out += "\": {\"min\": " + json_render_uint(q.min);
  out += ", \"p25\": " + json_render_uint(q.p25);
  out += ", \"p50\": " + json_render_uint(q.p50);
  out += ", \"p75\": " + json_render_uint(q.p75);
  out += ", \"max\": " + json_render_uint(q.max);
  out += "}";
}

// The cell body shared by the aggregate document (sep = newline + indent)
// and the stream lines (sep = single space): identical fields, identical
// order, identical value rendering.
void append_cell_body(std::string& out, const CellAggregate& cell,
                      const char* sep) {
  out += "{\"scenario\": ";
  json_append_escaped(out, cell.scenario);
  out += ", \"tester\": ";
  json_append_escaped(out, cell.tester);
  out += ", \"epsilon\": " + json_render_double(cell.epsilon);
  if (cell.adaptive) out += ", \"adaptive\": true";
  if (cell.randomized) out += ", \"randomized\": true";
  out += ",";
  out += sep;
  out += "\"jobs\": " + json_render_uint(cell.jobs);
  out += ", \"instances\": " + json_render_uint(cell.instances);
  out += ", \"n\": [" + json_render_uint(cell.n_min) + ", " +
         json_render_uint(cell.n_max) + "]";
  out += ", \"m\": [" + json_render_uint(cell.m_min) + ", " +
         json_render_uint(cell.m_max) + "]";
  out += ",";
  out += sep;
  out += "\"accepts\": " + json_render_uint(cell.accepts);
  out += ", \"rejects\": " + json_render_uint(cell.rejects);
  out += ", \"detection_rate\": " + json_render_double(cell.detection_rate);
  out += ",";
  out += sep;
  append_quantiles(out, "rounds", cell.rounds);
  out += ",";
  out += sep;
  append_quantiles(out, "messages", cell.messages);
  out += "}";
}

}  // namespace

std::string render_aggregate_json(const Manifest& manifest,
                                  const BatchResult& batch,
                                  const std::vector<CellAggregate>& cells) {
  std::string out = "{\n  \"schema\": \"cpt_batch_aggregate_v1\",\n  \"name\": ";
  json_append_escaped(out, manifest.name);
  out += ",\n  \"base_seed\": " + json_render_uint(manifest.base_seed);
  out += ",\n  \"jobs\": " + json_render_uint(batch.jobs.size());
  if (batch.failed_jobs > 0) {
    out += ",\n  \"failed_jobs\": " + json_render_uint(batch.failed_jobs);
  }
  if (batch.timed_out_jobs > 0) {
    out += ",\n  \"timed_out_jobs\": " +
           json_render_uint(batch.timed_out_jobs);
  }
  if (batch.cancelled) {
    out += ",\n  \"partial\": true";
    out += ",\n  \"completed_jobs\": " +
           json_render_uint(batch.completed_jobs);
  }
  out += ",\n  \"unique_instances\": " +
         json_render_uint(batch.corpus.unique_instances);
  out += ",\n  \"cells\": [";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out += c == 0 ? "\n    " : ",\n    ";
    append_cell_body(out, cells[c], "\n     ");
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string render_aggregate_csv(const std::vector<CellAggregate>& cells) {
  std::string out =
      "scenario,tester,epsilon,adaptive,randomized,jobs,instances,"
      "n_min,n_max,m_min,m_max,accepts,rejects,detection_rate,"
      "rounds_min,rounds_p50,rounds_max,messages_min,messages_p50,"
      "messages_max\n";
  for (const CellAggregate& cell : cells) {
    // Scenario labels contain commas; quote them.
    out += '"';
    for (const char ch : cell.scenario) {
      if (ch == '"') out += '"';  // CSV doubling
      out += ch;
    }
    out += '"';
    out += ',';
    out += cell.tester;
    out += ',' + json_render_double(cell.epsilon);
    out += cell.adaptive ? ",1" : ",0";
    out += cell.randomized ? ",1" : ",0";
    out += ',' + json_render_uint(cell.jobs);
    out += ',' + json_render_uint(cell.instances);
    out += ',' + json_render_uint(cell.n_min);
    out += ',' + json_render_uint(cell.n_max);
    out += ',' + json_render_uint(cell.m_min);
    out += ',' + json_render_uint(cell.m_max);
    out += ',' + json_render_uint(cell.accepts);
    out += ',' + json_render_uint(cell.rejects);
    out += ',' + json_render_double(cell.detection_rate);
    out += ',' + json_render_uint(cell.rounds.min);
    out += ',' + json_render_uint(cell.rounds.p50);
    out += ',' + json_render_uint(cell.rounds.max);
    out += ',' + json_render_uint(cell.messages.min);
    out += ',' + json_render_uint(cell.messages.p50);
    out += ',' + json_render_uint(cell.messages.max);
    out += '\n';
  }
  return out;
}

std::string render_timing_json(const Manifest& manifest,
                               const BatchResult& batch,
                               const std::vector<CellAggregate>& cells,
                               const util::MetricsRegistry* metrics) {
  std::string out = "{\n  \"schema\": \"cpt_batch_timing_v1\",\n  \"name\": ";
  json_append_escaped(out, manifest.name);
  out += ",\n  \"threads\": " + json_render_uint(batch.threads_used);
  out += ",\n  \"jobs\": " + json_render_uint(batch.jobs.size());
  out += ",\n  \"wall_seconds\": " + json_render_double(batch.wall_seconds);
  // The cache counter lives here, not in the aggregate document: a rerun
  // served partly from the result cache must render an aggregate
  // byte-identical to an uninterrupted run's.
  out += ",\n  \"cache_hit_jobs\": " + json_render_uint(batch.cache_hit_jobs);
  out += ",\n  \"corpus\": {\"unique_instances\": " +
         json_render_uint(batch.corpus.unique_instances);
  out += ", \"disk_hits\": " + json_render_uint(batch.corpus.disk_hits);
  out += ", \"generated\": " + json_render_uint(batch.corpus.generated);
  out += ", \"skipped\": " + json_render_uint(batch.corpus.skipped);
  out += ", \"corrupt_files\": " + json_render_uint(batch.corpus.corrupt_files);
  out += "},\n  \"cells\": [";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out += c == 0 ? "\n" : ",\n";
    out += "    {\"scenario\": ";
    json_append_escaped(out, cells[c].scenario);
    out += ", \"tester\": ";
    json_append_escaped(out, cells[c].tester);
    out += ", \"wall_seconds\": " + json_render_double(cells[c].wall_seconds);
    out += "}";
  }
  out += "\n  ]";
  if (metrics != nullptr && !metrics->empty()) {
    out += ",\n  \"metrics\": " + metrics->render_object(2);
  }
  out += "\n}\n";
  return out;
}

std::string render_stream_header(const Manifest& manifest, std::size_t jobs) {
  std::string out = "{\"schema\": \"cpt_batch_aggregate_stream_v1\", \"name\": ";
  json_append_escaped(out, manifest.name);
  out += ", \"base_seed\": " + json_render_uint(manifest.base_seed);
  out += ", \"jobs\": " + json_render_uint(jobs);
  out += "}\n";
  return out;
}

std::string render_stream_cell(const CellAggregate& cell) {
  std::string out;
  append_cell_body(out, cell, " ");
  out += '\n';
  return out;
}

std::string render_stream_footer(const BatchResult& batch, std::size_t cells) {
  std::string out = "{\"end\": true, \"cells\": " + json_render_uint(cells);
  out += ", \"jobs\": " + json_render_uint(batch.jobs.size());
  out += ", \"failed_jobs\": " + json_render_uint(batch.failed_jobs);
  if (batch.timed_out_jobs > 0) {
    out += ", \"timed_out_jobs\": " + json_render_uint(batch.timed_out_jobs);
  }
  if (batch.cancelled) {
    out += ", \"partial\": true, \"completed_jobs\": " +
           json_render_uint(batch.completed_jobs);
  }
  out += ", \"unique_instances\": " +
         json_render_uint(batch.corpus.unique_instances);
  out += "}\n";
  return out;
}

}  // namespace cpt::scenario
