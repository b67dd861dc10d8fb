#include "scenario/aggregate.h"

#include <algorithm>
#include <unordered_map>

#include "scenario/json.h"
#include "util/contracts.h"
#include "util/json_text.h"

namespace cpt::scenario {

QuantileSummary summarize(std::vector<std::uint64_t> values) {
  QuantileSummary q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.min = values.front();
  q.p25 = util::quarter_rank(values, 1);
  q.p50 = util::quarter_rank(values, 2);
  q.p75 = util::quarter_rank(values, 3);
  q.max = values.back();
  return q;
}

std::vector<CellAggregate> aggregate_cells(const BatchResult& batch) {
  CPT_EXPECTS(batch.jobs.size() == batch.results.size());
  std::vector<CellAggregate> cells;
  // Per cell (same index as `cells`): the values its quantiles and its
  // instance count are taken from. A cell's jobs share one instance label,
  // so their instance hashes differ exactly when their seeds do.
  struct Values {
    std::vector<std::uint64_t> rounds, messages, instance_seeds;
  };
  std::vector<Values> values;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    const JobResult& result = batch.results[j];
    if (result.failed || result.timed_out) continue;
    const Job& job = batch.jobs[j];
    const auto [it, fresh] = index.try_emplace(job.cell_key(), cells.size());
    if (fresh) {
      CellAggregate& cell = cells.emplace_back();
      cell.key = it->first;
      cell.scenario = job.instance.label();
      cell.tester = tester_name(job.tester);
      cell.epsilon = job.epsilon;
      cell.adaptive = job.adaptive;
      cell.randomized = job.randomized;
      cell.n_min = cell.n_max = result.n;
      cell.m_min = cell.m_max = result.m;
      values.emplace_back();
    }
    CellAggregate& cell = cells[it->second];
    ++cell.jobs;
    if (result.verdict == Verdict::kAccept) ++cell.accepts;
    if (result.verdict == Verdict::kReject) ++cell.rejects;
    cell.n_min = std::min(cell.n_min, result.n);
    cell.n_max = std::max(cell.n_max, result.n);
    cell.m_min = std::min(cell.m_min, result.m);
    cell.m_max = std::max(cell.m_max, result.m);
    Values& v = values[it->second];
    v.rounds.push_back(result.rounds);
    v.messages.push_back(result.messages);
    // The trials of one instance are consecutive jobs: one seed per run of
    // them keeps this list near the instance count.
    const std::uint64_t seed = job.instance.seed;
    if (v.instance_seeds.empty() || v.instance_seeds.back() != seed) {
      v.instance_seeds.push_back(seed);
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellAggregate& cell = cells[c];
    std::vector<std::uint64_t>& seeds = values[c].instance_seeds;
    std::sort(seeds.begin(), seeds.end());
    cell.instances = static_cast<std::uint32_t>(
        std::unique(seeds.begin(), seeds.end()) - seeds.begin());
    cell.detection_rate = static_cast<double>(cell.rejects) / cell.jobs;
    cell.rounds = summarize(std::move(values[c].rounds));
    cell.messages = summarize(std::move(values[c].messages));
  }
  return cells;
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

void append_cell_body(std::string& out, const CellAggregate& cell) {
  const char* const sep = "\n     ";
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
    append_cell_body(out, cells[c]);
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

}  // namespace cpt::scenario
