// Batch front end for the scenario engine: expand manifests, run sweeps
// with cross-simulation parallelism, emit the aggregate JSON/CSV schema.
// A run reports through four outputs: the aggregate (--out/--csv), the
// stdout summary, --trace and --metrics. Wall clock per job is in the
// trace's "job" spans; the summary's first line carries the batch's.
//
//   cpt_batch list                          registry (families, perturbations,
//                                           presets, testers)
//   cpt_batch expand <manifest.json>        print the expanded job list
//   cpt_batch run <manifest.json>           execute and aggregate
//       [--threads=N]                       concurrent simulations, at most
//                                           32 (0 = env)
//       [--corpus=DIR]                      graph cache: a miss is built
//                                           and saved, a hit verified and
//                                           rebuilt
//       [--cache=DIR]                       persistent result cache: jobs
//                                           whose content address is cached
//                                           are served without simulating,
//                                           and freshly executed results
//                                           are stored; the aggregate stays
//                                           byte-identical either way;
//                                           concurrent runs may share DIR,
//                                           and a killed or interrupted run
//                                           resumes by re-running the same
//                                           command with the same DIR
//       [--out=FILE]                        aggregate JSON (deterministic:
//                                           bit-identical at every --threads)
//       [--csv=FILE]                        aggregate CSV
//       [--fault-plan=SPEC]                 deterministic hard kill for
//                                           resume tests:
//                                           exit@run_job:key=K (see
//                                           scenario/faultinject.h)
//       [--trace=FILE]                      structured span stream
//                                           (cpt_trace_v1 JSONL; every
//                                           non-timestamp field is
//                                           bit-identical at every
//                                           --threads -- see cpt_trace
//                                           diff)
//       [--metrics=FILE]                    counter/gauge/histogram
//                                           snapshot (cpt_metrics_v1; the
//                                           deterministic sections diff
//                                           like aggregates, the
//                                           "runtime" section does not)
//       [--quiet]                           suppress the summary table
//   cpt_batch gen <scenario> [k=v ...]      write one instance as an edge
//       [--base-seed=S] [--index=I]         list to stdout (graph/io.h format)
//
// Exit status:
//    0  every job ran (timed-out jobs are reported, not fatal)
//    1  hard failure: bad usage/manifest, unwritable output, a --corpus or
//       --cache path that cannot be a directory, failed jobs (the
//       aggregate covers only the jobs that ran; a failure is final for
//       the run, is never stored in --cache, and re-runs on the next run)
//    2  usage error
//  137  injected hard kill (--fault-plan; mimics SIGKILL)
// SIGINT and SIGTERM keep their default action, so an interrupted run dies
// like a killed one: it writes no output file, and re-running the same
// command with the same --cache resumes it.
#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/io.h"
#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/faultinject.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "util/trace.h"

using namespace cpt;
using namespace cpt::scenario;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cpt_batch list\n"
               "  cpt_batch expand <manifest.json>\n"
               "  cpt_batch run <manifest.json> [--threads=N] [--corpus=DIR]"
               " [--cache=DIR]\n"
               "                [--out=FILE] [--csv=FILE] [--fault-plan=SPEC]\n"
               "                [--trace=FILE] [--metrics=FILE] [--quiet]\n"
               "  cpt_batch gen <scenario> [key=value ...] [--base-seed=S]"
               " [--index=I]\n");
  return 2;
}

int cmd_list() {
  std::printf("graph families (scenario registry):\n");
  for (const FamilyInfo& f : scenario_families()) {
    std::printf("  %-20s %s%s\n", f.name, f.params_help,
                f.randomized ? "  [seeded]" : "");
  }
  std::printf("\nperturbations (eps-far wrappers, \"perturb\" block):\n");
  for (const PerturbInfo& p : scenario_perturbations()) {
    std::printf("  %-20s %s\n", p.name, p.params_help);
  }
  std::printf("\npresets (named scenarios; examples share these):\n");
  for (const PresetInfo& p : scenario_presets()) {
    std::printf("  %-20s %s\n", p.name, p.params_help);
  }
  std::printf("\ntesters: planarity | cycle_free | bipartite\n");
  return 0;
}

int cmd_expand(const std::string& path) {
  Manifest manifest;
  std::string error;
  if (!load_manifest_file(path, &manifest, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::vector<Job> jobs = expand_manifest(manifest);
  std::printf("# manifest %s: %zu jobs, base_seed=%" PRIu64 "\n",
              manifest.name.c_str(), jobs.size(), manifest.base_seed);
  std::printf("%-6s %-52s %-10s %-7s %-5s %-20s\n", "job", "instance",
              "tester", "eps", "trial", "seeds(instance/tester)");
  for (const Job& job : jobs) {
    char seeds[48];
    std::snprintf(seeds, sizeof seeds, "%016" PRIx64 "/%016" PRIx64,
                  job.instance.seed, job.tester_seed);
    std::printf("%-6u %-52s %-10s %-7.3f %-5u %s\n", job.job_index,
                job.instance.label().c_str(), tester_name(job.tester),
                job.epsilon, job.trial, seeds);
  }
  return 0;
}

int cmd_run(const std::string& path, BatchOptions options,
            const std::string& out_path, const std::string& csv_path,
            const std::string& trace_path, const std::string& metrics_path,
            bool quiet) {
  Manifest manifest;
  std::string error;
  if (!load_manifest_file(path, &manifest, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  std::unique_ptr<util::TraceSession> session;
  if (!trace_path.empty() || !metrics_path.empty()) {
    session = std::make_unique<util::TraceSession>();
    options.trace = session.get();
  }

  const BatchResult batch = run_batch(manifest, options);
  const std::vector<CellAggregate> cells = aggregate_cells(batch);

  if (!quiet) {
    std::printf("# %s: %zu jobs over %" PRIu64
                " instances, %u threads, %.2fs wall\n",
                manifest.name.c_str(), batch.jobs.size(),
                batch.corpus.unique_instances, batch.threads_used,
                batch.wall_seconds);
    std::printf("# corpus: %" PRIu64 " generated, %" PRIu64 " disk hits%s%s\n",
                batch.corpus.generated, batch.corpus.disk_hits,
                options.corpus_dir.empty() ? "" : " in ",
                options.corpus_dir.c_str());
    if (options.result_cache != nullptr) {
      std::printf("# cache: %u of %zu jobs from result cache in %s\n",
                  batch.cache_hit_jobs, batch.jobs.size(),
                  options.result_cache->dir().c_str());
    }
    if (batch.timed_out_jobs > 0) {
      std::printf("# degraded: %u job(s) timed out at the round budget\n",
                  batch.timed_out_jobs);
    }
    std::printf("%-44s %-10s %-6s %-10s %-12s %-12s\n", "scenario", "tester",
                "eps", "detect", "rounds p50", "messages p50");
    for (const CellAggregate& cell : cells) {
      char detect[24];
      std::snprintf(detect, sizeof detect, "%u/%u", cell.rejects, cell.jobs);
      std::printf("%-44s %-10s %-6.3f %-10s %-12" PRIu64 " %-12" PRIu64 "\n",
                  cell.scenario.c_str(), cell.tester.c_str(), cell.epsilon,
                  detect, cell.rounds.p50, cell.messages.p50);
    }
  }
  if (!out_path.empty() &&
      !write_text_file(out_path,
                       render_aggregate_json(manifest, batch, cells))) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!csv_path.empty() &&
      !write_text_file(csv_path, render_aggregate_csv(cells))) {
    std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
    return 1;
  }
  if (session != nullptr && !trace_path.empty() &&
      !write_text_file(trace_path, session->render_jsonl(manifest.name))) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  if (session != nullptr && !metrics_path.empty() &&
      !write_text_file(metrics_path,
                       session->metrics().render_json(manifest.name))) {
    std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  if (batch.failed_jobs > 0) {
    std::fprintf(stderr,
                 "error: %u of %zu jobs failed; the aggregate covers only "
                 "the jobs that ran\n",
                 batch.failed_jobs, batch.jobs.size());
    unsigned shown = 0;  // the first few, for the failure report
    for (std::size_t j = 0; j < batch.results.size() && shown < 3; ++j) {
      if (!batch.results[j].failed) continue;
      std::fprintf(stderr, "  %s: %s\n",
                   batch.jobs[j].instance.label().c_str(),
                   batch.results[j].error.c_str());
      ++shown;
    }
    return 1;
  }
  return 0;
}

// Creates a --corpus/--cache directory one level deep, as the stores do.
// A store that cannot write is a miss, not an error, so without this
// check an unusable path would silently cache nothing on every run.
bool ensure_store_dir(const char* flag, const std::string& dir) {
  if (dir.empty() || ::mkdir(dir.c_str(), 0755) == 0) return true;
  struct stat st {};
  const int err = errno != EEXIST                  ? errno
                  : ::stat(dir.c_str(), &st) != 0 ? errno
                  : S_ISDIR(st.st_mode)           ? 0
                                                  : ENOTDIR;
  if (err == 0) return true;
  std::fprintf(stderr, "error: %s=%s is not a usable directory: %s\n", flag,
               dir.c_str(), std::strerror(err));
  return false;
}

// Strict unsigned-integer flag parsing. The old bare atoi silently mapped
// "--threads=abc" to 0 and overflowed large values into garbage; here
// anything but a plain decimal number in [0, max] is a usage error (exit
// 2). "--threads=0" stays valid: 0 means "resolve from the environment"
// (CPT_TEST_THREADS, else 1).
bool parse_uint_flag(const char* flag, const char* text, std::uint64_t max,
                     std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    // Also rejects "" and strtoull's surprising accepts: leading
    // whitespace, "+", and "-1" (which would wrap to 2^64-1).
    std::fprintf(stderr, "error: %s expects an unsigned integer, got \"%s\"\n",
                 flag, text);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v > max) {
    std::fprintf(stderr,
                 "error: %s expects an unsigned integer <= %" PRIu64
                 ", got \"%s\"\n",
                 flag, max, text);
    return false;
  }
  *out = v;
  return true;
}

// key=value -> typed ParamValue (int, else double, else string).
bool parse_kv(const std::string& arg, ScenarioParams* params) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const std::string key = arg.substr(0, eq);
  const std::string value = arg.substr(eq + 1);
  char* end = nullptr;
  errno = 0;
  const long long i = std::strtoll(value.c_str(), &end, 10);
  // An integer past the int64 range (ERANGE) falls through to the double
  // parse, as in a manifest: strtoll's clamped value was never typed.
  if (errno == 0 && end != nullptr && *end == '\0' && !value.empty()) {
    params->set_int(key, i);
    return true;
  }
  const double d = std::strtod(value.c_str(), &end);
  if (end != nullptr && *end == '\0' && !value.empty()) {
    params->set_double(key, d);
    return true;
  }
  params->set_string(key, value);
  return true;
}

int cmd_gen(const std::vector<std::string>& args, std::uint64_t base_seed,
            std::uint64_t index) {
  if (args.empty()) return usage();
  const std::string& name = args[0];
  if (!is_known_scenario(name)) {
    std::fprintf(stderr, "error: unknown scenario \"%s\" (see cpt_batch list)\n",
                 name.c_str());
    return 1;
  }
  ScenarioParams params;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (!parse_kv(args[i], &params)) {
      std::fprintf(stderr, "error: expected key=value, got \"%s\"\n",
                   args[i].c_str());
      return 1;
    }
  }
  // As in a manifest, a key the scenario does not accept is an error, not
  // a silent default.
  const char* const keys = scenario_param_keys(name);
  for (const auto& [key, value] : params.entries()) {
    if (!param_key_allowed(keys, key)) {
      std::fprintf(stderr,
                   "error: %s: unknown param for \"%s\" (accepted: %s)\n",
                   key.c_str(), name.c_str(), keys);
      return 1;
    }
  }
  const ScenarioInstance inst =
      resolve_scenario(name, params, base_seed, index);
  Graph g;
  try {
    g = build_instance(inst);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("# %s  hash=%016" PRIx64 "\n", inst.label_with_seed().c_str(),
              inst.hash());
  write_edge_list(g, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BatchOptions options;
  std::string out_path, csv_path;
  std::string trace_path, metrics_path;
  std::string cache_dir;
  std::uint64_t base_seed = 1, index = 0;
  bool quiet = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::uint64_t parsed = 0;
    if (std::strncmp(a, "--threads=", 10) == 0) {
      if (!parse_uint_flag("--threads", a + 10, kMaxBatchThreads, &parsed)) {
        return 2;
      }
      options.threads = static_cast<unsigned>(parsed);
    } else if (std::strncmp(a, "--corpus=", 9) == 0) {
      options.corpus_dir = a + 9;
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      cache_dir = a + 8;
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      out_path = a + 6;
    } else if (std::strncmp(a, "--csv=", 6) == 0) {
      csv_path = a + 6;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      trace_path = a + 8;
    } else if (std::strncmp(a, "--metrics=", 10) == 0) {
      metrics_path = a + 10;
    } else if (std::strncmp(a, "--fault-plan=", 13) == 0) {
      FaultPlan plan;
      std::string plan_error;
      if (!FaultPlan::parse(a + 13, &plan, &plan_error)) {
        std::fprintf(stderr, "error: bad fault plan: %s\n", plan_error.c_str());
        return usage();
      }
      install_fault_plan(plan);
    } else if (std::strncmp(a, "--base-seed=", 12) == 0) {
      if (!parse_uint_flag("--base-seed", a + 12, UINT64_MAX, &parsed)) {
        return 2;
      }
      base_seed = parsed;
    } else if (std::strncmp(a, "--index=", 8) == 0) {
      if (!parse_uint_flag("--index", a + 8, UINT64_MAX, &parsed)) return 2;
      index = parsed;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strncmp(a, "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return usage();
    } else {
      args.emplace_back(a);
    }
  }
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  if (cmd == "list") return cmd_list();
  if (cmd == "expand" && args.size() == 2) return cmd_expand(args[1]);
  if (cmd == "run" && args.size() == 2) {
    if (!ensure_store_dir("--corpus", options.corpus_dir) ||
        !ensure_store_dir("--cache", cache_dir)) {
      return 1;
    }
    std::optional<ResultCache> cache;
    if (!cache_dir.empty()) {
      cache.emplace(cache_dir);
      options.result_cache = &*cache;
    }
    return cmd_run(args[1], options, out_path, csv_path, trace_path,
                   metrics_path, quiet);
  }
  if (cmd == "gen") {
    return cmd_gen({args.begin() + 1, args.end()}, base_seed, index);
  }
  return usage();
}
