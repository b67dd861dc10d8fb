// E11 -- multicore scaling of the CONGEST simulator and the batch engine.
// Two axes, both swept over a thread list (default 1,2,4,8):
//   * intra-sim -- one simulation, N workers inside Simulator::run, for the
//     E0 stage1 and saturate workloads. Message/round counts are verified
//     bit-identical across every thread count.
//   * cross-sim -- the scenario engine running bench/manifests/e11.json with
//     N concurrent single-threaded simulations. Aggregate JSON is verified
//     byte-identical across every cell.
// Results go to BENCH_thread_scaling.json (bench_json schema; metric names
// are intra/<workload>/t<N>/... and cross/t<N>/... -- see
// bench/README.md).
//
// Usage: exp_e11_thread_scaling [--grid=96] [--reps=3] [--threads=1,2,4,8]
//                               [--manifest=PATH]
//                               [--out=BENCH_thread_scaling.json]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "congest/metrics.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/manifest.h"

namespace cpt {
namespace {

// Every node sends on every port each round (the E0 saturate workload).
class Saturate : public congest::Program {
 public:
  explicit Saturate(std::uint64_t rounds) : rounds_(rounds) {}

  void begin(congest::Exec& ex) override {
    const NodeId n = ex.network().num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      for (std::uint32_t p = 0; p < ex.network().port_count(v); ++p) {
        ex.send(v, p, congest::Msg::make(p));
      }
    }
  }

  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const congest::Inbound> inbox) override {
    if (ex.current_round() >= rounds_) return;
    for (const congest::Inbound& in : inbox) {
      ex.send(v, in.port, in.msg);
    }
  }

 private:
  std::uint64_t rounds_;
};

struct Throughput {
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  double seconds = 0;

  double messages_per_sec() const {
    return seconds > 0 ? static_cast<double>(messages) / seconds : 0;
  }
};

Throughput best_of(int reps, const std::function<Throughput()>& run) {
  Throughput best;
  for (int i = 0; i < reps; ++i) {
    const Throughput t = run();
    if (best.seconds == 0 || t.seconds < best.seconds) best = t;
  }
  return best;
}

void report(bench::BenchJson& out, const std::string& prefix,
            const Throughput& t) {
  std::printf("  %-28s : %12llu msgs  %8llu rounds  %8.3fs  %12.0f msg/s\n",
              prefix.c_str(), static_cast<unsigned long long>(t.messages),
              static_cast<unsigned long long>(t.rounds), t.seconds,
              t.messages_per_sec());
  out.metric(prefix + "/messages", static_cast<double>(t.messages), "1");
  out.metric(prefix + "/rounds", static_cast<double>(t.rounds), "1");
  out.metric(prefix + "/wall", t.seconds, "s");
  out.metric(prefix + "/messages_per_sec", t.messages_per_sec(), "1/s");
}

bool parse_thread_list(const char* text, std::vector<unsigned>* out) {
  out->clear();
  while (*text != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || v == 0 || v > 64) return false;
    out->push_back(static_cast<unsigned>(v));
    text = end;
    if (*text == ',') ++text;
    else if (*text != '\0') return false;
  }
  return !out->empty();
}

}  // namespace
}  // namespace cpt

int main(int argc, char** argv) {
  using namespace cpt;
  using namespace cpt::scenario;
  NodeId side = 96;
  int reps = 3;
  std::vector<unsigned> thread_list{1, 2, 4, 8};
  std::string manifest_path = CPT_MANIFEST_DIR "/e11.json";
  std::string out_path = "BENCH_thread_scaling.json";
  for (int i = 1; i < argc; ++i) {
    unsigned long parsed = 0;
    if (std::strncmp(argv[i], "--grid=", 7) == 0) {
      if (!bench::parse_count_flag("--grid", argv[i] + 7, 1,
                                   bench::kMaxGridSide, &parsed)) {
        return 2;
      }
      side = static_cast<NodeId>(parsed);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      if (!bench::parse_count_flag("--reps", argv[i] + 7, 1, bench::kMaxReps,
                                   &parsed)) {
        return 2;
      }
      reps = static_cast<int>(parsed);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      if (!parse_thread_list(argv[i] + 10, &thread_list)) {
        std::fprintf(stderr, "bad --threads list: %s\n", argv[i] + 10);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
      manifest_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 2;
    }
  }

  bench::header("E11: thread scaling (intra-sim and cross-sim)",
                "deterministic parallel rounds: identical results at every "
                "thread count; only wall clock moves");
  const Graph g = gen::triangulated_grid(side, side);
  std::printf("triangulated_grid(%u,%u): n=%u m=%u, best of %d reps\n", side,
              side, g.num_nodes(), g.num_edges(), reps);
  congest::Network net(g);

  bench::BenchJson out("thread_scaling");
  bench::add_provenance(out);
  out.meta("graph", "triangulated_grid");
  out.meta("side", static_cast<std::int64_t>(side));
  out.meta("nodes", static_cast<std::int64_t>(g.num_nodes()));
  out.meta("edges", static_cast<std::int64_t>(g.num_edges()));
  {
    std::string list;
    for (const unsigned t : thread_list) {
      if (!list.empty()) list += ',';
      list += std::to_string(t);
    }
    out.meta("threads_list", list);
  }

  // ---- Intra-sim axis: one simulation, t workers. The first thread
  // count's cell is the result baseline; every other cell must reproduce
  // its ledgers exactly.
  std::printf("\nintra-sim (one simulation, N workers):\n");
  Throughput base_stage1, base_saturate;
  bool have_base = false;
  for (const unsigned t : thread_list) {
    congest::SimOptions sopt;
    sopt.num_threads = t;
    congest::Simulator sim(net, sopt);
    const Throughput stage1 = best_of(reps, [&] {
      congest::RoundLedger ledger;
      Stage1Options opt;
      bench::Timer timer;
      const Stage1Result r = run_stage1(sim, g, opt, ledger);
      if (r.rejected) std::fprintf(stderr, "unexpected stage1 reject\n");
      return Throughput{ledger.total_messages(), ledger.total_rounds(),
                        timer.seconds()};
    });
    report(out, "intra/stage1/t" + std::to_string(t), stage1);
    const Throughput saturate = best_of(reps, [&] {
      Saturate sat(64);
      bench::Timer timer;
      const congest::PassResult r = sim.run(sat);
      return Throughput{r.messages, r.rounds, timer.seconds()};
    });
    report(out, "intra/saturate/t" + std::to_string(t), saturate);
    if (!have_base) {
      base_stage1 = stage1;
      base_saturate = saturate;
      have_base = true;
    } else if (stage1.messages != base_stage1.messages ||
               stage1.rounds != base_stage1.rounds ||
               saturate.messages != base_saturate.messages ||
               saturate.rounds != base_saturate.rounds) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION at t=%u: counts differ from the "
                   "t=%u baseline\n",
                   t, thread_list.front());
      return 1;
    }
  }

  // ---- Cross-sim axis: the batch engine, t concurrent simulations.
  Manifest manifest;
  std::string error;
  if (!load_manifest_file(manifest_path, &manifest, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("\ncross-sim (batch engine, %s):\n", manifest.name.c_str());
  std::string base_aggregate;
  const auto run_cross = [&](const BatchOptions& options,
                             const std::string& cell) -> bool {
    const double wall = [&] {
      double best = 0;
      for (int i = 0; i < reps; ++i) {
        const BatchResult batch = run_batch(manifest, options);
        if (batch.failed_jobs > 0 || batch.timed_out_jobs > 0) {
          std::fprintf(stderr, "error: %u failed / %u timed-out jobs\n",
                       batch.failed_jobs, batch.timed_out_jobs);
          return -1.0;
        }
        const std::string agg = render_aggregate_json(
            manifest, batch, aggregate_cells(batch));
        if (base_aggregate.empty()) {
          base_aggregate = agg;
        } else if (agg != base_aggregate) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION at %s: aggregate JSON differs\n",
                       cell.c_str());
          return -1.0;
        }
        if (best == 0 || batch.wall_seconds < best) best = batch.wall_seconds;
      }
      return best;
    }();
    if (wall < 0) return false;
    const double jobs = static_cast<double>(expand_manifest(manifest).size());
    std::printf("  %-28s : %8.3fs  %8.1f jobs/s\n", cell.c_str(), wall,
                jobs / wall);
    out.metric(cell + "/wall", wall, "s");
    out.metric(cell + "/jobs_per_sec", jobs / wall, "1/s");
    return true;
  };
  for (const unsigned t : thread_list) {
    BatchOptions options;
    options.threads = t;
    if (!run_cross(options, "cross/t" + std::to_string(t))) return 1;
  }

  out.meta("peak_rss_bytes",
           static_cast<std::int64_t>(bench::peak_rss_bytes()));
  if (!out.write(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (peak rss %.1f MiB)\n", out_path.c_str(),
              static_cast<double>(bench::peak_rss_bytes()) / (1024 * 1024));
  return 0;
}
