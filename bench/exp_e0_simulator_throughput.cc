// E0 -- delivery-engine throughput of the CONGEST simulator. Every other
// experiment (E1..E10) is bottlenecked by Simulator::run, so this is the
// one perf trajectory tracked across PRs: it writes BENCH_congest_sim.json
// (schema in bench/README.md) with messages/sec and rounds/sec for three
// workloads on a triangulated grid:
//   * stage1    -- the paper's Stage I partition (many short passes; mixes
//                  delivery with host-side merge logic),
//   * bfs       -- repeated BfsForest waves (bursty, message-dense rounds),
//   * saturate  -- every node sends on every port every round (pure
//                  delivery-engine stress; the headline messages/sec).
//
// Usage: exp_e0_simulator_throughput [--grid=256] [--reps=3] [--threads=1]
//                                    [--out=BENCH_congest_sim.json]
// --threads sets the simulator worker count (deterministic: message and
// round counts are identical at every value; only wall time changes). The
// JSON carries it as meta "threads".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "congest/metrics.h"
#include "congest/network.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "graph/generators.h"
#include "partition/part_forest.h"
#include "partition/partition.h"

namespace cpt {
namespace {

// Every node sends on every port each round, for `rounds` rounds: the
// densest CONGEST-legal load (one message per directed edge per round).
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

// Stage I's message-dense pass: the peeling announce-exchange (pass A of
// the forest decomposition) on singleton parts — every node announces its
// part root on every port, receivers record the neighbor roots. One
// simulator pass per super-round, repeated `reps` times.
class PeelAnnounce : public congest::Program {
 public:
  PeelAnnounce(const Graph& g, const PartForest& pf) : g_(&g), pf_(&pf) {
    neighbor_root.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      neighbor_root[v].assign(g.degree(v), kNoNode);
    }
  }

  void begin(congest::Exec& ex) override {
    for (NodeId v = 0; v < g_->num_nodes(); ++v) {
      const auto root = static_cast<std::int64_t>(pf_->root[v]);
      for (std::uint32_t p = 0; p < ex.network().port_count(v); ++p) {
        ex.send(v, p, congest::Msg::make(10, root));
      }
    }
  }

  void on_wake(congest::Exec&, NodeId v,
               std::span<const congest::Inbound> inbox) override {
    for (const congest::Inbound& in : inbox) {
      neighbor_root[v][in.port] = static_cast<NodeId>(in.msg.w[0]);
    }
  }

  std::vector<std::vector<NodeId>> neighbor_root;

 private:
  const Graph* g_;
  const PartForest* pf_;
};

struct Throughput {
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  double seconds = 0;

  double messages_per_sec() const {
    return seconds > 0 ? static_cast<double>(messages) / seconds : 0;
  }
  double rounds_per_sec() const {
    return seconds > 0 ? static_cast<double>(rounds) / seconds : 0;
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

void report(bench::BenchJson& out, const char* workload, const Throughput& t) {
  std::printf("  %-8s : %12llu msgs  %8llu rounds  %8.3fs  %12.0f msg/s\n",
              workload, static_cast<unsigned long long>(t.messages),
              static_cast<unsigned long long>(t.rounds), t.seconds,
              t.messages_per_sec());
  const std::string prefix(workload);
  out.metric(prefix + "/messages", static_cast<double>(t.messages), "1");
  out.metric(prefix + "/rounds", static_cast<double>(t.rounds), "1");
  out.metric(prefix + "/wall", t.seconds, "s");
  out.metric(prefix + "/messages_per_sec", t.messages_per_sec(), "1/s");
  out.metric(prefix + "/rounds_per_sec", t.rounds_per_sec(), "1/s");
}

}  // namespace
}  // namespace cpt

int main(int argc, char** argv) {
  using namespace cpt;
  NodeId side = 256;
  int reps = 3;
  unsigned threads = 0;
  std::string out_path = "BENCH_congest_sim.json";
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
      threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 2;
    }
  }

  bench::header("E0: simulator delivery-engine throughput",
                "wall-clock should track the simulated round/message counts");
  const Graph g = gen::triangulated_grid(side, side);
  std::printf("triangulated_grid(%u,%u): n=%u m=%u, best of %d reps\n",
              side, side, g.num_nodes(), g.num_edges(), reps);
  congest::Network net(g);
  congest::SimOptions sim_opt;
  sim_opt.num_threads = threads;
  congest::Simulator sim(net, sim_opt);
  std::printf("simulator workers: %u\n", sim.num_workers());

  bench::BenchJson out("congest_sim_throughput");
  bench::add_provenance(out);
  out.meta("graph", "triangulated_grid");
  out.meta("threads", static_cast<std::int64_t>(sim.num_workers()));
  out.meta("side", static_cast<std::int64_t>(side));
  out.meta("nodes", static_cast<std::int64_t>(g.num_nodes()));
  out.meta("edges", static_cast<std::int64_t>(g.num_edges()));

  // Stage I partition pass (the paper's Theorem 3 machinery).
  const Throughput stage1 = best_of(reps, [&] {
    congest::RoundLedger ledger;
    Stage1Options opt;
    bench::Timer timer;
    const Stage1Result r = run_stage1(sim, g, opt, ledger);
    Throughput t{ledger.total_messages(), ledger.total_rounds(),
                 timer.seconds()};
    if (r.rejected) std::fprintf(stderr, "unexpected stage1 reject\n");
    return t;
  });
  report(out, "stage1", stage1);

  // Stage I's dense pass: the peeling announce-exchange, one simulator
  // pass per emulated super-round.
  const Throughput peel_a = best_of(reps, [&] {
    const PartForest pf = PartForest::singletons(g.num_nodes());
    PeelAnnounce announce(g, pf);
    Throughput t;
    bench::Timer timer;
    for (int i = 0; i < 32; ++i) {
      const congest::PassResult r = sim.run(announce);
      t.messages += r.messages;
      t.rounds += r.rounds;
    }
    t.seconds = timer.seconds();
    return t;
  });
  report(out, "stage1_pass_a", peel_a);

  // Repeated BFS waves from node 0.
  const Throughput bfs = best_of(reps, [&] {
    const std::vector<NodeId> part_root(g.num_nodes(), 0);
    Throughput t;
    bench::Timer timer;
    for (int i = 0; i < 5; ++i) {
      congest::BfsForest bfs_pass(part_root);
      const congest::PassResult r = sim.run(bfs_pass);
      t.messages += r.messages;
      t.rounds += r.rounds;
    }
    t.seconds = timer.seconds();
    return t;
  });
  report(out, "bfs", bfs);

  // Saturated delivery: one message per directed edge per round.
  const Throughput saturate = best_of(reps, [&] {
    Saturate sat(64);
    bench::Timer timer;
    const congest::PassResult r = sim.run(sat);
    return Throughput{r.messages, r.rounds, timer.seconds()};
  });
  report(out, "saturate", saturate);

  out.meta("peak_rss_bytes",
           static_cast<std::int64_t>(bench::peak_rss_bytes()));
  if (!out.write(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (peak rss %.1f MiB)\n", out_path.c_str(),
              static_cast<double>(bench::peak_rss_bytes()) / (1024 * 1024));
  return 0;
}
