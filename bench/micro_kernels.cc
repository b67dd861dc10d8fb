// Google-benchmark microbenchmarks of the computational kernels: LR
// planarity test, LR embedding extraction, the simulator's BFS and
// saturated-delivery passes (serial, and multi-worker through the K-way
// merge), bitset drain, and the violation sweep. Besides the normal google-benchmark output,
// results are mirrored into BENCH_micro_kernels.json (shared bench_json
// schema, see bench/README.md) so the kernel trajectory is tracked
// alongside BENCH_congest_sim.json and BENCH_thread_scaling.json.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_json.h"
#include "congest/network.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "core/violation.h"
#include "graph/generators.h"
#include "planar/lr_planarity.h"
#include "util/indexed_bitset.h"

namespace cpt {
namespace {

void BM_LrPlanarityPlanar(benchmark::State& state) {
  Rng rng(1);
  const Graph g = gen::apollonian(static_cast<NodeId>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_planar(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_LrPlanarityPlanar)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_LrPlanarityRejects(benchmark::State& state) {
  Rng rng(2);
  const Graph g = gen::planar_plus_random_edges(
      gen::apollonian(static_cast<NodeId>(state.range(0)), rng), 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_planar(g));
  }
}
BENCHMARK(BM_LrPlanarityRejects)->Arg(1 << 10)->Arg(1 << 13);

void BM_LrEmbedding(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::apollonian(static_cast<NodeId>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lr_planar_embedding(g));
  }
}
BENCHMARK(BM_LrEmbedding)->Arg(1 << 10)->Arg(1 << 13);

void BM_SimulatorBfsPass(benchmark::State& state) {
  const auto side = static_cast<NodeId>(state.range(0));
  const Graph g = gen::triangulated_grid(side, side);
  congest::Network net(g);
  congest::Simulator sim(net);
  std::vector<NodeId> part_root(g.num_nodes(), 0);
  for (auto _ : state) {
    congest::BfsForest bfs(part_root);
    benchmark::DoNotOptimize(sim.run(bfs));
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_SimulatorBfsPass)->Arg(32)->Arg(64)->Arg(128);

// Full CONGEST load: every node echoes on every port each round. Exercises
// only the delivery engine (send + bucketed scatter + inbox assembly).
void BM_SimulatorSaturatedDelivery(benchmark::State& state) {
  const auto side = static_cast<NodeId>(state.range(0));
  const Graph g = gen::triangulated_grid(side, side);
  congest::Network net(g);
  congest::Simulator sim(net);

  class Saturate : public congest::Program {
   public:
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
      if (ex.current_round() >= 8) return;
      for (const congest::Inbound& in : inbox) ex.send(v, in.port, in.msg);
    }
  };

  std::uint64_t messages = 0;
  for (auto _ : state) {
    Saturate sat;
    const congest::PassResult r = sim.run(sat);
    messages += r.messages;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_SimulatorSaturatedDelivery)->Arg(64)->Arg(128)->Arg(256);

// Multi-worker delivery (the K-way next_at_least cursor merge over every
// worker's flight) on the same saturated load. parallel_grain=1 keeps
// every round on the sharded path. Counts are identical to the serial run
// (pinned by simulator_test); only wall time may differ.
void BM_SimulatorDeliveryMerge(benchmark::State& state) {
  const auto side = static_cast<NodeId>(state.range(0));
  const Graph g = gen::triangulated_grid(side, side);
  congest::Network net(g);
  congest::SimOptions sopt;
  sopt.num_threads = static_cast<unsigned>(state.range(1));
  sopt.parallel_grain = 1;
  congest::Simulator sim(net, sopt);

  class Saturate : public congest::Program {
   public:
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
      if (ex.current_round() >= 8) return;
      for (const congest::Inbound& in : inbox) ex.send(v, in.port, in.msg);
    }
  };

  std::uint64_t messages = 0;
  for (auto _ : state) {
    Saturate sat;
    const congest::PassResult r = sim.run(sat);
    messages += r.messages;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_SimulatorDeliveryMerge)
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 4});

// The ordered-bitset min-extraction underlying sort-free delivery.
void BM_IndexedBitsetDrain(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  IndexedBitset set(1 << 22);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto _ : state) {
    for (std::size_t i = 0; i < k; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      set.insert(x & ((1 << 22) - 1));
    }
    std::size_t sum = 0;
    while (!set.empty()) sum += set.pop_front();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_IndexedBitsetDrain)->Arg(1 << 10)->Arg(1 << 16);

void BM_ViolationSweep(benchmark::State& state) {
  Rng rng(4);
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<LabelPair> edges;
  edges.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Label a(1 + rng.next_below(5));
    Label b(1 + rng.next_below(5));
    for (auto& x : a) x = static_cast<std::uint32_t>(rng.next_below(64));
    for (auto& x : b) x = static_cast<std::uint32_t>(rng.next_below(64));
    if (a == b) b.push_back(1);
    edges.push_back(LabelPair::normalized(std::move(a), std::move(b)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_violating(edges));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_ViolationSweep)->Arg(1 << 10)->Arg(1 << 14);

// Mirrors every benchmark result into the BENCH_*.json trajectory file
// while still printing the normal console report.
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTrajectoryReporter(bench::BenchJson* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_->metric(run.benchmark_name() + "/real_time",
                   run.GetAdjustedRealTime(), "ns");
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        out_->metric(run.benchmark_name() + "/items_per_second",
                     items->second.value, "1/s");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchJson* out_;
};

}  // namespace
}  // namespace cpt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cpt::bench::BenchJson out("micro_kernels");
  cpt::bench::add_provenance(out);
  cpt::JsonTrajectoryReporter reporter(&out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  out.meta("peak_rss_bytes",
           static_cast<std::int64_t>(cpt::bench::peak_rss_bytes()));
  if (!out.write("BENCH_micro_kernels.json")) {
    std::fprintf(stderr, "failed to write BENCH_micro_kernels.json\n");
    return 1;
  }
  return 0;
}
