// E10 -- Section 1.1 remark + ablations: our Stage I partition
// (O(log n poly(1/eps)) rounds, deterministic guarantee) vs. the
// Elkin-Neiman-style random-shift partition (O(log^2 n poly(1/eps)) total
// when used for testing, whp guarantee only). Also ablates the
// forest-decomposition verification step: with the Theorem-4 selection (no
// peeling) the per-phase contraction guarantee weakens from 1 - 1/(12a) to
// 1 - 1/(64a) (Claim 1 vs Claim 14), visible in the phases needed.
#include "bench/bench_common.h"
#include "baseline/en_partition.h"
#include "baseline/en_tester.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/tester.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "partition/random_partition.h"

using namespace cpt;

int main() {
  bench::header("E10: baseline & ablations",
                "Section 1.1: EN-based tester needs O(log^2 n); ours "
                "O(log n). Claim 1 vs Claim 14 contraction.");
  const double eps = 0.25;

  std::printf("-- (a) partition comparison (planar inputs)\n");
  std::printf("%-10s %-12s %-12s %-10s %-10s %-10s\n", "n", "algo", "rounds",
              "cut", "parts", "max-ecc");
  for (std::uint32_t side = 24; side <= 72; side += 24) {
    const Graph g = gen::triangulated_grid(side, side);
    {
      congest::Network net(g);
      congest::Simulator sim(net);
      congest::RoundLedger ledger;
      Stage1Options opt;
      opt.epsilon = eps;
      opt.adaptive = true;  // comparable practical schedules
      const Stage1Result r = run_stage1(sim, g, opt, ledger);
      const PartitionStats s = measure_partition(g, r.forest);
      std::printf("%-10u %-12s %-12llu %-10llu %-10u %-10u\n", g.num_nodes(),
                  "stage1", static_cast<unsigned long long>(ledger.total_rounds()),
                  static_cast<unsigned long long>(s.cut_edges), s.num_parts,
                  s.max_part_ecc);
    }
    {
      congest::Network net(g);
      congest::Simulator sim(net);
      congest::RoundLedger ledger;
      EnPartitionOptions opt;
      opt.epsilon = eps;
      opt.seed = 3;
      const EnPartitionResult r = run_en_partition(sim, g, opt, ledger);
      const PartitionStats s = measure_partition(g, r.forest);
      std::printf("%-10u %-12s %-12llu %-10llu %-10u %-10u\n", g.num_nodes(),
                  "elkin-neiman",
                  static_cast<unsigned long long>(ledger.total_rounds()),
                  static_cast<unsigned long long>(s.cut_edges), s.num_parts,
                  s.max_part_ecc);
    }
  }

  std::printf("\n-- (b) end-to-end tester comparison (detection on K5 blobs)\n");
  Rng rng(23);
  const Graph far_graph = gen::planar_with_k5_blobs(600, 80, rng);
  int ours = 0;
  int en = 0;
  std::uint64_t ours_rounds = 0;
  std::uint64_t en_rounds = 0;
  constexpr int kSeeds = 6;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    TesterOptions opt;
    opt.epsilon = 0.2;
    opt.seed = seed;
    const TesterResult a = test_planarity(far_graph, opt);
    ours += a.verdict == Verdict::kReject;
    ours_rounds += a.rounds();
    EnTesterOptions eopt;
    eopt.epsilon = 0.2;
    eopt.seed = seed;
    const TesterResult b = test_planarity_en(far_graph, eopt);
    en += b.verdict == Verdict::kReject;
    en_rounds += b.rounds();
  }
  std::printf("ours:          detected %d/%d, avg rounds %llu\n", ours, kSeeds,
              static_cast<unsigned long long>(ours_rounds / kSeeds));
  std::printf("elkin-neiman:  detected %d/%d, avg rounds %llu\n", en, kSeeds,
              static_cast<unsigned long long>(en_rounds / kSeeds));

  std::printf("\n-- (c) ablation: peeling+heaviest edge (Claim 1) vs random "
              "selection (Claim 14)\n");
  std::printf("%-12s %-16s %-16s\n", "input", "phases-to-cut0(det)",
              "phases-to-cut0(rand)");
  for (const char* name : {"trigrid", "apollonian"}) {
    Rng grng(29);
    const Graph g = std::string(name) == "trigrid"
                        ? gen::triangulated_grid(32, 32)
                        : gen::apollonian(1024, grng);
    std::uint32_t det_phases = 0;
    {
      congest::Network net(g);
      congest::Simulator sim(net);
      congest::RoundLedger ledger;
      Stage1Options opt;
      opt.epsilon = eps;
      det_phases = run_stage1(sim, g, opt, ledger).phases_emulated;
    }
    std::uint32_t rand_phases = 0;
    {
      congest::Network net(g);
      congest::Simulator sim(net);
      congest::RoundLedger ledger;
      RandomPartitionOptions opt;
      opt.epsilon = eps;
      opt.delta = 0.1;
      opt.seed = 7;
      rand_phases = run_random_partition(sim, g, opt, ledger).phases_emulated;
    }
    std::printf("%-12s %-16u %-16u\n", name, det_phases, rand_phases);
  }
  std::printf(
      "\nHonest reading: (a/b) at laptop sizes the EN partition is CHEAPER\n"
      "in measured rounds -- its O(log n / eps) radius is tiny while our\n"
      "Stage I pays the strict Theta(log 1/eps)-phase schedule with its\n"
      "proof constants. The paper's O(log n) vs O(log^2 n) separation is\n"
      "asymptotic; what the experiment does show is the GUARANTEE gap: the\n"
      "Stage I cut bound is deterministic, EN's only holds whp (and its\n"
      "measured cut fluctuates). (c) the Claim-1 selection contracts at\n"
      "least as fast per phase as the Claim-14 selection on most inputs.\n");
  return 0;
}
