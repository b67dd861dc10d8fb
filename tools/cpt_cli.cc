// Command-line front end: run the paper's algorithms on an edge-list file.
//
//   cpt_cli test <file> [eps] [seed]      planarity tester (Theorem 1)
//   cpt_cli partition <file> [eps]        Stage I partition (Theorem 3)
//   cpt_cli spanner <file> [eps]          spanner construction (Corollary 17)
//
//   --threads=N (anywhere): simulator workers for round execution.
//   Results are bit-identical at every N; N only changes host wall time.
//   cpt_cli witness <file>                Kuratowski witness (exact, centralized)
//   cpt_cli gen <family> <args...>        write a generator graph to stdout
//
// eps must be a number in (0, 1) (default 0.25); anything else exits 2.
// Edge-list format: "n m" header, then one "u v" pair per line; '#' comments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "apps/spanner.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/tester.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "partition/partition.h"
#include "planar/kuratowski.h"

using namespace cpt;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cpt_cli [--threads=N] test <file> [eps] [seed]\n"
               "  cpt_cli [--threads=N] partition <file> [eps]\n"
               "  cpt_cli [--threads=N] spanner <file> [eps]\n"
               "  cpt_cli witness <file>\n"
               "  cpt_cli gen grid <rows> <cols>\n"
               "  cpt_cli gen trigrid <rows> <cols>\n"
               "  cpt_cli gen apollonian <n> <seed>\n"
               "  cpt_cli gen gnp <n> <avg_degree> <seed>\n");
  return 2;
}

unsigned g_threads = 0;  // 0 = env default (CPT_TEST_THREADS) or 1

// Strict EPS: the whole argument must be a number, and every tester needs
// 0 < eps < 1.
bool parse_eps(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0 && v < 1)) return false;
  *out = v;
  return true;
}

int cmd_test(const std::string& path, double eps, std::uint64_t seed) {
  const Graph g = load_edge_list_file(path);
  TesterOptions opt;
  opt.epsilon = eps;
  opt.seed = seed;
  opt.num_threads = g_threads;
  const TesterResult r = test_planarity(g, opt);
  std::printf("n=%u m=%u eps=%.3f\n", g.num_nodes(), g.num_edges(), eps);
  std::printf("verdict: %s\n", r.verdict == Verdict::kAccept ? "ACCEPT"
                               : r.verdict == Verdict::kReject ? "REJECT"
                                                               : "FAIL");
  if (!r.reason.empty()) std::printf("reason:  %s\n", r.reason.c_str());
  std::printf("rounds:  %llu  (stage I phases: %u emulated / %u scheduled)\n",
              static_cast<unsigned long long>(r.rounds()),
              r.stage1_phases_emulated, r.stage1_phases_total);
  std::printf("parts:   %u, cut %llu, max part ecc %u\n", r.partition.num_parts,
              static_cast<unsigned long long>(r.partition.cut_edges),
              r.partition.max_part_ecc);
  return r.verdict == Verdict::kAccept ? 0 : 1;
}

int cmd_partition(const std::string& path, double eps) {
  const Graph g = load_edge_list_file(path);
  congest::Network net(g);
  congest::SimOptions sim_opt;
  sim_opt.num_threads = g_threads;
  congest::Simulator sim(net, sim_opt);
  congest::RoundLedger ledger;
  Stage1Options opt;
  opt.epsilon = eps;
  const Stage1Result r = run_stage1(sim, g, opt, ledger);
  if (r.rejected) {
    std::printf("REJECT: arboricity evidence at %zu node(s)\n",
                r.rejecting_nodes.size());
    return 1;
  }
  const PartitionStats stats = measure_partition(g, r.forest);
  std::printf("parts=%u cut=%llu max_ecc=%u rounds=%llu\n", stats.num_parts,
              static_cast<unsigned long long>(stats.cut_edges),
              stats.max_part_ecc,
              static_cast<unsigned long long>(ledger.total_rounds()));
  // One "node part" line per node for scripting.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::printf("%u %u\n", v, r.forest.root[v]);
  }
  return 0;
}

int cmd_spanner(const std::string& path, double eps) {
  const Graph g = load_edge_list_file(path);
  MinorFreeOptions opt;
  opt.epsilon = eps;
  opt.adaptive_phases = true;
  opt.num_threads = g_threads;
  const SpannerResult s = build_spanner(g, opt);
  std::printf("# spanner: %zu edges (%.3f x n), rounds=%llu\n", s.edges.size(),
              s.size_ratio(g),
              static_cast<unsigned long long>(s.ledger.total_rounds()));
  for (const EdgeId e : s.edges) {
    const Endpoints ep = g.endpoints(e);
    std::printf("%u %u\n", ep.u, ep.v);
  }
  return 0;
}

int cmd_witness(const std::string& path) {
  const Graph g = load_edge_list_file(path);
  const auto w = find_kuratowski_subdivision(g);
  if (!w.has_value()) {
    std::printf("planar: no Kuratowski witness\n");
    return 0;
  }
  std::printf("non-planar: %s subdivision on %zu edges; branch nodes:",
              w->kind == KuratowskiWitness::Kind::kK5 ? "K5" : "K3,3",
              w->edges.size());
  for (const NodeId v : w->branch_nodes) std::printf(" %u", v);
  std::printf("\n");
  for (const EdgeId e : w->edges) {
    const Endpoints ep = g.endpoints(e);
    std::printf("%u %u\n", ep.u, ep.v);
  }
  return 1;
}

int cmd_gen(int argc, char** argv) {
  const std::string family = argv[2];
  Graph g;
  if (family == "grid" && argc >= 5) {
    g = gen::grid(static_cast<NodeId>(std::atoi(argv[3])),
                  static_cast<NodeId>(std::atoi(argv[4])));
  } else if (family == "trigrid" && argc >= 5) {
    g = gen::triangulated_grid(static_cast<NodeId>(std::atoi(argv[3])),
                               static_cast<NodeId>(std::atoi(argv[4])));
  } else if (family == "apollonian" && argc >= 5) {
    Rng rng(static_cast<std::uint64_t>(std::atoll(argv[4])));
    g = gen::apollonian(static_cast<NodeId>(std::atoi(argv[3])), rng);
  } else if (family == "gnp" && argc >= 6) {
    Rng rng(static_cast<std::uint64_t>(std::atoll(argv[5])));
    const NodeId n = static_cast<NodeId>(std::atoi(argv[3]));
    g = gen::gnp(n, std::atof(argv[4]) / n, rng);
  } else {
    return usage();
  }
  write_edge_list(g, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --threads=N wherever it appears.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const bool takes_eps = cmd == "test" || cmd == "partition" || cmd == "spanner";
  double eps = 0.25;
  if (takes_eps && argc >= 4 && !parse_eps(argv[3], &eps)) {
    std::fprintf(stderr, "error: eps must be a number in (0, 1), got \"%s\"\n",
                 argv[3]);
    return usage();
  }
  const std::uint64_t seed =
      argc >= 5 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;
  if (cmd == "test") return cmd_test(argv[2], eps, seed);
  if (cmd == "partition") return cmd_partition(argv[2], eps);
  if (cmd == "spanner") return cmd_spanner(argv[2], eps);
  if (cmd == "witness") return cmd_witness(argv[2]);
  if (cmd == "gen") return cmd_gen(argc, argv);
  return usage();
}
