// Command-line front end: run the paper's algorithms on an edge-list file.
//
//   cpt_cli test <file> [eps] [seed]      planarity tester (Theorem 1)
//   cpt_cli partition <file> [eps]        Stage I partition (Theorem 3)
//   cpt_cli spanner <file> [eps]          spanner construction (Corollary 17)
//   cpt_cli witness <file>                Kuratowski witness (exact, centralized)
//
// eps must be a number in (0, 1) (default 0.25) and seed a decimal
// unsigned 64-bit integer (default 1); anything else exits 2, and so does
// an edge-list file that cannot be opened or parsed. Generator graphs come
// from `cpt_batch gen <family> key=value...`.
// Edge-list format: "n m" header, then one "u v" pair per line; '#' comments.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/spanner.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/tester.h"
#include "graph/io.h"
#include "partition/partition.h"
#include "planar/kuratowski.h"

using namespace cpt;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cpt_cli test <file> [eps] [seed]\n"
               "  cpt_cli partition <file> [eps]\n"
               "  cpt_cli spanner <file> [eps]\n"
               "  cpt_cli witness <file>\n");
  return 2;
}

// Strict EPS: the whole argument must be a number, and every tester needs
// 0 < eps < 1.
bool parse_eps(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0 && v < 1)) return false;
  *out = v;
  return true;
}

// Strict seed: decimal digits only, the whole argument, no overflow.
bool parse_seed(const char* text, std::uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

// Reads the edge list at `path`; on failure prints "error: <path>:
// <reason>" and returns false.
bool load_graph(const std::string& path, Graph* g) {
  std::ifstream in(path);
  std::string error = "cannot open file";
  if (in.good() && try_read_edge_list(in, g, &error)) return true;
  std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
  return false;
}

int cmd_test(const Graph& g, double eps, std::uint64_t seed) {
  TesterOptions opt;
  opt.epsilon = eps;
  opt.seed = seed;
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

int cmd_partition(const Graph& g, double eps) {
  congest::Network net(g);
  congest::Simulator sim(net);
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

int cmd_spanner(const Graph& g, double eps) {
  MinorFreeOptions opt;
  opt.epsilon = eps;
  opt.adaptive_phases = true;
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

int cmd_witness(const Graph& g) {
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const bool takes_eps = cmd == "test" || cmd == "partition" || cmd == "spanner";
  if (!takes_eps && cmd != "witness") return usage();
  double eps = 0.25;
  if (takes_eps && argc >= 4 && !parse_eps(argv[3], &eps)) {
    std::fprintf(stderr, "error: eps must be a number in (0, 1), got \"%s\"\n",
                 argv[3]);
    return usage();
  }
  std::uint64_t seed = 1;
  if (cmd == "test" && argc >= 5 && !parse_seed(argv[4], &seed)) {
    std::fprintf(stderr,
                 "error: seed must be an unsigned 64-bit integer, got \"%s\"\n",
                 argv[4]);
    return usage();
  }
  Graph g;
  if (!load_graph(argv[2], &g)) return 2;
  if (cmd == "test") return cmd_test(g, eps, seed);
  if (cmd == "partition") return cmd_partition(g, eps);
  if (cmd == "spanner") return cmd_spanner(g, eps);
  return cmd_witness(g);
}
