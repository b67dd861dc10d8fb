#include "scenario/registry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/contracts.h"

namespace cpt::scenario {

std::string ParamValue::to_string() const {
  char buf[40];
  switch (kind) {
    case Kind::kInt:
      std::snprintf(buf, sizeof buf, "%" PRId64, i);
      return buf;
    case Kind::kDouble:
      std::snprintf(buf, sizeof buf, "%.17g", d);
      return buf;
    case Kind::kString:
      return s;
  }
  return {};
}

void ScenarioParams::set(std::string key, ParamValue v) {
  for (auto& [k, old] : kv_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  kv_.emplace_back(std::move(key), std::move(v));
}

const ParamValue* ScenarioParams::find(std::string_view key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

[[noreturn]] void bad_type(std::string_view key, const char* expected,
                           const ParamValue& got) {
  throw std::invalid_argument("param \"" + std::string(key) + "\": expected " +
                              expected + ", got \"" + got.to_string() + "\"");
}

}  // namespace

std::int64_t ScenarioParams::get_int(std::string_view key,
                                     std::int64_t def) const {
  const ParamValue* p = find(key);
  if (p == nullptr) return def;
  if (p->kind != ParamValue::Kind::kInt) bad_type(key, "an integer", *p);
  return p->i;
}

double ScenarioParams::get_double(std::string_view key, double def) const {
  const ParamValue* p = find(key);
  if (p == nullptr) return def;
  if (p->kind == ParamValue::Kind::kString) bad_type(key, "a number", *p);
  return p->kind == ParamValue::Kind::kInt ? static_cast<double>(p->i) : p->d;
}

std::string ScenarioParams::get_string(std::string_view key,
                                       std::string def) const {
  const ParamValue* p = find(key);
  if (p == nullptr) return def;
  if (p->kind != ParamValue::Kind::kString) bad_type(key, "a string", *p);
  return p->s;
}

std::string ScenarioParams::signature() const {
  std::vector<std::pair<std::string, std::string>> rendered;
  rendered.reserve(kv_.size());
  for (const auto& [k, v] : kv_) rendered.emplace_back(k, v.to_string());
  std::sort(rendered.begin(), rendered.end());
  std::string out;
  for (const auto& [k, v] : rendered) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::string ScenarioInstance::label() const {
  std::string out = family + "(" + params.signature() + ")";
  if (!perturb.empty()) {
    out += "+" + perturb + "(" + perturb_params.signature() + ")";
  }
  return out;
}

std::string ScenarioInstance::label_with_seed() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "@%" PRIu64, seed);
  return label() + buf;
}

std::uint64_t ScenarioInstance::hash() const {
  std::uint64_t state = fnv1a64(label());
  state ^= seed;
  return splitmix64(state);
}

std::uint64_t derive_instance_seed(std::string_view scenario,
                                   const ScenarioParams& params,
                                   std::uint64_t base_seed,
                                   std::uint64_t index) {
  // Each stage feeds splitmix64's *mixed output* (not its +gamma state)
  // into the next injection, so no two inputs can cancel by XOR algebra.
  std::uint64_t s = 0x53434e5f43505431ULL;  // "SCN_CPT1": domain separator
  s ^= fnv1a64(scenario);
  s = splitmix64(s);
  s ^= fnv1a64(params.signature());
  s = splitmix64(s);
  s ^= base_seed;
  s = splitmix64(s);
  s ^= index;
  return splitmix64(s);
}

namespace {

// Out-of-domain params throw instead of reaching a generator contract:
// materialization turns the throw into a failed job. Each check mirrors
// the preconditions of the generator it guards.
void require(bool ok, std::string_view owner, const std::string& what) {
  if (!ok) throw std::invalid_argument(std::string(owner) + ": " + what);
}

// Largest node or edge count: NodeId and EdgeId are u32, kNoNode reserved.
constexpr std::uint64_t kMaxCount = kNoNode - 1;

// A count param (nodes, edges, degree, blobs, copies) in [min, kMaxCount].
std::uint32_t p_count(const ScenarioParams& p, std::string_view key,
                      std::int64_t def, std::int64_t min = 0) {
  const std::int64_t v = p.get_int(key, def);
  require(v >= min && v <= static_cast<std::int64_t>(kMaxCount),
          "param \"" + std::string(key) + "\"",
          "expected an integer in [" + std::to_string(min) + ", " +
              std::to_string(kMaxCount) + "], got " + std::to_string(v));
  return static_cast<std::uint32_t>(v);
}

// A derived node or edge count (a + b, n * copies, ...).
void require_count(std::string_view owner, const char* what,
                   std::uint64_t v) {
  require(v <= kMaxCount, owner,
          std::string(what) + " must be at most " + std::to_string(kMaxCount));
}

// rows x cols of a lattice family, checked alike on the built and the
// streamed path; n * edges_per_node bounds m.
struct LatticeDims {
  NodeId rows, cols;
};

LatticeDims lattice_dims(const ScenarioParams& p, std::string_view family,
                         NodeId min_side, std::uint64_t edges_per_node) {
  const LatticeDims d{p_count(p, "rows", 16, min_side),
                      p_count(p, "cols", 16, min_side)};
  require(std::uint64_t{d.rows} * d.cols <= kMaxCount / edges_per_node,
          family, "rows * cols is too large");
  return d;
}

// planar_plus_random_edges' precondition, for the built and the streamed
// path: the extras fit among the node pairs the base graph leaves free.
void check_extra_edges(std::uint64_t n, std::uint64_t m, std::uint64_t extra) {
  require(m + extra <= n * (n - 1) / 2, "plus_random_edges",
          "extra exceeds the node pairs the base graph leaves free");
}

// ---- Family generators ----------------------------------------------------

Graph f_path(const ScenarioParams& p, Rng&) { return gen::path(p_count(p, "n", 64)); }
Graph f_cycle(const ScenarioParams& p, Rng&) { return gen::cycle(p_count(p, "n", 64, 3)); }
Graph f_star(const ScenarioParams& p, Rng&) { return gen::star(p_count(p, "n", 64, 1)); }
Graph f_complete(const ScenarioParams& p, Rng&) {
  const std::uint64_t k = p_count(p, "k", 5);
  require_count("complete", "k * (k - 1) / 2", k * (k - 1) / 2);
  return gen::complete(static_cast<NodeId>(k));
}
Graph f_complete_bipartite(const ScenarioParams& p, Rng&) {
  const std::uint64_t a = p_count(p, "a", 3), b = p_count(p, "b", 3);
  require_count("complete_bipartite", "a + b", a + b);
  require_count("complete_bipartite", "a * b", a * b);
  return gen::complete_bipartite(static_cast<NodeId>(a), static_cast<NodeId>(b));
}
Graph f_grid(const ScenarioParams& p, Rng&) {
  const LatticeDims d = lattice_dims(p, "grid", 1, 2);
  return gen::grid(d.rows, d.cols);
}
Graph f_trigrid(const ScenarioParams& p, Rng&) {
  const LatticeDims d = lattice_dims(p, "triangulated_grid", 1, 3);
  return gen::triangulated_grid(d.rows, d.cols);
}
Graph f_hypercube(const ScenarioParams& p, Rng&) {
  const std::int64_t dim = p.get_int("dim", 4);
  require(dim >= 0 && dim <= 24, "hypercube", "dim must be in [0, 24]");
  return gen::hypercube(static_cast<std::uint32_t>(dim));
}
Graph f_binary_tree(const ScenarioParams& p, Rng&) {
  return gen::binary_tree(p_count(p, "n", 127));
}
Graph f_random_tree(const ScenarioParams& p, Rng& rng) {
  return gen::random_tree(p_count(p, "n", 256), rng);
}
Graph f_outerplanar(const ScenarioParams& p, Rng& rng) {
  const NodeId n = p_count(p, "n", 128, 3);
  const NodeId chords = p_count(p, "chords", (std::int64_t{n} - 3) / 2);
  require(chords <= n - 3, "outerplanar", "chords must be <= n - 3");
  return gen::outerplanar(n, chords, rng);
}
Graph f_apollonian(const ScenarioParams& p, Rng& rng) {
  return gen::apollonian(p_count(p, "n", 256, 3), rng);
}
Graph f_random_planar(const ScenarioParams& p, Rng& rng) {
  const NodeId n = p_count(p, "n", 256, 3);
  const EdgeId m = p_count(p, "m", 2 * std::int64_t{n});
  require(m + 1 >= n && m <= 3 * std::uint64_t{n} - 6, "random_planar",
          "m must be in [n - 1, 3n - 6]");
  return gen::random_planar(n, m, rng);
}
Graph f_gnp(const ScenarioParams& p, Rng& rng) {
  const NodeId n = p_count(p, "n", 256, 1);
  const double prob = p.has("p") ? p.get_double("p", 0.0)
                                 : p.get_double("avg_degree", 8.0) / n;
  require(prob >= 0.0 && prob <= 1.0, "gnp",
          p.has("p") ? "p must be in [0, 1]" : "avg_degree must be in [0, n]");
  return gen::gnp(n, prob, rng);
}
Graph f_gnm(const ScenarioParams& p, Rng& rng) {
  const std::uint64_t n = p_count(p, "n", 256);
  const EdgeId m = p_count(p, "m", 4 * static_cast<std::int64_t>(n));
  require(m <= n * (n - 1) / 2, "gnm", "m must be <= n * (n - 1) / 2");
  return gen::gnm(static_cast<NodeId>(n), m, rng);
}
Graph f_random_regular(const ScenarioParams& p, Rng& rng) {
  // Default degree 4: the configuration model resamples whole matchings,
  // whose simple-graph acceptance rate decays like exp(-(d^2-1)/4) -- d >= 6
  // virtually never survives the generator's 200 attempts.
  const NodeId n = p_count(p, "n", 256);
  const std::uint32_t d = p_count(p, "d", 4);
  require(d < n && std::uint64_t{n} * d % 2 == 0, "random_regular",
          "d must be < n, with n * d even");
  return gen::random_regular(n, d, rng);
}
Graph f_wheel(const ScenarioParams& p, Rng&) { return gen::wheel(p_count(p, "n", 64, 4)); }
Graph f_caterpillar(const ScenarioParams& p, Rng& rng) {
  const NodeId spine = p_count(p, "spine", 64, 1), legs = p_count(p, "legs", 128);
  require_count("caterpillar", "spine + legs", std::uint64_t{spine} + legs);
  return gen::caterpillar(spine, legs, rng);
}
Graph f_toroidal_grid(const ScenarioParams& p, Rng&) {
  const LatticeDims d = lattice_dims(p, "toroidal_grid", 3, 2);
  return gen::toroidal_grid(d.rows, d.cols);
}
Graph f_k5_blobs(const ScenarioParams& p, Rng& rng) {
  const NodeId backbone_n = p_count(p, "backbone_n", 200, 3);
  const NodeId blobs = p_count(p, "blobs", 20);
  // Each blob adds 5 nodes and 11 edges; the backbone has <= 2n edges.
  require_count("k5_blobs", "2 * backbone_n + 11 * blobs",
                2 * std::uint64_t{backbone_n} + 11 * std::uint64_t{blobs});
  return gen::planar_with_k5_blobs(backbone_n, blobs, rng);
}
// Environmental failures (missing/unreadable files) throw instead of
// tripping a contract: the batch engine catches them per job, so one bad
// path fails its jobs -- reported, nonzero exit -- without killing a sweep.
Graph f_file(const ScenarioParams& p, Rng&) {
  const std::string path = p.get_string("path", "");
  if (path.empty()) {
    throw std::runtime_error("file scenario requires path=");
  }
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("file scenario: cannot open " + path);
  }
  Graph g;
  std::string error;
  if (!try_read_edge_list(in, &g, &error)) {
    throw std::runtime_error("file scenario: " + path + ": " + error);
  }
  return g;
}

// ---- Perturbations --------------------------------------------------------

Graph x_plus_random_edges(const Graph& base, const ScenarioParams& p,
                          Rng& rng) {
  const EdgeId extra = p_count(p, "extra", 0);
  check_extra_edges(base.num_nodes(), base.num_edges(), extra);
  return gen::planar_plus_random_edges(base, extra, rng);
}

// Attaches `count` disjoint copies of `blob` to uniformly random base
// nodes, one bridge edge each (blob node 0 -> the chosen anchor). Each blob
// needs >= 1 edge removed to restore the base family's property, so the
// result is at least (count / m)-far from it -- the same argument as
// gen::planar_with_k5_blobs, over an arbitrary base.
Graph inject_blobs(const char* perturb, const Graph& base, const Graph& blob,
                   const ScenarioParams& p, Rng& rng) {
  const std::uint64_t count = p_count(p, "count", 8);
  require(base.num_nodes() > 0, perturb, "the base graph has no nodes");
  require_count(perturb, "nodes after injection",
                base.num_nodes() + count * blob.num_nodes());
  require_count(perturb, "edges after injection",
                base.num_edges() + count * (blob.num_edges() + 1));
  GraphBuilder b(base.num_nodes());
  for (const Endpoints e : base.edges()) b.add_edge(e.u, e.v);
  for (NodeId t = 0; t < count; ++t) {
    const NodeId anchor =
        static_cast<NodeId>(rng.next_below(base.num_nodes()));
    const NodeId off = b.num_nodes();
    for (NodeId v = 0; v < blob.num_nodes(); ++v) b.add_node();
    for (const Endpoints e : blob.edges()) b.add_edge(off + e.u, off + e.v);
    b.add_edge(off, anchor);
  }
  return std::move(b).build();
}

Graph x_k5_blobs(const Graph& base, const ScenarioParams& p, Rng& rng) {
  return inject_blobs("k5_blobs", base, gen::complete(5), p, rng);
}
Graph x_k33_blobs(const Graph& base, const ScenarioParams& p, Rng& rng) {
  return inject_blobs("k33_blobs", base, gen::complete_bipartite(3, 3), p,
                      rng);
}
Graph x_disjoint_copies(const Graph& base, const ScenarioParams& p, Rng&) {
  const std::uint64_t copies = p_count(p, "copies", 2);
  require_count("disjoint_copies", "n * copies", base.num_nodes() * copies);
  require_count("disjoint_copies", "m * copies", base.num_edges() * copies);
  return gen::disjoint_copies(base, static_cast<NodeId>(copies));
}

// ---- Presets (examples' graph setups; see examples/*.cc) ------------------

// Presets run at manifest expansion, so they copy user values through
// unchecked: a mistyped or out-of-range value fails when the instance is
// built, in the family's or perturbation's reader, like any other param.
ParamValue preset_value(const ScenarioParams& user, std::string_view key,
                        std::int64_t def) {
  const ParamValue* v = user.find(key);
  return v != nullptr ? *v : ParamValue::of_int(def);
}

// `extra` random edges, unless the knob is an integer <= 0 (none).
void preset_extra_edges(const ScenarioParams& user, std::string_view key,
                        std::int64_t def, ScenarioInstance* inst) {
  ParamValue extra = preset_value(user, key, def);
  if (extra.kind == ParamValue::Kind::kInt && extra.i <= 0) return;
  inst->perturb = "plus_random_edges";
  inst->perturb_params.set("extra", std::move(extra));
}

// road_network: a planar street grid with `flyovers` long-range crossings
// (examples/road_network.cc).
ScenarioInstance preset_road_network(const ScenarioParams& user) {
  ScenarioInstance inst;
  inst.family = "grid";
  inst.params.set("rows", preset_value(user, "rows", 40));
  inst.params.set("cols", preset_value(user, "cols", 40));
  preset_extra_edges(user, "flyovers", 200, &inst);
  return inst;
}

// overlay_backbone: a random planar P2P backbone with `overlay` extra links
// (examples/overlay_sweep.cc).
ScenarioInstance preset_overlay_backbone(const ScenarioParams& user) {
  ScenarioInstance inst;
  inst.family = "random_planar";
  inst.params.set("n", preset_value(user, "n", 1500));
  inst.params.set("m", preset_value(user, "m", 3200));
  preset_extra_edges(user, "overlay", 300, &inst);
  return inst;
}

}  // namespace

const std::vector<FamilyInfo>& scenario_families() {
  static const std::vector<FamilyInfo> kFamilies = {
      {"path", "n=64", "n", false, true, f_path},
      {"cycle", "n=64", "n", false, true, f_cycle},
      {"star", "n=64", "n", false, true, f_star},
      {"complete", "k=5", "k", false, false, f_complete},
      {"complete_bipartite", "a=3,b=3", "a,b", false, false,
       f_complete_bipartite},
      {"grid", "rows=16,cols=16", "rows,cols", false, true, f_grid},
      {"triangulated_grid", "rows=16,cols=16", "rows,cols", false, true,
       f_trigrid},
      {"hypercube", "dim=4", "dim", false, false, f_hypercube},
      {"binary_tree", "n=127", "n", false, true, f_binary_tree},
      {"random_tree", "n=256", "n", true, true, f_random_tree},
      {"outerplanar", "n=128,chords=(n-3)/2", "n,chords", true, true,
       f_outerplanar},
      {"apollonian", "n=256", "n", true, true, f_apollonian},
      {"random_planar", "n=256,m=2n", "n,m", true, true, f_random_planar},
      {"gnp", "n=256,avg_degree=8 (or p=)", "n,p,avg_degree", true, false,
       f_gnp},
      {"gnm", "n=256,m=4n", "n,m", true, false, f_gnm},
      {"random_regular", "n=256,d=4 (d>=6 rarely feasible)", "n,d", true,
       false, f_random_regular},
      {"wheel", "n=64", "n", false, true, f_wheel},
      {"caterpillar", "spine=64,legs=128", "spine,legs", true, true,
       f_caterpillar},
      {"toroidal_grid", "rows=16,cols=16", "rows,cols", false, false,
       f_toroidal_grid},
      {"k5_blobs", "backbone_n=200,blobs=20", "backbone_n,blobs", true, false,
       f_k5_blobs},
      {"file", "path=<edge list>", "path", false, false, f_file},
  };
  return kFamilies;
}

const std::vector<PerturbInfo>& scenario_perturbations() {
  static const std::vector<PerturbInfo> kPerturbs = {
      {"plus_random_edges", "extra=0", "extra", x_plus_random_edges},
      {"k5_blobs", "count=8", "count", x_k5_blobs},
      {"k33_blobs", "count=8", "count", x_k33_blobs},
      {"disjoint_copies", "copies=2", "copies", x_disjoint_copies},
  };
  return kPerturbs;
}

const std::vector<PresetInfo>& scenario_presets() {
  static const std::vector<PresetInfo> kPresets = {
      {"road_network", "rows=40,cols=40,flyovers=200", "rows,cols,flyovers",
       preset_road_network},
      {"overlay_backbone", "n=1500,m=3200,overlay=300", "n,m,overlay",
       preset_overlay_backbone},
  };
  return kPresets;
}

const FamilyInfo* find_family(std::string_view name) {
  for (const FamilyInfo& f : scenario_families()) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

const PerturbInfo* find_perturbation(std::string_view name) {
  for (const PerturbInfo& p : scenario_perturbations()) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

const PresetInfo* find_preset(std::string_view name) {
  for (const PresetInfo& p : scenario_presets()) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

bool is_known_scenario(std::string_view name) {
  return find_family(name) != nullptr || find_preset(name) != nullptr;
}

bool param_key_allowed(const char* keys, std::string_view key) {
  std::string_view rest(keys);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view head = rest.substr(0, comma);
    if (head == key) return true;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return false;
}

const char* scenario_param_keys(std::string_view name) {
  if (const PresetInfo* preset = find_preset(name)) return preset->param_keys;
  if (const FamilyInfo* family = find_family(name)) return family->param_keys;
  return nullptr;
}

ScenarioInstance resolve_scenario(std::string_view name,
                                  const ScenarioParams& params,
                                  std::uint64_t base_seed,
                                  std::uint64_t index) {
  // The seed derives from the *resolved* family and its params only --
  // perturbation params (and preset knobs that become them, e.g.
  // road_network's flyovers) are deliberately excluded, so sweeping a
  // perturbation axis perturbs one fixed base graph: a controlled
  // comparison, not a resample per sweep point. The corpus hash covers
  // the full label (perturbation included), so distinct perturbed graphs
  // never collide in the cache.
  ScenarioInstance inst;
  if (const PresetInfo* preset = find_preset(name)) {
    inst = preset->instantiate(params);
    CPT_ASSERT(find_family(inst.family) != nullptr);
  } else {
    const FamilyInfo* family = find_family(name);
    CPT_EXPECTS(family != nullptr && "unknown scenario name");
    inst.family = family->name;
    inst.params = params;
  }
  inst.seed = derive_instance_seed(inst.family, inst.params, base_seed, index);
  return inst;
}

Graph build_instance(const ScenarioInstance& instance) {
  const FamilyInfo* family = find_family(instance.family);
  CPT_EXPECTS(family != nullptr && "unknown scenario family");
  Rng rng(instance.seed);
  Graph g = family->make(instance.params, rng);
  if (!instance.perturb.empty()) {
    const PerturbInfo* perturb = find_perturbation(instance.perturb);
    CPT_EXPECTS(perturb != nullptr && "unknown perturbation");
    g = perturb->apply(g, instance.perturb_params, rng);
  }
  return g;
}

namespace {

// Analytic adjacency of the row-major lattice (node = r * cols + c), the
// membership test streaming extras need without a resident base graph.
// Expects a normalized pair (a < b).
bool lattice_has_edge(NodeId a, NodeId b, NodeId cols, bool diagonals) {
  const NodeId d = b - a;
  const bool not_last_col = a % cols != cols - 1;
  if (d == 1) return not_last_col;
  if (d == cols) return true;  // b < n already implies r + 1 < rows
  if (diagonals && d == cols + 1) return not_last_col;
  return false;
}

// Replays planar_plus_random_edges' exact draw sequence (two next_below
// per attempt, rejection on self-loops and already-present pairs) against
// the analytic lattice adjacency plus the extras drawn so far -- the same
// accept/reject decisions gen::planar_plus_random_edges makes against its
// `present` set, so the resulting edge multiset is identical.
std::vector<Endpoints> draw_lattice_extras(NodeId rows, NodeId cols,
                                           bool diagonals, std::uint64_t extra,
                                           std::uint64_t base_edges, Rng& rng) {
  const std::uint64_t n = static_cast<std::uint64_t>(rows) * cols;
  CPT_EXPECTS(base_edges + extra <= n * (n - 1) / 2);
  std::unordered_set<std::uint64_t> drawn;
  std::vector<Endpoints> added;
  added.reserve(static_cast<std::size_t>(extra));
  while (added.size() < extra) {
    const NodeId u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    const NodeId a = std::min(u, v);
    const NodeId b = std::max(u, v);
    if (lattice_has_edge(a, b, cols, diagonals)) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (drawn.insert(key).second) added.push_back({a, b});
  }
  return added;
}

}  // namespace

std::unique_ptr<gen::EdgeStream> make_edge_stream(
    const ScenarioInstance& instance) {
  const bool diagonals = instance.family == "triangulated_grid";
  if (!diagonals && instance.family != "grid") return nullptr;
  if (!instance.perturb.empty() && instance.perturb != "plus_random_edges") {
    return nullptr;
  }
  // The same checks as f_grid / f_trigrid / x_plus_random_edges.
  const LatticeDims d = lattice_dims(instance.params, instance.family,
                                     1, diagonals ? 3 : 2);
  auto base = diagonals ? gen::triangulated_grid_stream(d.rows, d.cols)
                        : gen::grid_stream(d.rows, d.cols);
  if (instance.perturb.empty()) return base;
  const EdgeId extra = p_count(instance.perturb_params, "extra", 0);
  check_extra_edges(base->num_nodes(), base->num_edges(), extra);
  if (extra == 0) {
    // planar_plus_random_edges with extra=0 draws nothing; the base set is
    // the whole graph.
    return base;
  }
  // Mirror build_instance's seed discipline: the family generator ignores
  // the Rng, so the perturbation draws from a fresh instance-seeded chain.
  Rng rng(instance.seed);
  std::vector<Endpoints> extras = draw_lattice_extras(
      d.rows, d.cols, diagonals, extra, base->num_edges(), rng);
  return gen::merge_extra_edges(std::move(base), std::move(extras));
}

}  // namespace cpt::scenario
