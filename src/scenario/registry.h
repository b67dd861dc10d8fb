// Declarative registry of named, parameterized graph scenarios.
//
// Three layers:
//   * families  -- every generator in graph/generators.h plus "file"
//                  (edge-list via graph/io.h), keyed by name, taking typed
//                  key=value params;
//   * perturbations -- eps-far wrappers applied to a generated base graph:
//                  planar_plus_random_edges, K5/K3,3 blob injection,
//                  disjoint-copy scaling;
//   * presets   -- named scenarios composing a family + perturbation with
//                  default params (the examples' graph setups live here, so
//                  examples and batch sweeps share one source of truth).
//
// Reproducibility contract: a ScenarioInstance is fully determined by
// (resolved family, family params, base_seed, instance index). The
// instance seed is a documented splitmix64 chain over those four inputs
// (derive_instance_seed); perturbation params are deliberately excluded,
// so sweeping a perturbation axis varies the noise on one fixed base
// graph (controlled comparisons). Family generation and the perturbation
// draw from one Rng seeded with the instance seed -- re-expanding a
// manifest always rebuilds bit-identical graphs. hash() (over the full
// label, perturbation included) keys the corpus cache.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace cpt::scenario {

// One typed scenario parameter value.
struct ParamValue {
  enum class Kind { kInt, kDouble, kString };
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0;
  std::string s;

  static ParamValue of_int(std::int64_t v) {
    ParamValue p;
    p.kind = Kind::kInt;
    p.i = v;
    return p;
  }
  static ParamValue of_double(double v) {
    ParamValue p;
    p.kind = Kind::kDouble;
    p.d = v;
    return p;
  }
  static ParamValue of_string(std::string v) {
    ParamValue p;
    p.kind = Kind::kString;
    p.s = std::move(v);
    return p;
  }

  // Canonical rendering used by signatures, labels and seed derivation:
  // ints as decimal, doubles via %.17g, strings verbatim.
  std::string to_string() const;
};

// Ordered key -> value map (insertion order preserved for display; the
// canonical signature sorts by key so logically equal param sets hash
// equal regardless of declaration order).
class ScenarioParams {
 public:
  void set(std::string key, ParamValue v);
  void set_int(std::string key, std::int64_t v) { set(std::move(key), ParamValue::of_int(v)); }
  void set_double(std::string key, double v) { set(std::move(key), ParamValue::of_double(v)); }
  void set_string(std::string key, std::string v) { set(std::move(key), ParamValue::of_string(std::move(v))); }

  bool has(std::string_view key) const { return find(key) != nullptr; }
  const ParamValue* find(std::string_view key) const;

  // Typed getters with defaults. get_int accepts kInt only; get_double
  // accepts kInt or kDouble. A present-but-mistyped param throws
  // std::invalid_argument naming the key.
  std::int64_t get_int(std::string_view key, std::int64_t def) const;
  double get_double(std::string_view key, double def) const;
  std::string get_string(std::string_view key, std::string def) const;

  bool empty() const { return kv_.empty(); }
  const std::vector<std::pair<std::string, ParamValue>>& entries() const {
    return kv_;
  }

  // Canonical "k1=v1,k2=v2" with keys sorted; "" when empty.
  std::string signature() const;

 private:
  std::vector<std::pair<std::string, ParamValue>> kv_;
};

// A fully resolved instance: family + params, optional perturbation, and
// the derived instance seed.
struct ScenarioInstance {
  std::string family;
  ScenarioParams params;
  std::string perturb;  // "" = none
  ScenarioParams perturb_params;
  std::uint64_t seed = 0;

  // "family(sig)" or "family(sig)+perturb(sig)" -- seed excluded (the
  // aggregation cell key); with_seed appends "@seed".
  std::string label() const;
  std::string label_with_seed() const;

  // Corpus/cache key: 64-bit FNV-1a chain over label() and seed.
  std::uint64_t hash() const;
};

// ---- Registry introspection ----------------------------------------------

struct FamilyInfo {
  const char* name;
  const char* params_help;  // "rows=16,cols=16" style defaults summary
  const char* param_keys;   // comma-separated accepted keys (validation)
  bool randomized;          // false: the generator ignores the seed
  // True when the generator yields a planar graph for EVERY parameter
  // value -- the one-sidedness invariant (planar => never rejected) is
  // checked over exactly these families (scenario/invariants.h).
  bool planar;
  Graph (*make)(const ScenarioParams&, Rng&);
};

struct PerturbInfo {
  const char* name;
  const char* params_help;
  const char* param_keys;  // comma-separated accepted keys (validation)
  Graph (*apply)(const Graph& base, const ScenarioParams&, Rng&);
};

struct PresetInfo {
  const char* name;
  const char* params_help;
  const char* param_keys;  // comma-separated accepted keys (validation)
  // Expands user params (overriding preset defaults) into a family-level
  // instance. `seed` is left 0; callers derive it from the preset name.
  ScenarioInstance (*instantiate)(const ScenarioParams& user);
};

const std::vector<FamilyInfo>& scenario_families();
const std::vector<PerturbInfo>& scenario_perturbations();
const std::vector<PresetInfo>& scenario_presets();
const FamilyInfo* find_family(std::string_view name);
const PerturbInfo* find_perturbation(std::string_view name);
const PresetInfo* find_preset(std::string_view name);

// True iff `name` names a family or a preset.
bool is_known_scenario(std::string_view name);

// True when `key` appears in a comma-separated `keys` list ("" = none).
bool param_key_allowed(const char* keys, std::string_view key);

// The accepted param-key list for a family or preset name; nullptr when
// unknown. Used by manifest validation to reject misspelled params.
const char* scenario_param_keys(std::string_view name);

// ---- Instance construction ----------------------------------------------

// Documented seed chain: splitmix64 over a fixed domain constant, the FNV
// hashes of the scenario name and canonical param signature, base_seed and
// the instance index (in that order).
std::uint64_t derive_instance_seed(std::string_view scenario,
                                   const ScenarioParams& params,
                                   std::uint64_t base_seed,
                                   std::uint64_t index);

// Resolves a scenario name (family or preset) + params into an instance
// with the seed derived per the contract above. Unknown names are a
// contract violation; validate with is_known_scenario first.
ScenarioInstance resolve_scenario(std::string_view name,
                                  const ScenarioParams& params,
                                  std::uint64_t base_seed,
                                  std::uint64_t index);

// Builds the instance's graph: family generator, then the perturbation,
// both drawing from one Rng seeded with instance.seed. A param outside its
// generator's domain throws std::invalid_argument naming the key. This is
// each family's only generator: a corpus hit is rebuilt from the saved
// edges by GraphBuilder, never generated another way.
Graph build_instance(const ScenarioInstance& instance);

// FNV-1a-64, the one copy of the loop: fnv_fold continues hash `h` over
// n more bytes, fnv1a64 hashes a string from the offset basis. Instance
// hashes, .cpg checksums and result-cache keys all fold through it.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv_fold(std::uint64_t h, const void* data,
                              std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::string_view s) {
  return fnv_fold(kFnvOffsetBasis, s.data(), s.size());
}

}  // namespace cpt::scenario
