#include "scenario/manifest.h"

#include <cstdio>

#include "scenario/json.h"

namespace cpt::scenario {

const char* tester_name(TesterKind k) {
  switch (k) {
    case TesterKind::kPlanarity: return "planarity";
    case TesterKind::kCycleFree: return "cycle_free";
    case TesterKind::kBipartite: return "bipartite";
    case TesterKind::kStage1Partition: return "stage1_partition";
    case TesterKind::kRandomPartition: return "random_partition";
  }
  return "?";
}

bool parse_tester(std::string_view name, TesterKind* out) {
  if (name == "planarity") { *out = TesterKind::kPlanarity; return true; }
  if (name == "cycle_free") { *out = TesterKind::kCycleFree; return true; }
  if (name == "bipartite") { *out = TesterKind::kBipartite; return true; }
  if (name == "stage1_partition") {
    *out = TesterKind::kStage1Partition;
    return true;
  }
  if (name == "random_partition") {
    *out = TesterKind::kRandomPartition;
    return true;
  }
  return false;
}

std::string Job::cell_key() const {
  std::string key = instance.label();
  key += '|';
  key += tester_name(tester);
  char buf[48];
  std::snprintf(buf, sizeof buf, "|eps=%.17g", epsilon);
  key += buf;
  if (adaptive) key += "|adaptive";
  if (!pipelined) key += "|unpipelined";
  if (randomized) {
    std::snprintf(buf, sizeof buf, "|rand,delta=%.17g", delta);
    key += buf;
  }
  if (tester == TesterKind::kRandomPartition) {
    std::snprintf(buf, sizeof buf, "|delta=%.17g", delta);
    key += buf;
  }
  if (max_rounds != 0) {
    std::snprintf(buf, sizeof buf, "|maxr=%llu",
                  static_cast<unsigned long long>(max_rounds));
    key += buf;
  }
  return key;
}

std::uint64_t derive_tester_seed(std::uint64_t instance_seed,
                                 std::uint32_t trial) {
  // Same mixing discipline as derive_instance_seed: each injection lands
  // on a fully mixed state.
  std::uint64_t s = 0x545354445f435054ULL;  // "TSTD_CPT": domain separator
  s ^= instance_seed;
  s = splitmix64(s);
  s ^= trial;
  return splitmix64(s);
}

namespace {

struct ParseCtx {
  std::string* error;
  bool fail(const std::string& msg) {
    if (error != nullptr && error->empty()) *error = msg;
    return false;
  }
};

bool json_to_param(const JsonValue& v, ParamValue* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNumber:
      *out = v.is_integer() ? ParamValue::of_int(v.as_int64())
                            : ParamValue::of_double(v.as_double());
      return true;
    case JsonValue::Kind::kString:
      *out = ParamValue::of_string(v.as_string());
      return true;
    case JsonValue::Kind::kBool:
      *out = ParamValue::of_int(v.as_bool() ? 1 : 0);
      return true;
    default:
      return false;
  }
}

// A params-like object: scalars land in `fixed`, arrays become sweep axes
// (declaration order). `allowed_keys` is the comma-separated key list the
// named family/preset/perturbation accepts -- anything else (a typo, a
// knob from another family) is a hard error, never a silent default.
bool parse_param_block(ParseCtx& ctx, const JsonValue& obj, bool for_perturb,
                       const char* allowed_keys, const char* owner,
                       ScenarioParams* fixed, std::vector<SweepAxis>* axes,
                       const std::string& where) {
  if (!obj.is_object()) return ctx.fail(where + " must be an object");
  for (const auto& [key, value] : obj.members()) {
    if (for_perturb && key == "kind") continue;
    if (!param_key_allowed(allowed_keys, key)) {
      return ctx.fail(where + "." + key + ": unknown param for \"" +
                      owner + "\" (accepted: " + allowed_keys + ")");
    }
    if (value.is_array()) {
      SweepAxis axis;
      axis.key = key;
      axis.for_perturb = for_perturb;
      if (value.items().empty()) {
        return ctx.fail(where + "." + key + ": empty sweep axis");
      }
      for (const JsonValue& item : value.items()) {
        ParamValue pv;
        if (!json_to_param(item, &pv)) {
          return ctx.fail(where + "." + key + ": unsupported value type");
        }
        axis.values.push_back(std::move(pv));
      }
      axes->push_back(std::move(axis));
    } else {
      ParamValue pv;
      if (!json_to_param(value, &pv)) {
        return ctx.fail(where + "." + key + ": unsupported value type");
      }
      fixed->set(key, std::move(pv));
    }
  }
  return true;
}

// Every tester requires 0 < epsilon < 1 (stage1_theory_phase_count and its
// random_partition twin), so anything else is a manifest error, not a job.
bool parse_epsilons(ParseCtx& ctx, const JsonValue& v,
                    std::vector<double>* out) {
  out->clear();
  if (v.is_number()) {
    out->push_back(v.as_double());
  } else if (v.is_array() && !v.items().empty()) {
    for (const JsonValue& item : v.items()) {
      if (!item.is_number()) return ctx.fail("epsilon: expected numbers");
      out->push_back(item.as_double());
    }
  } else {
    return ctx.fail("epsilon: expected a number or non-empty array");
  }
  for (const double eps : *out) {
    if (!(eps > 0 && eps < 1)) {
      return ctx.fail("epsilon: expected values in (0, 1), got " +
                      json_render_double(eps));
    }
  }
  return true;
}

bool parse_testers(ParseCtx& ctx, const JsonValue& v,
                   std::vector<TesterKind>* out) {
  out->clear();
  const auto one = [&](const JsonValue& item) {
    TesterKind k;
    if (!item.is_string() || !parse_tester(item.as_string(), &k)) {
      return ctx.fail("tester: unknown tester \"" +
                      (item.is_string() ? item.as_string() : "<non-string>") +
                      "\" (planarity | cycle_free | bipartite | "
                      "stage1_partition | random_partition)");
    }
    out->push_back(k);
    return true;
  };
  if (v.is_string()) return one(v);
  if (v.is_array() && !v.items().empty()) {
    for (const JsonValue& item : v.items()) {
      if (!one(item)) return false;
    }
    return true;
  }
  return ctx.fail("tester: expected a name or non-empty array");
}

// Scalar cell fields, with `defaults` as fallback.
const JsonValue* cell_field(const JsonValue& cell, const JsonValue* defaults,
                            std::string_view key) {
  if (const JsonValue* v = cell.find(key)) return v;
  return defaults != nullptr ? defaults->find(key) : nullptr;
}

bool get_u32(ParseCtx& ctx, const JsonValue* v, std::uint32_t lo,
             std::uint32_t hi, std::uint32_t* out, const char* what) {
  if (v == nullptr) return true;  // keep default
  if (!v->is_integer() || v->as_int64() < lo || v->as_int64() > hi) {
    return ctx.fail(std::string(what) + ": expected an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  *out = static_cast<std::uint32_t>(v->as_int64());
  return true;
}

bool get_bool(ParseCtx& ctx, const JsonValue* v, bool* out, const char* what) {
  if (v == nullptr) return true;
  if (!v->is_bool()) return ctx.fail(std::string(what) + ": expected a bool");
  *out = v->as_bool();
  return true;
}

// Keys a cell object may carry ("scenario"/"family" + sweep blocks + the
// scalar fields); "defaults" accepts the scalar fields only.
constexpr const char* kCellScalarKeys =
    "epsilon,tester,instances,trials,sim_threads,adaptive,randomized,"
    "pipelined,delta,alpha,max_rounds";
constexpr const char* kCellKeys =
    "scenario,family,params,perturb,epsilon,tester,instances,trials,"
    "sim_threads,adaptive,randomized,pipelined,delta,alpha,max_rounds";

bool check_known_keys(ParseCtx& ctx, const JsonValue& obj, const char* allowed,
                      const std::string& where) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (!param_key_allowed(allowed, key)) {
      return ctx.fail(where + ": unknown key \"" + key + "\" (accepted: " +
                      allowed + ")");
    }
  }
  return true;
}

bool parse_cell(ParseCtx& ctx, const JsonValue& cv, const JsonValue* defaults,
                ManifestCell* cell) {
  if (!cv.is_object()) return ctx.fail("cells[]: expected objects");
  if (!check_known_keys(ctx, cv, kCellKeys, "cells[]")) return false;
  const JsonValue* scenario = cv.find("scenario");
  if (scenario == nullptr) scenario = cv.find("family");  // accepted alias
  if (scenario == nullptr || !scenario->is_string()) {
    return ctx.fail("cells[]: missing \"scenario\" name");
  }
  cell->scenario = scenario->as_string();
  if (!is_known_scenario(cell->scenario)) {
    return ctx.fail("unknown scenario \"" + cell->scenario + "\"");
  }
  if (const JsonValue* params = cv.find("params")) {
    if (!parse_param_block(ctx, *params, false,
                           scenario_param_keys(cell->scenario),
                           cell->scenario.c_str(), &cell->fixed_params,
                           &cell->axes, "params")) {
      return false;
    }
  }
  if (const JsonValue* perturb = cv.find("perturb")) {
    if (!perturb->is_object()) return ctx.fail("perturb must be an object");
    const JsonValue* kind = perturb->find("kind");
    const PerturbInfo* info =
        kind != nullptr && kind->is_string()
            ? find_perturbation(kind->as_string())
            : nullptr;
    if (info == nullptr) {
      return ctx.fail("perturb.kind: unknown perturbation");
    }
    if (find_preset(cell->scenario) != nullptr) {
      return ctx.fail("perturb cannot be combined with preset \"" +
                      cell->scenario + "\" (presets fix their perturbation)");
    }
    cell->perturb = kind->as_string();
    if (!parse_param_block(ctx, *perturb, true, info->param_keys, info->name,
                           &cell->fixed_perturb_params, &cell->axes,
                           "perturb")) {
      return false;
    }
  }

  cell->epsilons = {0.1};
  if (const JsonValue* eps = cell_field(cv, defaults, "epsilon")) {
    if (!parse_epsilons(ctx, *eps, &cell->epsilons)) return false;
  }
  cell->testers = {TesterKind::kPlanarity};
  if (const JsonValue* tester = cell_field(cv, defaults, "tester")) {
    if (!parse_testers(ctx, *tester, &cell->testers)) return false;
  }
  std::uint32_t threads = 1;
  if (!get_u32(ctx, cell_field(cv, defaults, "instances"), 1, 1u << 20,
               &cell->instances, "instances") ||
      !get_u32(ctx, cell_field(cv, defaults, "trials"), 1, 1u << 20,
               &cell->trials, "trials") ||
      !get_u32(ctx, cell_field(cv, defaults, "sim_threads"), 1, 32, &threads,
               "sim_threads") ||
      !get_u32(ctx, cell_field(cv, defaults, "alpha"), 1, 64, &cell->alpha,
               "alpha") ||
      !get_bool(ctx, cell_field(cv, defaults, "adaptive"), &cell->adaptive,
                "adaptive") ||
      !get_bool(ctx, cell_field(cv, defaults, "randomized"), &cell->randomized,
                "randomized") ||
      !get_bool(ctx, cell_field(cv, defaults, "pipelined"), &cell->pipelined,
                "pipelined")) {
    return false;
  }
  cell->sim_threads = threads;
  if (const JsonValue* mr = cell_field(cv, defaults, "max_rounds")) {
    if (!mr->is_integer() || mr->as_int64() < 0) {
      return ctx.fail("max_rounds: expected a non-negative integer");
    }
    cell->max_rounds = static_cast<std::uint64_t>(mr->as_int64());
  }
  if (const JsonValue* delta = cell_field(cv, defaults, "delta")) {
    if (!delta->is_number()) return ctx.fail("delta: expected a number");
    cell->delta = delta->as_double();
  }
  return true;
}

}  // namespace

bool parse_manifest(std::string_view json_text, Manifest* out,
                    std::string* error) {
  *out = Manifest{};
  ParseCtx ctx{error};
  JsonValue doc;
  if (!JsonValue::parse(json_text, &doc, error)) return false;
  if (!doc.is_object()) return ctx.fail("manifest must be a JSON object");
  if (!check_known_keys(ctx, doc, "name,base_seed,defaults,cells",
                        "manifest")) {
    return false;
  }
  if (const JsonValue* name = doc.find("name")) {
    if (!name->is_string()) return ctx.fail("name: expected a string");
    out->name = name->as_string();
  }
  if (const JsonValue* seed = doc.find("base_seed")) {
    if (!seed->is_integer() || seed->as_int64() < 0) {
      return ctx.fail("base_seed: expected a non-negative integer");
    }
    out->base_seed = static_cast<std::uint64_t>(seed->as_int64());
  }
  const JsonValue* defaults = doc.find("defaults");
  if (defaults != nullptr && !defaults->is_object()) {
    return ctx.fail("defaults: expected an object");
  }
  if (defaults != nullptr &&
      !check_known_keys(ctx, *defaults, kCellScalarKeys, "defaults")) {
    return false;
  }
  const JsonValue* cells = doc.find("cells");
  if (cells == nullptr || !cells->is_array() || cells->items().empty()) {
    return ctx.fail("cells: expected a non-empty array");
  }
  for (const JsonValue& cv : cells->items()) {
    ManifestCell cell;
    if (!parse_cell(ctx, cv, defaults, &cell)) return false;
    out->cells.push_back(std::move(cell));
  }
  return true;
}

bool load_manifest_file(const std::string& path, Manifest* out,
                        std::string* error) {
  std::string text;
  if (!read_text_file(path, &text)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  if (!parse_manifest(text, out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

namespace {

// Recursively walks the cell's sweep axes (declaration order), then the
// epsilon / tester / instance / trial loops innermost.
void expand_axes(const Manifest& m, std::uint32_t cell_index,
                 const ManifestCell& cell, std::size_t axis,
                 ScenarioParams& params, ScenarioParams& perturb_params,
                 std::vector<Job>* out) {
  if (axis < cell.axes.size()) {
    const SweepAxis& ax = cell.axes[axis];
    ScenarioParams& target = ax.for_perturb ? perturb_params : params;
    for (const ParamValue& v : ax.values) {
      target.set(ax.key, v);
      expand_axes(m, cell_index, cell, axis + 1, params, perturb_params, out);
    }
    return;
  }
  for (const double eps : cell.epsilons) {
    for (const TesterKind tester : cell.testers) {
      for (std::uint32_t inst = 0; inst < cell.instances; ++inst) {
        // The seed covers family + family params + index only (see
        // resolve_scenario): a perturbation axis sweeps one fixed base
        // graph, and the shared Rng makes e.g. extra=[40, 90] nested --
        // the 90-edge noise extends the 40-edge noise.
        ScenarioInstance instance =
            resolve_scenario(cell.scenario, params, m.base_seed, inst);
        if (!cell.perturb.empty()) {
          instance.perturb = cell.perturb;
          instance.perturb_params = perturb_params;
        }
        for (std::uint32_t trial = 0; trial < cell.trials; ++trial) {
          Job job;
          job.job_index = static_cast<std::uint32_t>(out->size());
          job.cell_index = cell_index;
          job.instance = instance;
          job.instance_index = inst;
          job.trial = trial;
          job.tester = tester;
          job.epsilon = eps;
          job.adaptive = cell.adaptive;
          job.randomized = cell.randomized;
          job.pipelined = cell.pipelined;
          job.delta = cell.delta;
          job.alpha = cell.alpha;
          job.sim_threads = cell.sim_threads;
          job.max_rounds = cell.max_rounds;
          job.tester_seed = derive_tester_seed(instance.seed, trial);
          out->push_back(std::move(job));
        }
      }
    }
  }
}

}  // namespace

std::vector<Job> expand_manifest(const Manifest& m) {
  std::vector<Job> jobs;
  for (std::uint32_t c = 0; c < m.cells.size(); ++c) {
    const ManifestCell& cell = m.cells[c];
    ScenarioParams params = cell.fixed_params;
    ScenarioParams perturb_params = cell.fixed_perturb_params;
    expand_axes(m, c, cell, 0, params, perturb_params, &jobs);
  }
  return jobs;
}

}  // namespace cpt::scenario
