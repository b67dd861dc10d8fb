// Scenario subsystem unit tests: JSON parsing, strict manifest validation
// (unknown keys and misspelled params are errors, malformed JSON reports
// instead of crashing), registry seed derivation (instance + tester
// goldens), golden manifest expansion (same manifest => identical job
// list and seeds), corpus round-trip + hit/miss determinism + corrupt-
// file recovery, the engine's failure reporting, and the engine-vs-direct
// equivalence that pins the migrated E1-E7 benches ("measured
// rounds/messages unchanged for matching instances", including the E4/E6
// stage1_partition / random_partition workloads).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "apps/cycle_free.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/tester.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "partition/random_partition.h"
#include "scenario/aggregate.h"
#include "scenario/corpus.h"
#include "scenario/engine.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "util/trace.h"

namespace cpt::scenario {
namespace {

// ---- JSON -----------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndOrderedObjects) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(
      R"({"b": 1, "a": [2.5, "x", true, null], "c": {"n": -3}})", &v, &err))
      << err;
  ASSERT_TRUE(v.is_object());
  // Declaration order is preserved (sweep-axis order depends on it).
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "c");
  EXPECT_TRUE(v.find("b")->is_integer());
  EXPECT_EQ(v.find("b")->as_int64(), 1);
  const JsonValue& arr = *v.find("a");
  ASSERT_EQ(arr.items().size(), 4u);
  EXPECT_FALSE(arr.items()[0].is_integer());
  EXPECT_DOUBLE_EQ(arr.items()[0].as_double(), 2.5);
  EXPECT_EQ(arr.items()[1].as_string(), "x");
  EXPECT_TRUE(arr.items()[2].as_bool());
  EXPECT_TRUE(arr.items()[3].is_null());
  EXPECT_EQ(v.find("c")->find("n")->as_int64(), -3);
}

TEST(Json, RejectsMalformedDocuments) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(JsonValue::parse("{", &v, &err));
  EXPECT_FALSE(JsonValue::parse("[1, 2,]", &v, &err));
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", &v, &err));
  EXPECT_FALSE(JsonValue::parse(R"({"a": 1, "a": 2})", &v, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  JsonValue v;
  std::string err;
  // ASCII, 2-byte (é U+00E9), 3-byte (€ U+20AC), and a surrogate pair
  // (U+1F600) -- each must decode to its exact UTF-8 byte sequence.
  ASSERT_TRUE(JsonValue::parse(R"("\u0041\u00e9\u20AC\ud83d\ude00")", &v,
                               &err))
      << err;
  EXPECT_EQ(v.as_string(),
            "A"
            "\xc3\xa9"
            "\xe2\x82\xac"
            "\xf0\x9f\x98\x80");
  // NUL decodes too (std::string carries it fine).
  ASSERT_TRUE(JsonValue::parse(R"("a\u0000b")", &v, &err)) << err;
  ASSERT_EQ(v.as_string().size(), 3u);
  EXPECT_EQ(v.as_string()[1], '\0');
  // Raw UTF-8 passes through untouched, and the writer escapes only what
  // JSON requires: parse(render(s)) == s for non-ASCII content.
  const std::string original = "caf\xc3\xa9 \xe2\x82\xac" "5";
  std::string rendered;
  json_append_escaped(rendered, original);
  ASSERT_TRUE(JsonValue::parse(rendered, &v, &err)) << err;
  EXPECT_EQ(v.as_string(), original);
}

TEST(Json, LoneAndMismatchedSurrogatesAreLineNumberedErrors) {
  JsonValue v;
  std::string err;
  const char* bad[] = {
      R"("\ud83d")",         // lone high surrogate at end of string
      R"("\ud83d abc")",     // high surrogate followed by plain text
      R"("\ud83d\u0041")",   // high surrogate paired with a non-surrogate
      R"("\ud83d\ud83d")",   // high surrogate paired with another high
      R"("\ude00")",         // lone low surrogate
      R"("\ud8")",           // truncated escape
      R"("\uZZZZ")",         // non-hex digits
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(JsonValue::parse(doc, &v, &err)) << doc;
    EXPECT_NE(err.find("line 1"), std::string::npos) << doc << " -> " << err;
  }
  // The line number tracks the failing escape, not the document start.
  EXPECT_FALSE(JsonValue::parse("[\n1,\n\"\\ud83d\"\n]", &v, &err));
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

// ---- Registry / seeds -----------------------------------------------------

TEST(Registry, EveryFamilyBuildsAGraph) {
  for (const FamilyInfo& family : scenario_families()) {
    if (std::string_view(family.name) == "file") continue;  // needs a path
    const ScenarioInstance inst =
        resolve_scenario(family.name, ScenarioParams{}, /*base_seed=*/3,
                         /*index=*/0);
    const Graph g = build_instance(inst);
    EXPECT_GT(g.num_nodes(), 0u) << family.name;
  }
}

// Every family, perturbation and preset key set to values outside most
// generators' domains. Each instance must build or fail as a job: no abort
// on a generator contract, with or without a corpus directory (the corpus
// leg builds and saves the graph like every other family).
TEST(Registry, OutOfDomainParamsFailTheirInstance) {
  std::string corpus = testing::TempDir() + "cpt_domain_XXXXXX";
  ASSERT_NE(mkdtemp(corpus.data()), nullptr);
  const std::vector<ParamValue> values = {
      ParamValue::of_int(-1), ParamValue::of_int(0), ParamValue::of_double(2.5),
      ParamValue::of_int(std::int64_t{1} << 33), ParamValue::of_string("x")};
  // (scenario, perturbation, accepted keys); perturbations ride a small grid.
  struct Target {
    std::string scenario, perturb;
    const char* keys;
    bool preset;
  };
  std::vector<Target> targets;
  for (const FamilyInfo& f : scenario_families()) {
    targets.push_back({f.name, "", f.param_keys, false});
  }
  for (const PerturbInfo& x : scenario_perturbations()) {
    targets.push_back({"grid", x.name, x.param_keys, false});
  }
  for (const PresetInfo& p : scenario_presets()) {
    targets.push_back({p.name, "", p.param_keys, true});
  }
  std::size_t failed = 0, built = 0;
  for (const Target& t : targets) {
    std::string_view keys(t.keys);
    while (!keys.empty()) {
      const std::size_t comma = keys.find(',');
      const std::string key(keys.substr(0, comma));
      keys.remove_prefix(comma == std::string_view::npos ? keys.size()
                                                         : comma + 1);
      for (const ParamValue& value : values) {
        Manifest m;
        ManifestCell cell;
        cell.scenario = t.scenario;
        cell.epsilons = {0.1};
        cell.testers = {TesterKind::kPlanarity};
        if (t.perturb.empty()) {
          cell.fixed_params.set(key, value);
        } else {
          cell.fixed_params.set_int("rows", 4);
          cell.fixed_params.set_int("cols", 4);
          cell.perturb = t.perturb;
          cell.fixed_perturb_params.set(key, value);
        }
        m.cells.push_back(cell);
        const std::string label =
            expand_manifest(m)[0].instance.label_with_seed();
        for (const bool with_corpus : {true, false}) {
          BatchOptions opt;
          opt.corpus_dir = with_corpus ? corpus : "";
          const MaterializeResult r = materialize_manifest(m, opt);
          const std::string where = label + (with_corpus ? " (corpus)" : "");
          ASSERT_EQ(r.corpus.unique_instances, 1u) << where;
          if (r.failed_instances == 0) {
            ++built;
            continue;
          }
          ++failed;
          ASSERT_EQ(r.errors.size(), 1u) << where;
          const std::string error = r.errors[0].substr(label.size() + 2);
          // Presets forward their knobs, so the message may name the
          // family or perturbation key they map to instead. file(path=x)
          // is in domain and fails on the missing file.
          const bool missing_file =
              t.scenario == "file" && value.kind == ParamValue::Kind::kString;
          if (!t.preset && !missing_file) {
            EXPECT_NE(error.find(key), std::string::npos)
                << where << ": " << error;
          }
        }
      }
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(built, 0u);
}

TEST(Registry, SeedDerivationIsStableAndSeparates) {
  ScenarioParams p1;
  p1.set_int("rows", 12);
  p1.set_int("cols", 12);
  // Declaration order must not matter (canonical signature sorts keys).
  ScenarioParams p2;
  p2.set_int("cols", 12);
  p2.set_int("rows", 12);
  EXPECT_EQ(p1.signature(), "cols=12,rows=12");
  EXPECT_EQ(derive_instance_seed("grid", p1, 7, 0),
            derive_instance_seed("grid", p2, 7, 0));
  // Golden value: pins the documented splitmix64 chain. If this changes,
  // every recorded corpus hash and manifest expansion changes with it.
  EXPECT_EQ(derive_instance_seed("grid", p1, 7, 0), 0x4b58ff6823165966ULL);
  // Any input perturbation separates.
  EXPECT_NE(derive_instance_seed("grid", p1, 7, 0),
            derive_instance_seed("grid", p1, 7, 1));
  EXPECT_NE(derive_instance_seed("grid", p1, 7, 0),
            derive_instance_seed("grid", p1, 8, 0));
  EXPECT_NE(derive_instance_seed("grid", p1, 7, 0),
            derive_instance_seed("triangulated_grid", p1, 7, 0));
  ScenarioParams p3 = p1;
  p3.set_int("rows", 13);
  EXPECT_NE(derive_instance_seed("grid", p1, 7, 0),
            derive_instance_seed("grid", p3, 7, 0));
}

TEST(Registry, TesterSeedGoldensAndSeparation) {
  // Goldens pin the documented splitmix64 chain over (instance seed,
  // trial): changing it re-seeds every recorded sweep. The instance-seed
  // input is itself the Registry golden above.
  EXPECT_EQ(derive_tester_seed(0x4b58ff6823165966ULL, 0),
            0xdc2a92a9d6d42bfbULL);
  EXPECT_EQ(derive_tester_seed(0x4b58ff6823165966ULL, 1),
            0x652556b7eb3e976eULL);
  EXPECT_EQ(derive_tester_seed(0, 0), 0x6b3ee4aaf64a4963ULL);
  // Trials and instances separate, and the tester chain is domain-
  // separated from the instance chain.
  EXPECT_NE(derive_tester_seed(7, 0), derive_tester_seed(7, 1));
  EXPECT_NE(derive_tester_seed(7, 0), derive_tester_seed(8, 0));
  ScenarioParams none;
  EXPECT_NE(derive_tester_seed(7, 0), derive_instance_seed("grid", none, 7, 0));
}

TEST(Registry, PlanarFamilyFlagsMatchTheGenerators) {
  // The one-sidedness invariant trusts these flags; spot-check both sides.
  for (const char* name : {"path", "cycle", "star", "grid",
                           "triangulated_grid", "binary_tree", "random_tree",
                           "outerplanar", "apollonian", "random_planar",
                           "wheel", "caterpillar"}) {
    EXPECT_TRUE(find_family(name)->planar) << name;
  }
  for (const char* name : {"complete", "complete_bipartite", "hypercube",
                           "gnp", "gnm", "random_regular", "toroidal_grid",
                           "k5_blobs", "file"}) {
    EXPECT_FALSE(find_family(name)->planar) << name;
  }
}

TEST(Registry, BuildInstanceIsDeterministic) {
  ScenarioParams params;
  params.set_int("n", 120);
  const ScenarioInstance inst =
      resolve_scenario("apollonian", params, 11, 2);
  const Graph a = build_instance(inst);
  const Graph b = build_instance(inst);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e).u, b.endpoints(e).u);
    EXPECT_EQ(a.endpoints(e).v, b.endpoints(e).v);
  }
}

TEST(Registry, PerturbationsChangeTheGraphDeterministically) {
  ScenarioParams params;
  params.set_int("rows", 8);
  params.set_int("cols", 8);
  ScenarioInstance inst = resolve_scenario("grid", params, 5, 0);
  const Graph base = build_instance(inst);
  inst.perturb = "k5_blobs";
  inst.perturb_params.set_int("count", 3);
  const Graph blobs = build_instance(inst);
  EXPECT_EQ(blobs.num_nodes(), base.num_nodes() + 3 * 5);
  EXPECT_EQ(blobs.num_edges(), base.num_edges() + 3 * (10 + 1));
  inst.perturb = "k33_blobs";
  const Graph k33 = build_instance(inst);
  EXPECT_EQ(k33.num_nodes(), base.num_nodes() + 3 * 6);
  EXPECT_EQ(k33.num_edges(), base.num_edges() + 3 * (9 + 1));
  inst.perturb = "disjoint_copies";
  inst.perturb_params = ScenarioParams{};
  inst.perturb_params.set_int("copies", 4);
  const Graph copies = build_instance(inst);
  EXPECT_EQ(copies.num_nodes(), 4 * base.num_nodes());
  EXPECT_EQ(copies.num_edges(), 4 * base.num_edges());
}

TEST(Registry, PresetsResolveToFamilies) {
  ScenarioParams params;
  params.set_int("flyovers", 25);
  const ScenarioInstance road =
      resolve_scenario("road_network", params, 2024, 0);
  EXPECT_EQ(road.family, "grid");
  EXPECT_EQ(road.perturb, "plus_random_edges");
  EXPECT_EQ(road.perturb_params.get_int("extra", -1), 25);
  const Graph g = build_instance(road);
  EXPECT_EQ(g.num_nodes(), 40u * 40u);
  EXPECT_EQ(g.num_edges(), 2u * 40u * 39u + 25u);

  const ScenarioInstance overlay =
      resolve_scenario("overlay_backbone", ScenarioParams{}, 77, 0);
  EXPECT_EQ(overlay.family, "random_planar");
  EXPECT_EQ(overlay.perturb, "plus_random_edges");
}

// ---- Manifest expansion ---------------------------------------------------

constexpr const char* kSmallManifest = R"({
  "name": "golden",
  "base_seed": 7,
  "defaults": {"trials": 2, "epsilon": 0.15, "tester": ["planarity", "cycle_free"]},
  "cells": [
    {"scenario": "grid", "params": {"rows": [12, 16], "cols": 12}},
    {"scenario": "cycle", "params": {"n": 30},
     "perturb": {"kind": "k33_blobs", "count": [2, 4]},
     "tester": "planarity", "trials": 1, "instances": 2}
  ]
})";

TEST(Manifest, GoldenExpansion) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(kSmallManifest, &m, &err)) << err;
  EXPECT_EQ(m.name, "golden");
  EXPECT_EQ(m.base_seed, 7u);
  ASSERT_EQ(m.cells.size(), 2u);

  const std::vector<Job> jobs = expand_manifest(m);
  // Cell 0: 2 rows-values x 2 testers x 2 trials = 8.
  // Cell 1: 2 count-values x 2 instances x 1 trial = 4.
  ASSERT_EQ(jobs.size(), 12u);

  // Axis order: rows axis outermost, then tester, then trial.
  EXPECT_EQ(jobs[0].instance.label(), "grid(cols=12,rows=12)");
  EXPECT_EQ(jobs[0].tester, TesterKind::kPlanarity);
  EXPECT_EQ(jobs[0].trial, 0u);
  EXPECT_EQ(jobs[1].trial, 1u);
  EXPECT_EQ(jobs[2].tester, TesterKind::kCycleFree);
  EXPECT_EQ(jobs[4].instance.label(), "grid(cols=12,rows=16)");
  // Golden instance seed (same derivation chain as Registry golden).
  EXPECT_EQ(jobs[0].instance.seed, 0x4b58ff6823165966ULL);
  // All four grid(rows=12) jobs share one instance; seeds match.
  EXPECT_EQ(jobs[0].instance.hash(), jobs[2].instance.hash());
  EXPECT_NE(jobs[0].instance.hash(), jobs[4].instance.hash());
  // Trials vary the tester seed, not the instance.
  EXPECT_NE(jobs[0].tester_seed, jobs[1].tester_seed);
  EXPECT_EQ(jobs[0].tester_seed, derive_tester_seed(jobs[0].instance.seed, 0));

  // Perturbed cell: the seed covers the base family only, so the count
  // axis sweeps noise on a fixed base graph (same seed, different label /
  // hash); the instance index still separates sibling graphs.
  EXPECT_EQ(jobs[8].instance.label(), "cycle(n=30)+k33_blobs(count=2)");
  EXPECT_EQ(jobs[8].instance_index, 0u);
  EXPECT_EQ(jobs[9].instance_index, 1u);
  EXPECT_NE(jobs[8].instance.seed, jobs[9].instance.seed);
  EXPECT_EQ(jobs[10].instance.label(), "cycle(n=30)+k33_blobs(count=4)");
  EXPECT_EQ(jobs[8].instance.seed, jobs[10].instance.seed);
  EXPECT_NE(jobs[8].instance.hash(), jobs[10].instance.hash());
  // A count=4 blob graph extends the count=2 one: shared Rng, nested
  // noise (edge ids renumber -- the builder normalizes -- but every
  // count=2 edge is present in the count=4 graph).
  const Graph two = build_instance(jobs[8].instance);
  const Graph four = build_instance(jobs[10].instance);
  EXPECT_EQ(four.num_nodes(), two.num_nodes() + 2 * 6);
  EXPECT_EQ(four.num_edges(), two.num_edges() + 2 * 10);
  for (EdgeId e = 0; e < two.num_edges(); ++e) {
    EXPECT_TRUE(four.has_edge(two.endpoints(e).u, two.endpoints(e).v));
  }

  // Same manifest => bit-identical job list (the reproducibility contract).
  const std::vector<Job> again = expand_manifest(m);
  ASSERT_EQ(again.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(again[j].cell_key(), jobs[j].cell_key());
    EXPECT_EQ(again[j].instance.seed, jobs[j].instance.seed);
    EXPECT_EQ(again[j].tester_seed, jobs[j].tester_seed);
    EXPECT_EQ(again[j].instance.hash(), jobs[j].instance.hash());
  }
}

TEST(Manifest, RejectsUnknownAndMisspelledKeys) {
  Manifest m;
  std::string err;
  // Top-level typo.
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"base_sead": 3, "cells": [{"scenario": "grid"}]})", &m, &err));
  EXPECT_NE(err.find("base_sead"), std::string::npos) << err;
  // defaults typo.
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"defaults": {"trails": 2}, "cells": [{"scenario": "grid"}]})", &m,
      &err));
  EXPECT_NE(err.find("trails"), std::string::npos) << err;
  // Cell-level typo.
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "epsilom": 0.2}]})", &m, &err));
  EXPECT_NE(err.find("epsilom"), std::string::npos) << err;
  // Family param typo (would silently sweep the default otherwise).
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "params": {"rows": 8, "colz": 8}}]})",
      &m, &err));
  EXPECT_NE(err.find("colz"), std::string::npos) << err;
  EXPECT_NE(err.find("rows,cols"), std::string::npos) << err;
  // Param from a different family.
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "apollonian", "params": {"rows": 8}}]})", &m,
      &err));
  EXPECT_NE(err.find("rows"), std::string::npos) << err;
  // Perturbation param typo.
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid",
                     "perturb": {"kind": "plus_random_edges", "extras": 9}}]})",
      &m, &err));
  EXPECT_NE(err.find("extras"), std::string::npos) << err;
  // Preset params validate against the preset's own keys.
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "road_network", "params": {"flyover": 9}}]})",
      &m, &err));
  EXPECT_NE(err.find("flyover"), std::string::npos) << err;
  // The full accepted key set still parses.
  err.clear();
  EXPECT_TRUE(parse_manifest(
      R"({"name": "ok", "base_seed": 2,
          "defaults": {"epsilon": 0.2, "tester": "planarity", "instances": 1,
                       "trials": 1, "adaptive": false,
                       "randomized": false, "pipelined": true, "delta": 0.1,
                       "alpha": 3},
          "cells": [{"scenario": "grid", "params": {"rows": 6, "cols": 6}}]})",
      &m, &err))
      << err;
}

TEST(Manifest, MalformedJsonReportsErrorsNotCrashes) {
  Manifest m;
  std::string err;
  // Truncated document.
  err.clear();
  EXPECT_FALSE(parse_manifest(R"({"name": "x", "cells": [)", &m, &err));
  EXPECT_FALSE(err.empty());
  // Truncated mid-string.
  err.clear();
  EXPECT_FALSE(parse_manifest(R"({"name": "unterminat)", &m, &err));
  EXPECT_FALSE(err.empty());
  // Wrong types: cells as object, epsilon as string, trials fractional,
  // negative base_seed, sim_threads out of range.
  err.clear();
  EXPECT_FALSE(parse_manifest(R"({"cells": {"scenario": "grid"}})", &m, &err));
  EXPECT_NE(err.find("cells"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "epsilon": "big"}]})", &m, &err));
  EXPECT_NE(err.find("epsilon"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "trials": 2.5}]})", &m, &err));
  EXPECT_NE(err.find("trials"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(parse_manifest(R"({"base_seed": -4, "cells": [{"scenario":
      "grid"}]})", &m, &err));
  EXPECT_NE(err.find("base_seed"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "sim_threads": 99}]})", &m, &err));
  EXPECT_NE(err.find("sim_threads"), std::string::npos) << err;
}

TEST(Manifest, RejectsEpsilonOutsideTheOpenUnitInterval) {
  // Every tester requires 0 < epsilon < 1, so anything else fails the
  // manifest rather than a partition contract mid-run.
  Manifest m;
  for (const char* eps : {"0", "-0.5", "1.5", "1", "[0.1, 0]"}) {
    std::string err;
    const std::string text =
        std::string(R"({"cells": [{"scenario": "grid", "epsilon": )") + eps +
        "}]}";
    EXPECT_FALSE(parse_manifest(text, &m, &err)) << eps;
    EXPECT_NE(err.find("epsilon"), std::string::npos) << err;
  }
  std::string err;
  EXPECT_TRUE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "epsilon": [0.001, 0.999]}]})", &m,
      &err))
      << err;
}

TEST(Manifest, RejectsDeltaOutsideTheOpenUnitInterval) {
  // random_partition takes log(1/delta) trials per phase: delta <= 0 makes
  // that infinite or NaN, and a large delta made it a huge count whose
  // per-trial state exhausted memory.
  Manifest m;
  for (const char* delta : {"0", "-0.5", "1", "1e300", "\"x\""}) {
    std::string err;
    const std::string text =
        std::string(R"({"cells": [{"scenario": "grid", "delta": )") + delta +
        "}]}";
    EXPECT_FALSE(parse_manifest(text, &m, &err)) << delta;
    EXPECT_NE(err.find("delta"), std::string::npos) << err;
  }
  // The shipped e6/e7 values.
  for (const char* delta : {"0.01", "0.1", "0.25", "0.5"}) {
    std::string err;
    EXPECT_TRUE(parse_manifest(
        std::string(R"({"cells": [{"scenario": "grid", "delta": )") + delta +
            "}]}",
        &m, &err))
        << delta << ": " << err;
  }
}

TEST(Manifest, RejectsMoreJobsThanTheCap) {
  Manifest m;
  std::string err;
  // 2^20 instances x 2^20 trials: each factor is in range, the product is
  // 2^40 jobs.
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "instances": 1048576,
                     "trials": 1048576}]})",
      &m, &err));
  EXPECT_NE(err.find("1099511627776 jobs"), std::string::npos) << err;
  // Axis values, epsilons, testers and cells multiply and add in: 2^12
  // instances x 2^11 trials x 2 epsilons is exactly the cap, and one more
  // cell is one job too many. Neither manifest is expanded.
  const std::string at_cap =
      R"({"name": "cap", "defaults": {"instances": 4096, "trials": 2048,
          "epsilon": [0.1, 0.2]},
          "cells": [{"scenario": "grid")";
  ASSERT_EQ(std::uint64_t{4096} * 2048 * 2, kMaxManifestJobs);
  EXPECT_TRUE(parse_manifest(at_cap + "}]}", &m, &err)) << err;
  EXPECT_FALSE(parse_manifest(
      at_cap + R"(}, {"scenario": "grid", "instances": 1, "trials": 1,
                      "epsilon": 0.1}]})",
      &m, &err));
  EXPECT_NE(err.find("16777217 jobs"), std::string::npos) << err;
  // 2^20 x 2^20 x 2^12 x 2^12 is 2^64, which wraps to 0 in u64
  // arithmetic: the count saturates instead.
  std::string axis;
  for (int v = 1; v <= 4096; ++v) {
    if (v > 1) axis += ',';
    axis += std::to_string(v);
  }
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "instances": 1048576,
                     "trials": 1048576, "params": {"rows": [)" +
          axis + R"(], "cols": [)" + axis + "]}}]}",
      &m, &err));
  EXPECT_NE(err.find("jobs"), std::string::npos) << err;
}

TEST(Manifest, RejectsUnknownNamesAndBadFields) {
  Manifest m;
  std::string err;
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "not_a_family"}]})", &m, &err));
  EXPECT_NE(err.find("unknown scenario"), std::string::npos);
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "tester": "nope"}]})", &m, &err));
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "perturb": {"kind": "nope"}}]})", &m,
      &err));
  EXPECT_FALSE(parse_manifest(R"({"cells": []})", &m, &err));
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "grid", "params": {"rows": []}}]})", &m,
      &err));
  // Presets fix their own perturbation.
  EXPECT_FALSE(parse_manifest(
      R"({"cells": [{"scenario": "road_network",
                     "perturb": {"kind": "k5_blobs"}}]})",
      &m, &err));
}

// ---- Corpus ---------------------------------------------------------------

TEST(Corpus, RoundTripsGraphsBitForBit) {
  const std::string dir = testing::TempDir() + "cpt_corpus_rt";
  const CorpusStore store(dir);
  ScenarioParams params;
  params.set_int("n", 90);
  const ScenarioInstance inst = resolve_scenario("random_planar", params, 9, 1);
  const Graph g = build_instance(inst);
  ASSERT_TRUE(store.save(inst.hash(), g));
  Graph loaded;
  ASSERT_EQ(store.load(inst.hash(), &loaded), CorpusStore::LoadStatus::kHit);
  ASSERT_EQ(loaded.num_nodes(), g.num_nodes());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded.endpoints(e).u, g.endpoints(e).u);
    EXPECT_EQ(loaded.endpoints(e).v, g.endpoints(e).v);
  }
  Graph missing;
  EXPECT_EQ(store.load(inst.hash() + 1, &missing),
            CorpusStore::LoadStatus::kMiss);
}

TEST(Corpus, BatchHitMissCountsAreDeterministic) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(kSmallManifest, &m, &err)) << err;
  // A fresh directory per run: the first batch must see an empty cache.
  std::string dir_template = testing::TempDir() + "cpt_corpus_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);

  BatchOptions opt;
  opt.threads = 2;
  opt.corpus_dir = dir_template;
  const BatchResult first = run_batch(m, opt);
  // 2 grid instances + 4 perturbed cycle instances (2 counts x 2 indices).
  EXPECT_EQ(first.corpus.unique_instances, 6u);
  EXPECT_EQ(first.corpus.generated, 6u);
  EXPECT_EQ(first.corpus.disk_hits, 0u);

  const BatchResult second = run_batch(m, opt);
  EXPECT_EQ(second.corpus.unique_instances, 6u);
  EXPECT_EQ(second.corpus.generated, 0u);
  EXPECT_EQ(second.corpus.disk_hits, 6u);

  // Cached and regenerated instances are interchangeable: identical
  // aggregates.
  const auto cells1 = aggregate_cells(first);
  const auto cells2 = aggregate_cells(second);
  EXPECT_EQ(render_aggregate_json(m, first, cells1),
            render_aggregate_json(m, second, cells2));
}

// Flips one byte at `offset` in an existing file.
void garble_file(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

TEST(Corpus, DetectsCorruptFilesAndRecovers) {
  std::string dir_template = testing::TempDir() + "cpt_corrupt_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const CorpusStore store(dir_template);
  ScenarioParams params;
  params.set_int("n", 80);
  const ScenarioInstance inst = resolve_scenario("random_planar", params, 4, 0);
  const Graph g = build_instance(inst);
  ASSERT_TRUE(store.save(inst.hash(), g));
  const std::string path = store.path_for(inst.hash());

  Graph out;
  // Truncated: keep only the first 10 bytes.
  {
    std::string bytes;
    ASSERT_TRUE(read_text_file(path, &bytes));
    ASSERT_TRUE(write_text_file(path, bytes.substr(0, 10)));
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
    ASSERT_TRUE(store.save(inst.hash(), g));
  }
  // Garbled edge-count byte (v3 header m field at [16, 24)): the header
  // checksum catches it before any size math runs.
  garble_file(path, 16 + 2);
  EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
  ASSERT_TRUE(store.save(inst.hash(), g));
  // Garbled node-count byte (v3 header n field at [8, 16)): same.
  garble_file(path, 8 + 3);
  EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
  ASSERT_TRUE(store.save(inst.hash(), g));
  // Trailing junk.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc('x', f);
    std::fclose(f);
    EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kCorrupt);
    ASSERT_TRUE(store.save(inst.hash(), g));
  }
  // Pristine again after the re-saves.
  EXPECT_EQ(store.load(inst.hash(), &out), CorpusStore::LoadStatus::kHit);
}

TEST(Corpus, EngineRegeneratesCorruptEntriesBitIdentically) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(kSmallManifest, &m, &err)) << err;
  std::string dir_template = testing::TempDir() + "cpt_regen_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);

  BatchOptions opt;
  opt.threads = 2;
  opt.corpus_dir = dir_template;
  const BatchResult clean = run_batch(m, opt);
  ASSERT_EQ(clean.corpus.generated, 6u);
  EXPECT_EQ(clean.corpus.corrupt_files, 0u);

  // Damage one cached instance: the next run must warn, regenerate and
  // produce the identical aggregate -- and leave a repaired file behind.
  const CorpusStore store(dir_template);
  const std::uint64_t victim = clean.jobs[0].instance.hash();
  const std::string path = store.path_for(victim);
  garble_file(path, 16 + 5);

  const BatchResult recovered = run_batch(m, opt);
  EXPECT_EQ(recovered.corpus.disk_hits, 5u);
  EXPECT_EQ(recovered.corpus.generated, 1u);
  EXPECT_EQ(recovered.corpus.corrupt_files, 1u);
  EXPECT_EQ(render_aggregate_json(m, clean, aggregate_cells(clean)),
            render_aggregate_json(m, recovered, aggregate_cells(recovered)));
  Graph repaired;
  EXPECT_EQ(store.load(victim, &repaired), CorpusStore::LoadStatus::kHit);
}

// ---- Engine ---------------------------------------------------------------

TEST(Engine, MatchesDirectTesterCalls) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(kSmallManifest, &m, &err)) << err;
  const std::vector<Job> jobs = expand_manifest(m);
  // Planarity job == direct test_planarity with the same options.
  const Job& pj = jobs[0];
  const Graph pg = build_instance(pj.instance);
  const JobResult via_engine = run_job(pj, pg);
  TesterOptions topt;
  topt.epsilon = pj.epsilon;
  topt.seed = pj.tester_seed;
  topt.stage1.adaptive = pj.adaptive;
  const TesterResult direct = test_planarity(pg, topt);
  EXPECT_EQ(via_engine.verdict, direct.verdict);
  EXPECT_EQ(via_engine.rounds, direct.ledger.total_rounds());
  EXPECT_EQ(via_engine.messages, direct.ledger.total_messages());

  // Cycle-freeness job == direct test_cycle_freeness.
  const Job& cj = jobs[2];
  ASSERT_EQ(cj.tester, TesterKind::kCycleFree);
  const Graph cg = build_instance(cj.instance);
  const JobResult ce = run_job(cj, cg);
  MinorFreeOptions mopt;
  mopt.epsilon = cj.epsilon;
  mopt.alpha = cj.alpha;
  mopt.randomized = cj.randomized;
  mopt.delta = cj.delta;
  mopt.seed = cj.tester_seed;
  mopt.adaptive_phases = cj.adaptive;
  const AppResult cd = test_cycle_freeness(cg, mopt);
  EXPECT_EQ(ce.verdict, cd.verdict);
  EXPECT_EQ(ce.rounds, cd.ledger.total_rounds());
  EXPECT_EQ(ce.messages, cd.ledger.total_messages());
}

// The E4/E6 migration contract: a "stage1_partition" / "random_partition"
// job reports exactly what a direct run_stage1 / run_random_partition call
// (same options, same seed) measures.
TEST(Engine, MatchesDirectPartitionCalls) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(
      R"({"name": "parts", "base_seed": 6,
          "cells": [
            {"scenario": "triangulated_grid", "params": {"rows": 12, "cols": 12},
             "epsilon": 0.3, "tester": ["stage1_partition", "random_partition"],
             "delta": 0.25}
          ]})",
      &m, &err))
      << err;
  const std::vector<Job> jobs = expand_manifest(m);
  ASSERT_EQ(jobs.size(), 2u);
  ASSERT_EQ(jobs[0].tester, TesterKind::kStage1Partition);
  ASSERT_EQ(jobs[1].tester, TesterKind::kRandomPartition);
  const Graph g = build_instance(jobs[0].instance);

  {
    const JobResult via_engine = run_job(jobs[0], g);
    congest::Network net(g);
    congest::Simulator sim(net);
    congest::RoundLedger ledger;
    Stage1Options opt;
    opt.epsilon = jobs[0].epsilon;
    const Stage1Result direct = run_stage1(sim, g, opt, ledger);
    EXPECT_EQ(via_engine.rounds, ledger.total_rounds());
    EXPECT_EQ(via_engine.messages, ledger.total_messages());
    EXPECT_EQ(via_engine.stage1_phases, direct.phases_emulated);
    EXPECT_EQ(via_engine.stage1_phases_total, direct.phases_total);
    ASSERT_EQ(via_engine.phase_stats.size(), direct.phase_stats.size());
    for (std::size_t i = 0; i < direct.phase_stats.size(); ++i) {
      EXPECT_EQ(via_engine.phase_stats[i].cut_after,
                direct.phase_stats[i].cut_after);
      EXPECT_EQ(via_engine.phase_stats[i].rounds, direct.phase_stats[i].rounds);
    }
    const PartitionStats stats = measure_partition(g, direct.forest);
    EXPECT_EQ(via_engine.num_parts, stats.num_parts);
    EXPECT_EQ(via_engine.cut_edges, stats.cut_edges);
    EXPECT_EQ(via_engine.max_part_ecc, stats.max_part_ecc);
    EXPECT_EQ(via_engine.max_tree_depth, stats.max_tree_depth);
  }
  {
    const JobResult via_engine = run_job(jobs[1], g);
    congest::Network net(g);
    congest::Simulator sim(net);
    congest::RoundLedger ledger;
    RandomPartitionOptions opt;
    opt.epsilon = jobs[1].epsilon;
    opt.delta = jobs[1].delta;
    opt.seed = jobs[1].tester_seed;
    const RandomPartitionResult direct =
        run_random_partition(sim, g, opt, ledger);
    EXPECT_EQ(via_engine.rounds, ledger.total_rounds());
    EXPECT_EQ(via_engine.messages, ledger.total_messages());
    EXPECT_EQ(via_engine.trials_per_phase, direct.trials_per_phase);
    const PartitionStats stats = measure_partition(g, direct.forest);
    EXPECT_EQ(via_engine.num_parts, stats.num_parts);
    EXPECT_EQ(via_engine.cut_edges, stats.cut_edges);
  }
}

// ---- Stage I sharing --------------------------------------------------------
//
// The engine simulates Stage I once per claim unit and replays it into the
// unit's other jobs. These tests pin that replay changes nothing: every
// JobResult field, every pass span, and round budgets that trip on either
// side of Stage I all match run_job calls that share nothing.

// Every tester kind, with trials > 1. Cells 0-5 reuse one graph, and each
// of cells 1-4 differs from the cell before it in exactly one share-key
// field (adaptive, pipelined, alpha, round budget; cell 0 spans two
// epsilons), so a key missing a field would merge two units and replay the
// wrong Stage I. Cell 0's four testers share one Stage I per epsilon;
// random_partition and the randomized testers share none. Cell 4's budget
// trips inside Stage I.
constexpr const char* kSharingManifest = R"({
  "name": "sharing",
  "base_seed": 5,
  "defaults": {"trials": 3, "epsilon": 0.3},
  "cells": [
    {"scenario": "grid", "params": {"rows": 8, "cols": 8},
     "epsilon": [0.2, 0.3],
     "tester": ["planarity", "cycle_free", "bipartite", "stage1_partition"]},
    {"scenario": "grid", "params": {"rows": 8, "cols": 8},
     "adaptive": true},
    {"scenario": "grid", "params": {"rows": 8, "cols": 8},
     "adaptive": true, "pipelined": false},
    {"scenario": "grid", "params": {"rows": 8, "cols": 8},
     "adaptive": true, "pipelined": false, "tester": "cycle_free",
     "alpha": 2},
    {"scenario": "grid", "params": {"rows": 8, "cols": 8},
     "adaptive": true, "pipelined": false, "tester": "cycle_free",
     "alpha": 2, "max_rounds": 300},
    {"scenario": "grid", "params": {"rows": 8, "cols": 8},
     "tester": ["random_partition", "cycle_free", "bipartite"],
     "randomized": true},
    {"scenario": "random_planar", "params": {"n": 80, "m": 150},
     "pipelined": false},
    {"scenario": "k5_blobs", "params": {"backbone_n": 60, "blobs": 6},
     "instances": 2}
  ]
})";
// Followers per cell above: 2 * 11 + 2 + 2 + 2 + 2 + 0 + 2 + 2 * 2.
constexpr std::uint32_t kSharingFollowers = 36;

void expect_same_result(const JobResult& got, const JobResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.verdict, want.verdict) << where;
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.messages, want.messages) << where;
  EXPECT_EQ(got.n, want.n) << where;
  EXPECT_EQ(got.m, want.m) << where;
  EXPECT_EQ(got.num_parts, want.num_parts) << where;
  EXPECT_EQ(got.cut_edges, want.cut_edges) << where;
  EXPECT_EQ(got.max_part_ecc, want.max_part_ecc) << where;
  EXPECT_EQ(got.max_tree_depth, want.max_tree_depth) << where;
  EXPECT_EQ(got.stage1_phases, want.stage1_phases) << where;
  EXPECT_EQ(got.stage1_phases_total, want.stage1_phases_total) << where;
  EXPECT_EQ(got.trials_per_phase, want.trials_per_phase) << where;
  EXPECT_EQ(got.failed, want.failed) << where;
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.timed_out, want.timed_out) << where;
  ASSERT_EQ(got.phase_stats.size(), want.phase_stats.size()) << where;
  for (std::size_t i = 0; i < want.phase_stats.size(); ++i) {
    const PhaseStats& a = got.phase_stats[i];
    const PhaseStats& b = want.phase_stats[i];
    EXPECT_EQ(a.cut_before, b.cut_before) << where << " phase " << i;
    EXPECT_EQ(a.cut_after, b.cut_after) << where << " phase " << i;
    EXPECT_EQ(a.parts_before, b.parts_before) << where << " phase " << i;
    EXPECT_EQ(a.parts_after, b.parts_after) << where << " phase " << i;
    EXPECT_EQ(a.cv_iterations, b.cv_iterations) << where << " phase " << i;
    EXPECT_EQ(a.marked_tree_height, b.marked_tree_height)
        << where << " phase " << i;
    EXPECT_EQ(a.rounds, b.rounds) << where << " phase " << i;
  }
}

Manifest parse_or_die(const std::string& text) {
  Manifest m;
  std::string err;
  EXPECT_TRUE(parse_manifest(text, &m, &err)) << err;
  return m;
}

// What each job returns from a run_job call that shares nothing.
std::vector<JobResult> direct_results(const std::vector<Job>& jobs) {
  std::unordered_map<std::uint64_t, Graph> graphs;
  std::vector<JobResult> out;
  for (const Job& job : jobs) {
    auto it = graphs.find(job.instance.hash());
    if (it == graphs.end()) {
      it = graphs.emplace(job.instance.hash(), build_instance(job.instance))
               .first;
    }
    out.push_back(run_job(job, it->second));
  }
  return out;
}

// Runs the manifest at --threads 1 and 4 and checks every result against
// `want`; returns the replay count, which must not depend on the thread
// count. `prepare` (optional) adjusts the options before every run.
std::uint32_t expect_batches_match(
    const Manifest& m, const std::vector<JobResult>& want,
    const std::function<void(BatchOptions*)>& prepare = {}) {
  std::uint32_t replayed = 0;
  BatchOptions opt;
  for (const unsigned threads : {1u, 4u}) {
    opt.threads = threads;
    const std::string at = " at --threads=" + std::to_string(threads);
    if (prepare) prepare(&opt);
    const BatchResult batch = run_batch(m, opt);
    EXPECT_EQ(batch.results.size(), want.size());
    for (std::size_t j = 0; j < batch.results.size() && j < want.size(); ++j) {
      expect_same_result(batch.results[j], want[j],
                         "job " + std::to_string(j) + at);
    }
    if (threads == 1) replayed = batch.stage1_replayed_jobs;
    EXPECT_EQ(batch.stage1_replayed_jobs, replayed) << at;
  }
  return replayed;
}

TEST(StageISharing, ReplayedJobsMatchDirectRunJob) {
  const Manifest m = parse_or_die(kSharingManifest);
  const std::vector<Job> jobs = expand_manifest(m);
  const std::vector<JobResult> want = direct_results(jobs);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(want[j].timed_out, jobs[j].max_rounds != 0) << "job " << j;
    EXPECT_FALSE(want[j].failed) << "job " << j << ": " << want[j].error;
  }
  EXPECT_EQ(expect_batches_match(m, want), kSharingFollowers);
}

// Budgets just past and well inside Stage I's simulated rounds: the first
// trips in Stage II (after a replayed Stage I charged its rounds), the
// second inside Stage I (whose replay rethrows the recorded violation).
TEST(StageISharing, RoundBudgetsTripAtTheSameRound) {
  const Graph g = gen::grid(8, 8);
  congest::Network net(g);
  congest::Simulator sim(net);
  congest::RoundLedger ledger;
  Stage1Options s1;
  s1.epsilon = 0.2;
  ASSERT_FALSE(run_stage1(sim, g, s1, ledger).rejected);
  const std::uint64_t stage1_rounds = sim.total_rounds();
  ASSERT_GT(stage1_rounds, 2u);
  for (const std::uint64_t budget : {stage1_rounds + 1, stage1_rounds / 2}) {
    const Manifest m = parse_or_die(
        R"({"name": "budget", "base_seed": 3,
            "defaults": {"trials": 3, "epsilon": 0.2, "max_rounds": )" +
        std::to_string(budget) + R"(},
            "cells": [{"scenario": "grid", "params": {"rows": 8, "cols": 8},
                       "tester": ["planarity", "cycle_free",
                                  "stage1_partition"]}]})");
    const std::vector<Job> jobs = expand_manifest(m);
    const std::vector<JobResult> want = direct_results(jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      // stage1_partition ends with Stage I: only the inner budget trips it.
      const bool trips = budget < stage1_rounds ||
                         jobs[j].tester != TesterKind::kStage1Partition;
      EXPECT_EQ(want[j].timed_out, trips) << "budget " << budget << " job " << j;
    }
    EXPECT_EQ(expect_batches_match(m, want), jobs.size() - 1)
        << "budget " << budget;
  }
}

// A trial the result cache serves neither simulates nor leads: the unit's
// first unserved trial computes Stage I and the rest replay it.
TEST(StageISharing, ServedTrialsHandTheLeadToTheNextTrial) {
  const Manifest m = parse_or_die(
      R"({"name": "served", "base_seed": 9,
          "defaults": {"trials": 3, "epsilon": 0.2},
          "cells": [{"scenario": "apollonian", "params": {"n": 90}}]})");
  const std::vector<Job> jobs = expand_manifest(m);
  const std::vector<JobResult> want = direct_results(jobs);

  // Every run gets a fresh cache holding just the served trials, since
  // each run stores what it executes.
  std::vector<std::unique_ptr<ResultCache>> caches;
  const auto cached = [&](std::vector<std::uint32_t> served) {
    return [&, served](BatchOptions* o) {
      std::string dir = testing::TempDir() + "cpt_share_XXXXXX";
      ASSERT_NE(mkdtemp(dir.data()), nullptr);
      caches.push_back(std::make_unique<ResultCache>(dir));
      for (const std::uint32_t j : served) {
        ASSERT_TRUE(caches.back()->store(jobs[j], want[j]));
      }
      o->result_cache = caches.back().get();
    };
  };
  // A cached first or middle trial: one of the two others replays.
  EXPECT_EQ(expect_batches_match(m, want, cached({0})), 1u);
  EXPECT_EQ(expect_batches_match(m, want, cached({1})), 1u);
  // Two cached trials leave one job: nothing to share.
  EXPECT_EQ(expect_batches_match(m, want, cached({0, 2})), 0u);
}

// Replay appends the recorded passes through the job's ledger, so a
// replayed job's trace carries the same pass spans -- names, rounds,
// messages, in order -- as a job that simulated Stage I.
TEST(StageISharing, ReplayedJobsEmitTheSamePassSpans) {
  const Manifest m = parse_or_die(kSharingManifest);
  util::TraceSession session;
  BatchOptions opt;
  opt.threads = 4;
  opt.trace = &session;
  const BatchResult batch = run_batch(m, opt);
  ASSERT_EQ(batch.stage1_replayed_jobs, kSharingFollowers);
  const auto spans = [](const util::TraceBuffer& track) {
    std::vector<std::string> out;
    for (const util::TraceEvent& e : track.events()) {
      if (e.kind != util::TraceEvent::kSpan) continue;
      std::string line = std::to_string(e.depth) + " " + e.name;
      for (const auto& [key, value] : e.args.entries()) {
        line += " " + key + "=" + value;
      }
      out.push_back(std::move(line));
    }
    return out;
  };
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    const Job& job = batch.jobs[j];
    const std::vector<std::string> got = spans(*session.make_track(
        1 + batch.corpus.unique_instances + j, ""));
    util::TraceSession direct;
    util::TraceBuffer* track = direct.make_track(0, "direct");
    run_job(job, build_instance(job.instance), nullptr, track);
    const std::vector<std::string> want = spans(*track);
    EXPECT_GT(want.size(), 1u) << "job " << j;
    EXPECT_EQ(got, want) << "job " << j;
  }
}

TEST(Engine, FailedJobsAreReportedNotSilentlyAggregated) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(
      R"({"name": "partial", "base_seed": 1, "defaults": {"trials": 2},
          "cells": [
            {"scenario": "grid", "params": {"rows": 6, "cols": 6}},
            {"scenario": "file",
             "params": {"path": "/nonexistent/cpt_no_such_file.el"}}
          ]})",
      &m, &err))
      << err;
  BatchOptions opt;
  opt.threads = 2;
  const BatchResult batch = run_batch(m, opt);
  ASSERT_EQ(batch.jobs.size(), 4u);
  EXPECT_EQ(batch.failed_jobs, 2u);
  // The file instance failed to materialize: it was not generated.
  EXPECT_EQ(batch.corpus.generated, 1u);
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    if (batch.jobs[j].instance.family == "file") {
      EXPECT_TRUE(batch.results[j].failed);
      EXPECT_NE(batch.results[j].error.find("cannot open"), std::string::npos)
          << batch.results[j].error;
    } else {
      EXPECT_FALSE(batch.results[j].failed);
    }
  }
  // Failed jobs contribute to no cell, and the aggregate says so.
  const std::vector<CellAggregate> cells = aggregate_cells(batch);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].jobs, 2u);
  const std::string json = render_aggregate_json(m, batch, cells);
  EXPECT_NE(json.find("\"failed_jobs\": 2"), std::string::npos) << json;
}

TEST(Engine, MalformedFileScenarioFailsTheJobNotTheProcess) {
  // A file that exists but is not an edge list must become a per-job
  // failure (and a nonzero cpt_batch exit), never a contract abort or a
  // silently empty graph.
  const std::string path = testing::TempDir() + "cpt_garbled.el";
  ASSERT_TRUE(write_text_file(path, "this is not an edge list\n"));
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(
      R"({"name": "garbled", "cells": [{"scenario": "file",
          "params": {"path": ")" +
          path + R"("}}]})",
      &m, &err))
      << err;
  const BatchResult batch = run_batch(m, BatchOptions{});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.failed_jobs, 1u);
  EXPECT_TRUE(batch.results[0].failed);
  EXPECT_NE(batch.results[0].error.find("bad header"), std::string::npos)
      << batch.results[0].error;
  EXPECT_TRUE(aggregate_cells(batch).empty());

  // Rows that parse but violate graph preconditions (out-of-range
  // endpoint, self-loop) are job failures too, not GraphBuilder aborts.
  const std::string oob = testing::TempDir() + "cpt_oob.el";
  ASSERT_TRUE(write_text_file(oob, "2 1\n0 5\n"));
  Manifest m2;
  ASSERT_TRUE(parse_manifest(
      R"({"name": "oob", "cells": [{"scenario": "file",
          "params": {"path": ")" +
          oob + R"("}}]})",
      &m2, &err))
      << err;
  const BatchResult oob_batch = run_batch(m2, BatchOptions{});
  ASSERT_EQ(oob_batch.failed_jobs, 1u);
  EXPECT_NE(oob_batch.results[0].error.find("out of range"),
            std::string::npos)
      << oob_batch.results[0].error;
}

TEST(Engine, AggregateJsonIsThreadCountInvariant) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(kSmallManifest, &m, &err)) << err;
  BatchOptions serial;
  serial.threads = 1;
  BatchOptions parallel;
  parallel.threads = 4;
  const BatchResult a = run_batch(m, serial);
  const BatchResult b = run_batch(m, parallel);
  EXPECT_EQ(b.threads_used, 4u);
  // Per-job seeds are a function of the expansion alone: the batch thread
  // count must never reach into the seed chain.
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].instance.seed, b.jobs[j].instance.seed);
    EXPECT_EQ(a.jobs[j].tester_seed, b.jobs[j].tester_seed);
  }
  const std::string ja = render_aggregate_json(m, a, aggregate_cells(a));
  const std::string jb = render_aggregate_json(m, b, aggregate_cells(b));
  EXPECT_EQ(ja, jb);
  EXPECT_EQ(render_aggregate_csv(aggregate_cells(a)),
            render_aggregate_csv(aggregate_cells(b)));
}

// A cell key that recurs later in the expansion joins its first cell: jobs
// add up, instances count distinct graphs, and cells keep first-seen
// order. A failed job joins no cell.
TEST(Aggregate, RecurringCellKeysJoinTheirFirstCell) {
  const Manifest m = parse_or_die(R"({"name": "recur", "base_seed": 3,
      "defaults": {"epsilon": 0.2, "tester": "cycle_free"},
      "cells": [
        {"scenario": "grid", "params": {"rows": 4, "cols": 4},
         "instances": 2, "trials": 2},
        {"scenario": "file", "params": {"path": "/nonexistent/g.el"}},
        {"scenario": "cycle", "params": {"n": 8}},
        {"scenario": "grid", "params": {"rows": 4, "cols": 4},
         "instances": 3}]})");
  const BatchResult batch = run_batch(m, BatchOptions{});
  EXPECT_EQ(batch.failed_jobs, 1u);
  const std::vector<CellAggregate> cells = aggregate_cells(batch);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].scenario.rfind("grid(", 0), 0u) << cells[0].scenario;
  EXPECT_EQ(cells[0].jobs, 7u);
  EXPECT_EQ(cells[0].instances, 3u);
  EXPECT_EQ(cells[1].scenario.rfind("cycle(", 0), 0u) << cells[1].scenario;
  EXPECT_EQ(cells[1].jobs, 1u);
  EXPECT_EQ(cells[1].instances, 1u);
}

TEST(Aggregate, QuantilesAreNearestRank) {
  const QuantileSummary q = summarize({5, 1, 3, 2, 4});
  EXPECT_EQ(q.min, 1u);
  EXPECT_EQ(q.p25, 2u);
  EXPECT_EQ(q.p50, 3u);
  EXPECT_EQ(q.p75, 4u);
  EXPECT_EQ(q.max, 5u);
  const QuantileSummary single = summarize({42});
  EXPECT_EQ(single.min, 42u);
  EXPECT_EQ(single.p50, 42u);
  EXPECT_EQ(single.max, 42u);
}

}  // namespace
}  // namespace cpt::scenario
