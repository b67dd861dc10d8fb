// Deterministic fault injection for the batch stack's recovery paths.
//
// A FaultPlan is parsed from a small spec string (cpt_batch --fault-plan,
// or the CPT_FAULT_PLAN environment variable) and installed globally;
// instrumented sites in the corpus store, the registry's file loader, the
// engine's materialization/execution loops and cpt_batch's stream writer
// then ask the plan whether to fail. With no plan installed every check is
// a single relaxed atomic load returning kNone -- production runs pay
// nothing.
//
// Determinism contract: every site is keyed by a schedule-independent
// 64-bit key (job index for run_job, instance hash for corpus and
// materialization, FNV of the path for edge-list reads, the emit ordinal
// for the in-order stream writer) -- never by a global hit
// counter -- so the same plan fires on the same work items at every
// --threads value. `rate` rules derive their coin from splitmix64 over
// (plan seed, rule index, site, key): reproducible pseudo-random sweeps.
//
// Spec grammar (comma-separated rules):
//
//   plan   := rule (',' rule)*
//   rule   := 'seed=' S
//           | action '@' site (':' cond)*
//   action := throw | badalloc | corrupt | shortwrite | exit
//   site   := corpus_load | corpus_save | edge_list | materialize
//           | run_job | stream_write
//   cond   := 'key='   K   -- fire only for site key K
//           | 'every=' N   -- fire when key % N == 0
//           | 'rate='  R   -- fire with probability R (seeded, per key)
//           | 'times=' T   -- fire at most T times per key (default 1)
//
// The default times=1 makes `throw` faults transient by construction: the
// first attempt on a key fails, the engine's retry succeeds. times=<big>
// turns the same rule into a deterministic (never-recovering) failure.
//
// Action semantics:
//   throw      -- std::runtime_error("injected transient fault ...");
//                 classified transient by the engine and retried
//   badalloc   -- std::bad_alloc (the real-world transient: memory spike)
//   corrupt    -- returned to the caller: corpus_load treats the file as
//                 damaged, edge_list as malformed (deterministic failure)
//   shortwrite -- returned to the caller: writers simulate a failed or
//                 half-completed write (corpus_save leaves its .tmp file
//                 behind, exercising the orphan sweep)
//   exit       -- hard ::_exit(kFaultExitCode) at the site, after the
//                 stream writer tears its in-progress chunk -- the
//                 kill-anywhere resume tests
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cpt::scenario {

enum class FaultSite {
  kCorpusLoad,
  kCorpusSave,
  kEdgeListRead,
  kMaterialize,
  kRunJob,
  kStreamWrite,
};
const char* fault_site_name(FaultSite site);

enum class FaultAction {
  kNone,
  kThrow,
  kBadAlloc,
  kCorrupt,
  kShortWrite,
  kExit,
};

// The status `exit` actions die with (chosen to mimic SIGKILL's 128+9 so
// harnesses treat it as a hard kill, distinct from the resumable 75).
inline constexpr int kFaultExitCode = 137;

class FaultPlan {
 public:
  // Parses the grammar above; false + *error on a malformed spec.
  static bool parse(std::string_view spec, FaultPlan* out, std::string* error);

  // Consumes one occurrence at (site, key) and returns the action of the
  // first matching rule with budget left (kNone otherwise). Thread-safe.
  // Never raises -- callers that want the raising behavior use
  // fault_raise / fault_point below.
  FaultAction check(FaultSite site, std::uint64_t key);

  bool empty() const { return rules_.empty(); }
  std::uint64_t seed() const { return seed_; }

 private:
  struct Rule {
    FaultAction action = FaultAction::kNone;
    FaultSite site = FaultSite::kRunJob;
    bool has_key = false;
    std::uint64_t key = 0;
    std::uint64_t every = 0;   // 0 = no modulus condition
    double rate = -1;          // < 0 = no rate condition
    std::uint32_t times = 1;   // per-key firing budget
    std::map<std::uint64_t, std::uint32_t> fired;  // key -> times fired
  };

  std::uint64_t seed_ = 1;
  std::vector<Rule> rules_;
  std::mutex mu_;
};

// Installs (or, with nullptr, removes) the process-global plan consulted
// by fault_check/fault_point. Not thread-safe against in-flight checks --
// install before starting a batch, as cpt_batch and the tests do.
void install_fault_plan(std::shared_ptr<FaultPlan> plan);

// kNone immediately when no plan is installed (one atomic load).
FaultAction fault_check(FaultSite site, std::uint64_t key);

// Performs the raising actions: kThrow/kBadAlloc throw, kExit flushes
// stdio and ::_exit(kFaultExitCode). kNone/kCorrupt/kShortWrite return
// (callers that passed through fault_check handle those themselves).
void fault_raise(FaultAction action, FaultSite site, std::uint64_t key);

// fault_raise(fault_check(site, key)): the one-liner for sites where only
// the raising actions make sense (run_job, materialize).
void fault_point(FaultSite site, std::uint64_t key);

}  // namespace cpt::scenario
