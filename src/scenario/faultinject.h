// Deterministic hard kill for the batch stack's resume tests.
//
// A FaultPlan is one rule, parsed from cpt_batch --fault-plan and
// installed once, before any work starts:
//
//   exit@run_job:key=K       -- die as job K starts executing
//
// "Die" is ::_exit(kFaultExitCode): no atexit handlers and no stdio
// flush, so buffered output tears exactly like a SIGKILL'd process's
// would. The key is the job index, which is schedule-independent, so a
// plan kills at the same job at every --threads value. The rerun over
// the same --cache directory is what the kill/resume harness then checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cpt::scenario {

// The status a fault dies with (128 + SIGKILL's 9, so harnesses treat it
// as a hard kill).
inline constexpr int kFaultExitCode = 137;

struct FaultPlan {
  std::uint64_t key = 0;

  // Parses the grammar above; false + *error on anything else.
  static bool parse(std::string_view spec, FaultPlan* out, std::string* error);
};

// Installs the process-global plan. Not synchronized: call it before any
// worker thread starts, as cpt_batch does.
void install_fault_plan(const FaultPlan& plan);

// True when the installed plan names this job; false when no plan is
// installed.
bool fault_fires(std::uint64_t job_index);

// Dies with kFaultExitCode, skipping atexit handlers and stdio flushes.
[[noreturn]] void fault_exit();

}  // namespace cpt::scenario
