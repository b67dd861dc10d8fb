#include "scenario/faultinject.h"

#include <unistd.h>

#include <optional>

namespace cpt::scenario {
namespace {

std::optional<FaultPlan> g_plan;

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (~0ULL - (c - '0')) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

bool FaultPlan::parse(std::string_view spec, FaultPlan* out,
                      std::string* error) {
  constexpr std::string_view kRunJob = "exit@run_job:key=";
  if (spec.substr(0, kRunJob.size()) != kRunJob) {
    if (error) *error = std::string(spec) + ": expected exit@run_job:key=K";
    return false;
  }
  FaultPlan plan;
  if (!parse_u64(spec.substr(kRunJob.size()), &plan.key)) {
    if (error) {
      *error = std::string(spec) +
               ": key must be an unsigned 64-bit decimal integer";
    }
    return false;
  }
  *out = plan;
  return true;
}

void install_fault_plan(const FaultPlan& plan) { g_plan = plan; }

bool fault_fires(std::uint64_t job_index) {
  return g_plan && g_plan->key == job_index;
}

void fault_exit() { ::_exit(kFaultExitCode); }

}  // namespace cpt::scenario
