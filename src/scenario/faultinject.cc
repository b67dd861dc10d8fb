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
  constexpr std::string_view kStreamWrite = "exit@stream_write:key=";
  FaultPlan plan;
  std::string_view key;
  if (spec.substr(0, kRunJob.size()) == kRunJob) {
    plan.site = FaultSite::kRunJob;
    key = spec.substr(kRunJob.size());
  } else if (spec.substr(0, kStreamWrite.size()) == kStreamWrite) {
    plan.site = FaultSite::kStreamWrite;
    key = spec.substr(kStreamWrite.size());
  } else {
    if (error) {
      *error = std::string(spec) +
               ": expected exit@run_job:key=K or exit@stream_write:key=K";
    }
    return false;
  }
  if (!parse_u64(key, &plan.key)) {
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

bool fault_fires(FaultSite site, std::uint64_t key) {
  return g_plan && g_plan->site == site && g_plan->key == key;
}

void fault_exit() { ::_exit(kFaultExitCode); }

}  // namespace cpt::scenario
