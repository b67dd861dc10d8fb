#include "scenario/faultinject.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "util/rng.h"

namespace cpt::scenario {
namespace {

// Installed plan. A shared_ptr juggled under a mutex with a raw "is a plan
// present" flag on the side: the flag makes the uninstalled fast path one
// relaxed load, while the mutex keeps install/check races defined (checks
// only happen between installs in practice, but tests reinstall often).
std::atomic<bool> g_plan_present{false};
std::mutex g_plan_mu;
std::shared_ptr<FaultPlan> g_plan;

std::shared_ptr<FaultPlan> current_plan() {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  return g_plan;
}

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

bool parse_rate(std::string_view s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string buf(s);
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  *out = v;
  return true;
}

bool parse_action(std::string_view s, FaultAction* out) {
  if (s == "throw") *out = FaultAction::kThrow;
  else if (s == "badalloc") *out = FaultAction::kBadAlloc;
  else if (s == "corrupt") *out = FaultAction::kCorrupt;
  else if (s == "shortwrite") *out = FaultAction::kShortWrite;
  else if (s == "exit") *out = FaultAction::kExit;
  else return false;
  return true;
}

bool parse_site(std::string_view s, FaultSite* out) {
  if (s == "corpus_load") *out = FaultSite::kCorpusLoad;
  else if (s == "corpus_save") *out = FaultSite::kCorpusSave;
  else if (s == "edge_list") *out = FaultSite::kEdgeListRead;
  else if (s == "materialize") *out = FaultSite::kMaterialize;
  else if (s == "run_job") *out = FaultSite::kRunJob;
  else if (s == "stream_write") *out = FaultSite::kStreamWrite;
  else return false;
  return true;
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kCorpusLoad: return "corpus_load";
    case FaultSite::kCorpusSave: return "corpus_save";
    case FaultSite::kEdgeListRead: return "edge_list";
    case FaultSite::kMaterialize: return "materialize";
    case FaultSite::kRunJob: return "run_job";
    case FaultSite::kStreamWrite: return "stream_write";
  }
  return "?";
}

bool FaultPlan::parse(std::string_view spec, FaultPlan* out,
                      std::string* error) {
  out->rules_.clear();
  out->seed_ = 1;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view rule_text = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (rule_text.empty()) {
      if (spec.empty()) break;  // empty spec = empty plan
      if (error) *error = "fault plan: empty rule";
      return false;
    }
    if (rule_text.substr(0, 5) == "seed=") {
      if (!parse_u64(rule_text.substr(5), &out->seed_)) {
        if (error) *error = "fault plan: bad seed in '" +
                            std::string(rule_text) + "'";
        return false;
      }
      if (pos > spec.size()) break;
      continue;
    }
    const std::size_t at = rule_text.find('@');
    if (at == std::string_view::npos) {
      if (error) *error = "fault plan: rule '" + std::string(rule_text) +
                          "' missing '@site'";
      return false;
    }
    Rule rule;
    if (!parse_action(rule_text.substr(0, at), &rule.action)) {
      if (error) *error = "fault plan: unknown action in '" +
                          std::string(rule_text) + "'";
      return false;
    }
    std::size_t cpos = rule_text.find(':', at + 1);
    const std::string_view site_text =
        rule_text.substr(at + 1, (cpos == std::string_view::npos
                                      ? rule_text.size()
                                      : cpos) - (at + 1));
    if (!parse_site(site_text, &rule.site)) {
      if (error) *error = "fault plan: unknown site in '" +
                          std::string(rule_text) + "'";
      return false;
    }
    while (cpos != std::string_view::npos) {
      const std::size_t next = rule_text.find(':', cpos + 1);
      const std::string_view cond = rule_text.substr(
          cpos + 1,
          (next == std::string_view::npos ? rule_text.size() : next) -
              (cpos + 1));
      cpos = next;
      bool ok = false;
      if (cond.substr(0, 4) == "key=") {
        ok = parse_u64(cond.substr(4), &rule.key);
        rule.has_key = ok;
      } else if (cond.substr(0, 6) == "every=") {
        ok = parse_u64(cond.substr(6), &rule.every) && rule.every > 0;
      } else if (cond.substr(0, 5) == "rate=") {
        ok = parse_rate(cond.substr(5), &rule.rate);
      } else if (cond.substr(0, 6) == "times=") {
        std::uint64_t t = 0;
        ok = parse_u64(cond.substr(6), &t) && t > 0 && t <= 0xffffffffULL;
        rule.times = static_cast<std::uint32_t>(t);
      }
      if (!ok) {
        if (error) *error = "fault plan: bad condition '" + std::string(cond) +
                            "' in '" + std::string(rule_text) + "'";
        return false;
      }
    }
    out->rules_.push_back(std::move(rule));
    if (pos > spec.size()) break;
  }
  return true;
}

FaultAction FaultPlan::check(FaultSite site, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    Rule& rule = rules_[i];
    if (rule.site != site) continue;
    if (rule.has_key && rule.key != key) continue;
    if (rule.every != 0 && key % rule.every != 0) continue;
    if (rule.rate >= 0) {
      // Seeded per-(rule, site, key) coin: the same key draws the same
      // coin at every --threads value and on every retry, so a rate rule
      // is a deterministic *subset* of keys, not a racy dice roll. The
      // per-key `times` budget is what ends up making it transient.
      std::uint64_t s = seed_ ^ (0x46494E4A43505455ULL + i);
      splitmix64(s);
      s ^= static_cast<std::uint64_t>(site) * 0x9E3779B97F4A7C15ULL;
      splitmix64(s);
      s ^= key;
      const std::uint64_t coin = splitmix64(s);
      const double u =
          static_cast<double>(coin >> 11) * (1.0 / 9007199254740992.0);
      if (u >= rule.rate) continue;
    }
    std::uint32_t& fired = rule.fired[key];
    if (fired >= rule.times) continue;
    ++fired;
    return rule.action;
  }
  return FaultAction::kNone;
}

void install_fault_plan(std::shared_ptr<FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  g_plan = std::move(plan);
  g_plan_present.store(g_plan != nullptr && !g_plan->empty(),
                       std::memory_order_relaxed);
}

FaultAction fault_check(FaultSite site, std::uint64_t key) {
  if (!g_plan_present.load(std::memory_order_relaxed)) {
    return FaultAction::kNone;
  }
  const std::shared_ptr<FaultPlan> plan = current_plan();
  if (!plan) return FaultAction::kNone;
  return plan->check(site, key);
}

void fault_raise(FaultAction action, FaultSite site, std::uint64_t key) {
  switch (action) {
    case FaultAction::kNone:
    case FaultAction::kCorrupt:
    case FaultAction::kShortWrite:
      return;
    case FaultAction::kThrow: {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "injected transient fault at %s key=%llu",
                    fault_site_name(site),
                    static_cast<unsigned long long>(key));
      throw std::runtime_error(buf);
    }
    case FaultAction::kBadAlloc:
      throw std::bad_alloc();
    case FaultAction::kExit:
      // A crash, not an exit: skip atexit/flush so buffered stream output
      // tears exactly like a SIGKILL'd process's would.
      ::_exit(kFaultExitCode);
  }
}

void fault_point(FaultSite site, std::uint64_t key) {
  fault_raise(fault_check(site, key), site, key);
}

}  // namespace cpt::scenario
