// Round/message accounting across the many passes of a distributed
// algorithm. Passes executed on the simulator report measured rounds;
// substituted black boxes (e.g. the Ghaffari-Haeupler embedding) charge
// their documented round bounds explicitly (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/trace.h"

namespace cpt::congest {

struct PassStats {
  std::string name;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

class RoundLedger {
 public:
  // Mirror every pass into a trace track: each add_pass emits a span
  // named after the pass covering the wall time since the previous
  // pass boundary, so simulated-round cost and wall cost line up per
  // pass in cpt_trace output. Null (the default) disables mirroring.
  void set_trace(util::TraceBuffer* trace) {
    trace_ = trace;
    if (trace_ != nullptr) {
      mark_ns_ = trace_->now_ns();
    }
  }

  void add_pass(std::string name, std::uint64_t rounds, std::uint64_t messages) {
    if (trace_ != nullptr) {
      util::TraceArgs args;
      args.add("rounds", rounds).add("messages", messages);
      trace_->complete_span(name, mark_ns_, std::move(args));
      mark_ns_ = trace_->now_ns();
    }
    total_rounds_ += rounds;
    total_messages_ += messages;
    passes_.push_back({std::move(name), rounds, messages});
  }

  // Charge rounds without simulated messages (substituted black boxes,
  // schedule padding for quiet super-rounds, fast-forwarded phases).
  void charge(std::string name, std::uint64_t rounds) {
    add_pass(std::move(name), rounds, 0);
  }

  std::uint64_t total_rounds() const { return total_rounds_; }
  std::uint64_t total_messages() const { return total_messages_; }
  const std::vector<PassStats>& passes() const { return passes_; }

  // Sums rounds over passes whose name starts with `prefix`.
  std::uint64_t rounds_with_prefix(const std::string& prefix) const {
    std::uint64_t sum = 0;
    for (const PassStats& p : passes_) {
      if (p.name.rfind(prefix, 0) == 0) sum += p.rounds;
    }
    return sum;
  }

 private:
  std::uint64_t total_rounds_ = 0;
  std::uint64_t total_messages_ = 0;
  std::vector<PassStats> passes_;
  util::TraceBuffer* trace_ = nullptr;  // not owned; may dangle in copies
  std::uint64_t mark_ns_ = 0;           // previous pass boundary
};

}  // namespace cpt::congest
