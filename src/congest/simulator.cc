#include "congest/simulator.h"

#include "util/contracts.h"

namespace cpt::congest {

// What a SimMemory keeps warm between Simulators: the two flight
// generations (bitsets and vectors retain capacity through their
// reset/clear paths) and the gather inbox.
struct SimMemory::Store {
  Simulator::Flight flights[2];
  std::vector<Inbound> gather;
};

SimMemory::SimMemory() = default;
SimMemory::~SimMemory() = default;
SimMemory::SimMemory(SimMemory&&) noexcept = default;
SimMemory& SimMemory::operator=(SimMemory&&) noexcept = default;

Simulator::Simulator(const Network& net, SimOptions opt)
    : net_(&net),
      exec_(new Exec(this)),
      memory_(opt.memory),
      budget_(opt.max_rounds),
      trace_(opt.trace) {
  // Adopt pooled buffers before the sizing code below: every reset /
  // resize path reuses capacity, so a warm store turns the per-job O(m)
  // allocations into plain size bookkeeping.
  if (memory_ != nullptr) {
    if (memory_->store_ == nullptr) {
      memory_->store_ = std::make_unique<SimMemory::Store>();
    } else {
      SimMemory::Store& s = *memory_->store_;
      for (unsigned gen = 0; gen < 2; ++gen) {
        flights_[gen] = std::move(s.flights[gen]);
      }
      gather_ = std::move(s.gather);
    }
  }
  for (Flight& f : flights_) {
    f.arcs.reset(net.num_arcs());
    f.wakes.reset(net.num_nodes());
    f.slot.resize(net.num_arcs());
  }
}

Simulator::~Simulator() {
  if (memory_ == nullptr) return;
  SimMemory::Store& s = *memory_->store_;
  for (unsigned gen = 0; gen < 2; ++gen) {
    s.flights[gen] = std::move(flights_[gen]);
  }
  s.gather = std::move(gather_);
}

// Delivers flight `in` and runs the round's local computations: nodes in
// increasing id order, each with its port-sorted inbox, erasing the flight
// as the drain goes (which doubles as its clear).
void Simulator::run_round(Program& program, Flight& in) {
  constexpr std::size_t kDrained = ~std::size_t{0};
  Exec& ex = *exec_;
  const std::uint32_t* slot = in.slot.data();
  std::size_t ri = in.arcs.empty() ? kDrained : in.arcs.front();
  std::size_t wake = in.wakes.empty() ? kDrained : in.wakes.front();
  while (ri != kDrained || wake != kDrained) {
    const NodeId mv = ri == kDrained
                          ? kNoNode
                          : net_->arc_owner(static_cast<std::uint32_t>(ri));
    const NodeId wv = wake == kDrained ? kNoNode : static_cast<NodeId>(wake);
    const NodeId v = mv <= wv ? mv : wv;
    std::span<const Inbound> box{};
    if (mv == v) {
      // Single-message inboxes (the common case in pipelined passes) are
      // handed out as a span into the flight buffer; only multi-message
      // inboxes gather to make the port-sorted view contiguous. Receiving
      // ports are filled in here (send() leaves them blank).
      const std::uint32_t base = net_->arc_base(v);
      const std::uint32_t end = base + net_->port_count(v);
      const std::uint32_t first = slot[ri];
      in.msgs[first].port = static_cast<std::uint32_t>(ri) - base;
      std::size_t cnt = 1;
      in.arcs.erase(ri);
      ri = in.arcs.empty() ? kDrained : in.arcs.front();
      while (ri < end) {
        if (cnt == 1) {
          gather_.clear();
          gather_.push_back(in.msgs[first]);
        }
        gather_.push_back({static_cast<std::uint32_t>(ri) - base,
                           in.msgs[slot[ri]].msg});
        ++cnt;
        in.arcs.erase(ri);
        ri = in.arcs.empty() ? kDrained : in.arcs.front();
      }
      box = cnt == 1 ? std::span<const Inbound>{&in.msgs[first], 1}
                     : std::span<const Inbound>{gather_};
    }
    if (wv == v) {
      in.wakes.erase(wake);
      wake = in.wakes.empty() ? kDrained : in.wakes.front();
    }
    program.on_wake(ex, v, box);
  }
  in.msgs.clear();
}

PassResult Simulator::run(Program& program, std::uint64_t max_rounds) {
  // Drop anything a max_rounds-abandoned previous run left in flight.
  // O(leftover): a drained flight pays only the level-2 scan.
  for (Flight& f : flights_) {
    f.arcs.clear();
    f.msgs.clear();
    f.wakes.clear();
  }
  round_ = 0;
  cur_ = 0;
  Exec& ex = *exec_;
  ex.sent_msgs_ = 0;
  ex.sent_wakes_ = 0;
  ex.out_ = &flights_[cur_ ^ 1];
  program.begin(ex);

  PassResult result;
  while (ex.sent_msgs_ + ex.sent_wakes_ != 0) {
    if (round_ >= max_rounds) {
      result.quiesced = false;
      break;
    }
    // The lifetime budget throws instead of returning a partial pass:
    // callers stacking many passes (stage1 phases, stage2 walks) would
    // otherwise have to thread quiesced checks through every layer.
    if (budget_ != 0 && total_rounds_ >= budget_) {
      throw RoundBudgetExceeded(budget_, total_rounds_);
    }
    ++total_rounds_;
    ++round_;
    cur_ ^= 1;
    result.messages += ex.sent_msgs_;
    ex.sent_msgs_ = 0;
    ex.sent_wakes_ = 0;
    ex.out_ = &flights_[cur_ ^ 1];
    run_round(program, flights_[cur_]);
  }
  result.rounds = round_;
  if (trace_ != nullptr && round_ != 0) {
    if (util::MetricsRegistry* m = trace_->metrics()) {
      m->add_counter("rt/sim/serial_rounds", round_);
    }
  }
  return result;
}

}  // namespace cpt::congest
