// Synchronous message-driven CONGEST simulator.
//
// A Program is a (flyweight) node algorithm: `begin` may inject initial
// messages / wake-ups, then each round every node that received messages or
// requested a wake-up gets `on_wake` with its inbox. Sending more than one
// message over the same directed edge in one round is a contract violation
// (CONGEST bandwidth). A pass ends when no messages are in flight and no
// wake-ups are pending; the simulator reports measured rounds and messages.
//
// Execution model. One round loop on the calling thread. Sends issued in
// round r (or in begin(), "round 0") land in the other generation's Flight
// and are delivered at the start of round r+1, in (destination, port)
// order: nodes run in increasing id order, each with a port-sorted inbox.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "util/indexed_bitset.h"
#include "util/trace.h"

namespace cpt::congest {

class Simulator;
class Exec;

class Program {
 public:
  virtual ~Program() = default;
  // Inject initial sends/wake-ups. Runs "before round 1".
  virtual void begin(Exec& ex) = 0;
  // Node v runs its local computation for this round. `inbox` holds the
  // messages delivered this round (possibly empty for pure wake-ups).
  virtual void on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) = 0;
};

struct PassResult {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  bool quiesced = true;  // false iff max_rounds was hit first
};

// Pooled simulator state: the flight buffers and gather inbox of a
// destroyed Simulator, kept warm for the next one. The batch engine owns
// one per worker context so repeated jobs reuse hot memory instead of
// re-growing allocations job by job. A SimMemory may back at most one live
// Simulator at a time (the Simulator adopts the store at construction and
// returns it at destruction); results are bit-identical with or without
// pooling because every adopted buffer is resized and reset for the new
// network before use.
class SimMemory {
 public:
  SimMemory();
  ~SimMemory();
  SimMemory(SimMemory&&) noexcept;
  SimMemory& operator=(SimMemory&&) noexcept;
  SimMemory(const SimMemory&) = delete;
  SimMemory& operator=(const SimMemory&) = delete;

 private:
  friend class Simulator;
  struct Store;
  std::unique_ptr<Store> store_;
};

struct SimOptions {
  // Ignored: every simulation runs on the calling thread. Kept only
  // because perfbench/src/layers.cc still assigns it.
  unsigned num_threads = 0;
  // Optional pooled state to adopt (see SimMemory). nullptr = allocate
  // fresh. The pointee must outlive the Simulator.
  SimMemory* memory = nullptr;
  // Cumulative round budget across *all* passes run on this Simulator
  // (0 = unlimited). Unlike run()'s per-pass max_rounds -- which callers
  // use to abandon one pass and read its partial cost -- exhausting this
  // budget throws RoundBudgetExceeded out of run(), so a pathological
  // instance cannot wedge a batch worker no matter how many passes the
  // tester stacks on one simulator. The batch engine maps the throw to
  // JobResult::timed_out.
  std::uint64_t max_rounds = 0;
  // Optional trace track (not owned; must outlive the Simulator). Each
  // pass adds its round count to the owning session's MetricsRegistry as
  // rt/sim/serial_rounds (see util/trace.h for the rt/ contract). Null
  // disables all instrumentation; the only residual cost is one
  // predictable branch per pass.
  util::TraceBuffer* trace = nullptr;
};

// Thrown by Simulator::run when SimOptions::max_rounds is exhausted. A
// budget violation is deterministic (same instance, same seeds, same round
// count), so catchers must not retry -- the engine records timed_out.
class RoundBudgetExceeded : public std::runtime_error {
 public:
  RoundBudgetExceeded(std::uint64_t budget, std::uint64_t rounds)
      : std::runtime_error("simulated round budget exceeded"),
        budget_(budget),
        rounds_(rounds) {}
  std::uint64_t budget() const { return budget_; }
  std::uint64_t rounds() const { return rounds_; }

 private:
  std::uint64_t budget_;
  std::uint64_t rounds_;
};

class Simulator {
 public:
  static constexpr std::uint64_t kDefaultMaxRounds = 1'000'000'000ULL;

  explicit Simulator(const Network& net, SimOptions opt = {});
  // Returns adopted buffers to the SimOptions::memory pool, if any.
  ~Simulator();

  // The execution context holds a back-pointer into this object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Runs the program to quiescence (or max_rounds) and returns measured
  // cost.
  PassResult run(Program& program, std::uint64_t max_rounds = kDefaultMaxRounds);

  const Network& network() const { return *net_; }

  // Round number of the round currently executing (1-based); 0 in begin().
  std::uint64_t current_round() const { return round_; }

  // Rounds executed across all passes (the counter SimOptions::max_rounds
  // is charged against).
  std::uint64_t total_rounds() const { return total_rounds_; }

  // Counts rounds simulated elsewhere as if they had run here: a replayed
  // Stage I (partition/partition.h, Stage1Record) charges its rounds so
  // the budget trips at the same round in the passes that follow.
  void charge_rounds(std::uint64_t rounds) { total_rounds_ += rounds; }

 private:
  friend class Exec;
  friend class SimMemory;
  friend struct SimMemory::Store;

  // Everything in flight toward one round: per-receiving-arc membership
  // (ordered), the message payloads in send order, the arc -> payload-index
  // map, and the nodes to wake regardless of inbox. Double-buffered: code
  // running round r fills the other generation for round r+1.
  struct Flight {
    IndexedBitset arcs;               // in-flight receiving half-edges
    std::vector<Inbound> msgs;        // receiver-ready payloads, send order
    std::vector<std::uint32_t> slot;  // arc -> msgs index
    IndexedBitset wakes;              // nodes to wake regardless of inbox
  };

  void run_round(Program& program, Flight& in);

  const Network* net_;
  Flight flights_[2];                 // [generation]
  std::vector<Inbound> gather_;       // multi-message inbox buffer
  std::unique_ptr<Exec> exec_;
  SimMemory* memory_ = nullptr;       // pool to return the buffers to
  unsigned cur_ = 0;  // generation being delivered this round
  std::uint64_t round_ = 0;
  std::uint64_t budget_ = 0;        // SimOptions::max_rounds (0 = unlimited)
  std::uint64_t total_rounds_ = 0;  // lifetime rounds, all passes
  util::TraceBuffer* trace_ = nullptr;  // SimOptions::trace
};

// Execution context handed to Program callbacks: the sending surface of
// the simulator.
class Exec {
 public:
  Exec(const Exec&) = delete;
  Exec& operator=(const Exec&) = delete;

  // Send msg from node `from` through its local port `port`; delivered to
  // the neighbor at the start of the next round.
  void send(NodeId from, std::uint32_t port, const Msg& msg) {
    // Receiving half-edge via the network's flat peer-arc table (which
    // bounds-checks the port): two loads, no adjacency-span construction.
    const std::uint32_t ri = sim_->net_->peer_arc(from, port);
    Simulator::Flight& out = *out_;  // re-aimed by the round loop
    [[maybe_unused]] const bool fresh = out.arcs.insert(ri);
    CPT_EXPECTS(fresh && "one message per directed edge per round (CONGEST)");
    out.slot[ri] = static_cast<std::uint32_t>(out.msgs.size());
    // The receiving port is filled in at delivery (where the receiver's
    // arc base is already at hand): a single-message inbox is then a span
    // straight into this buffer, no copy.
    out.msgs.push_back({0, msg});
    ++sent_msgs_;
  }

  // Ask to be woken next round even without incoming messages (used by
  // nodes draining multi-round send queues). Duplicate requests coalesce.
  void wake_next_round(NodeId v) {
    CPT_EXPECTS(v < sim_->net_->num_nodes());
    if (out_->wakes.insert(v)) ++sent_wakes_;
  }

  const Network& network() const { return *sim_->net_; }
  std::uint64_t current_round() const { return sim_->round_; }

 private:
  friend class Simulator;
  explicit Exec(Simulator* sim) : sim_(sim) {}

  Simulator* sim_;
  Simulator::Flight* out_ = nullptr;  // next round's flight
  // In-flight work sent toward the next round, maintained incrementally
  // (wake duplicates are not counted, mirroring the wake bitset). Read and
  // zeroed by the round loop after each round.
  std::uint64_t sent_msgs_ = 0;
  std::uint64_t sent_wakes_ = 0;
};

}  // namespace cpt::congest
