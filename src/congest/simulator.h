// Synchronous message-driven CONGEST simulator with a deterministic
// parallel round executor.
//
// A Program is a (flyweight) node algorithm: `begin` may inject initial
// messages / wake-ups, then each round every node that received messages or
// requested a wake-up gets `on_wake` with its inbox. Sending more than one
// message over the same directed edge in one round is a contract violation
// (CONGEST bandwidth). A pass ends when no messages are in flight and no
// wake-ups are pending; the simulator reports measured rounds and messages.
//
// Execution model. Within a round, CONGEST nodes compute independently --
// the round loop is data-parallel over nodes. The simulator statically
// shards node ids into contiguous ranges of roughly equal arc count, one
// shard per worker. Every shard owns an execution context (`Exec`) with a
// private Flight (arc bitset / payloads / wakes): sends issued while
// processing shard s land in s's flight for the next round, so flights are
// single-writer (the arc -> payload-index map is shared per generation;
// writers are disjoint by receiving arc, see Flight).
//
// Delivery merges all flights' ordered arc bitsets on the fly: each
// worker scans its own arc range of every source bitset (read-only
// `next_at_least` walks) and takes arcs in increasing global index order,
// which is (destination, port) order. So the result is *bit-identical to
// the serial run at any thread count*: each node sees the same port-sorted
// inbox in the same round, so it computes the same state, sends the same
// messages and the ledgers, partitions and verdicts downstream cannot
// differ. Sharding changes only which flight a message parks in between
// rounds, never what is delivered when.
//
// Programs must be per-node-write-clean to run under more than one worker:
// on_wake(ex, v, inbox) may read anything but may only write v's slots of
// per-node state (and push to v's rows of RecordTables, passing
// ex.shard()). Every Program in this repository satisfies this; see
// DESIGN.md ("Parallel determinism invariants") for the full contract.
//
// Rounds whose in-flight work is below `parallel_grain * workers` are
// executed inline on the calling thread (same code path, same shard
// order, same results) so the hundreds of thousands of small rounds in a
// Stage I run never pay a fork-join latency.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "util/indexed_bitset.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace cpt::congest {

class Simulator;
class Exec;

class Program {
 public:
  virtual ~Program() = default;
  // Inject initial sends/wake-ups. Runs "before round 1" on the driver
  // context (ex.shard() == 0).
  virtual void begin(Exec& ex) = 0;
  // Node v runs its local computation for this round. `inbox` holds the
  // messages delivered this round (possibly empty for pure wake-ups).
  // Runs on the context owning v's shard; per-node-write-clean code only.
  virtual void on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) = 0;
};

struct PassResult {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  bool quiesced = true;  // false iff max_rounds was hit first
};

// Pooled simulator state: the flight payload buffers, arc->slot maps,
// gather inboxes and (multi-worker) the WorkerPool of a destroyed
// Simulator, kept warm for the next one. The batch engine owns one per
// worker context so repeated jobs reuse hot memory -- and live threads --
// instead of re-growing allocations job by job. A SimMemory may back at
// most one live Simulator at a time (the Simulator adopts the store at
// construction and returns it at destruction); results are bit-identical
// with or without pooling because every adopted buffer is resized and
// reset for the new network before use.
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
  // Worker count for round execution. 0 resolves to the CPT_TEST_THREADS
  // environment variable if set (the CI knob that runs whole test suites
  // multi-threaded), else 1. Clamped to [1, kMaxWorkers].
  unsigned num_threads = 0;
  // Optional pooled state to adopt (see SimMemory). nullptr = allocate
  // fresh. The pointee must outlive the Simulator.
  SimMemory* memory = nullptr;
  // Minimum in-flight work (messages + wake-ups) per worker before a round
  // is dispatched to the pool; smaller rounds run inline on the caller.
  std::uint64_t parallel_grain = 2048;
  // Cumulative round budget across *all* passes run on this Simulator
  // (0 = unlimited). Unlike run()'s per-pass max_rounds -- which callers
  // use to abandon one pass and read its partial cost -- exhausting this
  // budget throws RoundBudgetExceeded out of run(), so a pathological
  // instance cannot wedge a batch worker no matter how many passes the
  // tester stacks on one simulator. The batch engine maps the throw to
  // JobResult::timed_out.
  std::uint64_t max_rounds = 0;
  // Optional trace track (not owned; must outlive the Simulator). The
  // round loop emits schedule-dependent delivery/pool statistics into the
  // owning session's MetricsRegistry under rt/ names (see util/trace.h for
  // the determinism contract). Null disables all instrumentation; the only
  // residual cost is one predictable branch per round.
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

// Resolves SimOptions::num_threads == 0 (see above). Exposed for CLIs and
// benches that want to report the effective worker count.
unsigned resolve_sim_threads(unsigned requested);

class Simulator {
 public:
  static constexpr std::uint64_t kDefaultMaxRounds = 1'000'000'000ULL;
  // Worker shards are 1..K and the driver context is shard 0; RecordTable
  // slot encoding (6 shard bits, shard 63 reserved by kNilSlot) bounds K.
  static constexpr unsigned kMaxWorkers = 32;

  explicit Simulator(const Network& net, SimOptions opt = {});
  // Returns adopted buffers to the SimOptions::memory pool, if any.
  ~Simulator();

  // The execution contexts hold back-pointers into this object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Runs the program to quiescence (or max_rounds) and returns measured
  // cost. Identical results at every num_threads setting.
  PassResult run(Program& program, std::uint64_t max_rounds = kDefaultMaxRounds);

  const Network& network() const { return *net_; }
  unsigned num_workers() const { return workers_; }

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

  // Everything in flight toward one round from one execution context:
  // per-receiving-arc membership (ordered), the message payloads in send
  // order, and the nodes to wake regardless of inbox. Double-buffered per
  // context: code running round r fills the other generation for round
  // r+1. The arc -> payload-index map (`slot_`) is shared per generation
  // across all contexts: every receiving arc has at most one sender per
  // round (CONGEST bandwidth), so writers are disjoint by arc, and the
  // owning flight is recovered at delivery from whose bitset holds the
  // arc -- flight memory stays O(m / 8) per extra worker, not O(4m).
  struct Flight {
    IndexedBitset arcs;               // in-flight receiving half-edges
    std::vector<Inbound> msgs;        // receiver-ready payloads, send order
    IndexedBitset wakes;              // nodes to wake regardless of inbox
  };

  void clear_flight(Flight& f);
  // Collects (and zeroes) the per-context send/wake counters incremented by
  // Exec::send / wake_next_round since the previous harvest: the in-flight
  // totals of the generation the contexts were aiming at. One O(K) sweep
  // per round at the barrier replaces the former three O(K) flight scans
  // (loop condition, message count, grain check) per round.
  void harvest_counters(std::uint64_t& msgs, std::uint64_t& wakes);
  void process_shard(Program& program, std::uint32_t s);
  void run_round_single(Program& program, Flight& in);

  const Network* net_;
  unsigned workers_ = 1;              // K: node shards 1..K
  std::uint64_t parallel_grain_ = 2048;
  std::vector<NodeId> shard_lo_;      // size K+1: shard s owns [lo[s-1], lo[s])
  std::vector<Flight> flights_[2];    // [generation][context 0..K]
  std::vector<std::uint32_t> slot_[2];  // arc -> msgs index (shared, see Flight)
  std::vector<std::unique_ptr<Exec>> execs_;        // contexts 0..K
  std::vector<std::vector<Inbound>> inbox_;         // per-shard gather buffer
  std::unique_ptr<WorkerPool> pool_;  // only when workers_ > 1
  SimMemory* memory_ = nullptr;       // pool to return the buffers to
  unsigned cur_ = 0;  // generation being delivered this round
  std::uint64_t round_ = 0;
  std::uint64_t budget_ = 0;        // SimOptions::max_rounds (0 = unlimited)
  std::uint64_t total_rounds_ = 0;  // lifetime rounds, all passes
  // Tracing (SimOptions::trace; all zero-cost when trace_ is null).
  // Per-pass delivery-path tallies, flushed to rt/ metrics at run() end.
  util::TraceBuffer* trace_ = nullptr;
  std::uint64_t trace_serial_rounds_ = 0;
  std::uint64_t trace_merge_rounds_ = 0;
  std::uint64_t trace_merge_work_ = 0;
  std::uint64_t trace_pooled_rounds_ = 0;
};

// Execution context handed to Program callbacks: the sending surface of
// one shard. shard() doubles as the RecordTable shard id for pushes made
// while running on this context (0 = driver / begin-time pushes).
class Exec {
 public:
  Exec(const Exec&) = delete;
  Exec& operator=(const Exec&) = delete;

  // Send msg from node `from` through its local port `port`; delivered to
  // the neighbor at the start of the next round.
  void send(NodeId from, std::uint32_t port, const Msg& msg) {
    // Receiving half-edge via the network's flat peer-arc table (which
    // bounds-checks the port): two loads, no adjacency-span construction.
    // A (from, port) pair maps to a unique receiving arc, so the CONGEST
    // bandwidth check is local to this flight even under many workers: a
    // node's sends always run on the one context owning its shard.
    const std::uint32_t ri = sim_->net_->peer_arc(from, port);
    Simulator::Flight& out = *out_;  // re-aimed by the round loop
    [[maybe_unused]] const bool fresh = out.arcs.insert(ri);
    CPT_EXPECTS(fresh && "one message per directed edge per round (CONGEST)");
    slot_[ri] = static_cast<std::uint32_t>(out.msgs.size());
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
  std::uint32_t shard() const { return shard_; }
  const Simulator& simulator() const { return *sim_; }

 private:
  friend class Simulator;
  Exec(Simulator* sim, std::uint32_t shard) : sim_(sim), shard_(shard) {}

  Simulator* sim_;
  Simulator::Flight* out_ = nullptr;   // this context's next-round flight
  std::uint32_t* slot_ = nullptr;      // next round's shared slot map
  std::uint32_t shard_;
  // In-flight work this context sent toward the next round, maintained
  // incrementally (wake duplicates are not counted, mirroring the wake
  // bitset). Harvested and zeroed by the round loop at each barrier.
  std::uint64_t sent_msgs_ = 0;
  std::uint64_t sent_wakes_ = 0;
};

}  // namespace cpt::congest
