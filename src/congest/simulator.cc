#include "congest/simulator.h"

#include <algorithm>
#include <cstdlib>

#include "util/contracts.h"

namespace cpt::congest {

// What a SimMemory keeps warm between Simulators: the two flight
// generations (bitsets and payload vectors retain capacity through their
// reset/clear paths), the shared slot maps, the gather inboxes, and --
// when the previous owner ran multi-worker -- its WorkerPool, so pooled
// batch jobs reuse live threads instead of spawning per job.
struct SimMemory::Store {
  std::vector<Simulator::Flight> flights[2];
  std::vector<std::uint32_t> slot[2];
  std::vector<std::vector<Inbound>> inbox;
  std::unique_ptr<WorkerPool> pool;
  unsigned pool_workers = 0;
};

SimMemory::SimMemory() = default;
SimMemory::~SimMemory() = default;
SimMemory::SimMemory(SimMemory&&) noexcept = default;
SimMemory& SimMemory::operator=(SimMemory&&) noexcept = default;

unsigned resolve_sim_threads(unsigned requested) {
  unsigned t = requested;
  if (t == 0) {
    if (const char* env = std::getenv("CPT_TEST_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) t = static_cast<unsigned>(v);
    }
    if (t == 0) t = 1;
  }
  return std::min(t, Simulator::kMaxWorkers);
}

Simulator::Simulator(const Network& net, SimOptions opt)
    : net_(&net),
      workers_(resolve_sim_threads(opt.num_threads)),
      parallel_grain_(std::max<std::uint64_t>(opt.parallel_grain, 1)),
      memory_(opt.memory),
      budget_(opt.max_rounds),
      trace_(util::kTraceCompiled ? opt.trace : nullptr) {
  // Adopt pooled buffers before the sizing code below: every reset /
  // resize path reuses capacity, so a warm store turns the per-job O(m)
  // allocations into plain size bookkeeping. The pool is only reusable at
  // the same worker count (its thread team is fixed at construction).
  if (memory_ != nullptr) {
    if (memory_->store_ == nullptr) {
      memory_->store_ = std::make_unique<SimMemory::Store>();
    } else {
      SimMemory::Store& s = *memory_->store_;
      for (unsigned gen = 0; gen < 2; ++gen) {
        flights_[gen] = std::move(s.flights[gen]);
        slot_[gen] = std::move(s.slot[gen]);
      }
      inbox_ = std::move(s.inbox);
      if (s.pool != nullptr && s.pool_workers == workers_) {
        pool_ = std::move(s.pool);
      }
      s.pool.reset();
      s.pool_workers = 0;
    }
  }
  const NodeId n = net.num_nodes();
  // Shard boundaries balanced by arc count: shard s (1..K) owns the node
  // range [shard_lo_[s-1], shard_lo_[s]). Arc ranges of distinct shards
  // are disjoint because arc ids order arcs by (owner, port).
  shard_lo_.assign(workers_ + 1, n);
  shard_lo_[0] = 0;
  const std::uint64_t total_arcs = net.num_arcs();
  NodeId v = 0;
  for (unsigned s = 1; s < workers_; ++s) {
    const std::uint64_t target = total_arcs * s / workers_;
    while (v < n && net.arc_base(v) < target) ++v;
    shard_lo_[s] = v;
  }
  for (unsigned gen = 0; gen < 2; ++gen) {
    flights_[gen].resize(workers_ + 1);
    for (Flight& f : flights_[gen]) {
      f.arcs.reset(net.num_arcs());
      f.wakes.reset(n);
    }
    slot_[gen].resize(net.num_arcs());
  }
  execs_.reserve(workers_ + 1);
  for (std::uint32_t s = 0; s <= workers_; ++s) {
    execs_.emplace_back(new Exec(this, s));
  }
  inbox_.resize(workers_ + 1);
  if (workers_ > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(workers_);
  } else if (workers_ == 1) {
    pool_.reset();  // an adopted pool from a wider run is useless here
  }
}

Simulator::~Simulator() {
  if (memory_ == nullptr) return;
  SimMemory::Store& s = *memory_->store_;
  for (unsigned gen = 0; gen < 2; ++gen) {
    s.flights[gen] = std::move(flights_[gen]);
    s.slot[gen] = std::move(slot_[gen]);
  }
  s.inbox = std::move(inbox_);
  s.pool = std::move(pool_);
  s.pool_workers = s.pool != nullptr ? workers_ : 0;
}

void Simulator::clear_flight(Flight& f) {
  // O(leftover): a drained flight pays only the level-2 scan.
  f.arcs.clear();
  f.msgs.clear();
  f.wakes.clear();
}

void Simulator::harvest_counters(std::uint64_t& msgs, std::uint64_t& wakes) {
  for (std::uint32_t s = 0; s <= workers_; ++s) {
    Exec& e = *execs_[s];
    msgs += e.sent_msgs_;
    wakes += e.sent_wakes_;
    e.sent_msgs_ = 0;
    e.sent_wakes_ = 0;
  }
}

// Single-worker fast path. With one worker there are two contexts (driver
// 0, worker 1) and a node's sends always run on one of them per round:
// the driver fills flight 0 toward round 1, the worker fills flight 1
// toward every later round -- so exactly one flight holds each round and
// the K-way merge collapses to the classic single-bitset drain, erasing
// as it goes (which doubles as the flight clear). Identical schedule,
// none of the per-message source scans.
void Simulator::run_round_single(Program& program, Flight& in) {
  constexpr std::size_t kDrained = ~std::size_t{0};
  Exec& ex = *execs_[1];
  std::vector<Inbound>& gather = inbox_[1];
  const std::uint32_t* slot = slot_[cur_].data();
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
          gather.clear();
          gather.push_back(in.msgs[first]);
        }
        gather.push_back({static_cast<std::uint32_t>(ri) - base,
                          in.msgs[slot[ri]].msg});
        ++cnt;
        in.arcs.erase(ri);
        ri = in.arcs.empty() ? kDrained : in.arcs.front();
      }
      box = cnt == 1 ? std::span<const Inbound>{&in.msgs[first], 1}
                     : std::span<const Inbound>{gather};
    }
    if (wv == v) {
      in.wakes.erase(wake);
      wake = in.wakes.empty() ? kDrained : in.wakes.front();
    }
    program.on_wake(ex, v, box);
  }
  in.msgs.clear();
}

// Delivers round `round_` to the nodes of shard s and runs their local
// computations, in increasing node id order with port-sorted inboxes --
// exactly the serial schedule restricted to [shard_lo_[s-1], shard_lo_[s]).
// Reads every context's in-generation flight (read-only bitset walks);
// writes only shard s's out-generation flight and per-node program state
// of s's nodes, so concurrent shards never conflict.
void Simulator::process_shard(Program& program, std::uint32_t s) {
  constexpr std::size_t kNone = IndexedBitset::kNone;
  const NodeId lo = shard_lo_[s - 1];
  const NodeId hi = shard_lo_[s];
  if (lo == hi) return;
  const std::size_t arc_lo = net_->arc_base(lo);
  const std::size_t arc_hi = net_->arc_base(hi);

  Flight* const in = flights_[cur_].data();
  const std::uint32_t* slot = slot_[cur_].data();
  const std::uint32_t nsrc = workers_ + 1;
  // Compact live-source list with per-source cursors over this shard's
  // arc / node ranges; kNone marks an exhausted source. Contexts: 0 =
  // driver (round-1 sends), 1..K = workers -- but most rounds only a
  // couple of contexts sent at all, so the per-message min-scans below
  // touch live cursors only instead of all K+1.
  Flight* src[kMaxWorkers + 1];
  std::size_t arc_cur[kMaxWorkers + 1];
  std::size_t wake_cur[kMaxWorkers + 1];
  std::uint32_t nlive = 0;
  for (std::uint32_t f = 0; f < nsrc; ++f) {
    if (in[f].arcs.empty() && in[f].wakes.empty()) continue;
    std::size_t a = in[f].arcs.empty() ? kNone : in[f].arcs.next_at_least(arc_lo);
    a = (a >= arc_hi) ? kNone : a;
    std::size_t w = in[f].wakes.empty() ? kNone : in[f].wakes.next_at_least(lo);
    w = (w >= hi) ? kNone : w;
    if (a == kNone && w == kNone) continue;
    src[nlive] = &in[f];
    arc_cur[nlive] = a;
    wake_cur[nlive] = w;
    ++nlive;
  }

  Exec& ex = *execs_[s];
  std::vector<Inbound>& gather = inbox_[s];
  for (;;) {
    // Global minima across live sources (nlive is small; linear scans).
    std::size_t min_arc = kNone;
    std::uint32_t min_src = 0;
    std::size_t min_wake = kNone;
    for (std::uint32_t f = 0; f < nlive; ++f) {
      if (arc_cur[f] < min_arc) {
        min_arc = arc_cur[f];
        min_src = f;
      }
      if (wake_cur[f] < min_wake) min_wake = wake_cur[f];
    }
    if (min_arc == kNone && min_wake == kNone) break;

    const NodeId mv = min_arc == kNone
                          ? kNoNode
                          : net_->arc_owner(static_cast<std::uint32_t>(min_arc));
    const NodeId wv = min_wake == kNone ? kNoNode : static_cast<NodeId>(min_wake);
    const NodeId v = mv <= wv ? mv : wv;
    std::span<const Inbound> box{};
    if (mv == v) {
      // Drain all of v's arcs across the sources in increasing (global
      // arc index == port) order. Single-message inboxes (the common case
      // in pipelined passes) are handed out as a span into the source
      // flight buffer; only multi-message inboxes gather into inbox_[s]
      // to make the port-sorted view contiguous. Receiving ports are
      // filled in here (send() leaves them blank to stay lookup-free).
      const std::uint32_t base = net_->arc_base(v);
      const std::size_t end = base + net_->port_count(v);
      Flight& f0 = *src[min_src];
      Inbound& first = f0.msgs[slot[min_arc]];
      first.port = static_cast<std::uint32_t>(min_arc) - base;
      [[maybe_unused]] std::size_t prev = min_arc;
      {
        const std::size_t a = f0.arcs.next_at_least(min_arc + 1);
        arc_cur[min_src] = (a >= arc_hi) ? kNone : a;
      }
      std::size_t cnt = 1;
      for (;;) {
        std::size_t a = kNone;
        std::uint32_t af = 0;
        for (std::uint32_t f = 0; f < nlive; ++f) {
          if (arc_cur[f] < a) {
            a = arc_cur[f];
            af = f;
          }
        }
        if (a >= end) break;
        // A (sender, port) pair addresses a unique receiving arc and a
        // node's sends all run on one context, so two sources can never
        // carry the same arc; a repeat here would be a simulator bug.
        CPT_ASSERT(a != prev);
        prev = a;
        if (cnt == 1) {
          gather.clear();
          gather.push_back(first);
        }
        Flight& ff = *src[af];
        gather.push_back({static_cast<std::uint32_t>(a) - base,
                          ff.msgs[slot[a]].msg});
        ++cnt;
        const std::size_t nxt = ff.arcs.next_at_least(a + 1);
        arc_cur[af] = (nxt >= arc_hi) ? kNone : nxt;
      }
      box = cnt == 1 ? std::span<const Inbound>{&first, 1}
                     : std::span<const Inbound>{gather};
    }
    if (wv == v) {
      for (std::uint32_t f = 0; f < nlive; ++f) {
        if (wake_cur[f] != static_cast<std::size_t>(v)) continue;
        const std::size_t w = src[f]->wakes.next_at_least(v + 1);
        wake_cur[f] = (w >= hi) ? kNone : w;
      }
    }
    program.on_wake(ex, v, box);
  }
}

PassResult Simulator::run(Program& program, std::uint64_t max_rounds) {
  // Drop anything left in flight: the final round's delivered flights of a
  // quiesced previous run (cleared lazily, see below) or everything a
  // max_rounds-abandoned run left behind. O(leftover).
  for (unsigned gen = 0; gen < 2; ++gen) {
    for (Flight& f : flights_[gen]) clear_flight(f);
  }
  round_ = 0;
  cur_ = 0;

  PassResult result;
  const auto aim_execs = [this] {
    for (std::uint32_t s = 0; s <= workers_; ++s) {
      execs_[s]->out_ = &flights_[cur_ ^ 1][s];
      execs_[s]->slot_ = slot_[cur_ ^ 1].data();
    }
  };
  aim_execs();
  // A run abandoned at max_rounds leaves stale per-context counters behind;
  // zero them alongside the flights.
  for (const std::unique_ptr<Exec>& e : execs_) {
    e->sent_msgs_ = 0;
    e->sent_wakes_ = 0;
  }
  program.begin(*execs_[0]);
  // In-flight totals of the generation about to be delivered, maintained
  // incrementally by the contexts and harvested once per round -- the old
  // per-round flight scans are gone.
  std::uint64_t next_msgs = 0;
  std::uint64_t next_wakes = 0;
  harvest_counters(next_msgs, next_wakes);
  while (next_msgs + next_wakes != 0) {
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
    aim_execs();
    result.messages += next_msgs;
    const std::uint64_t work = next_msgs + next_wakes;
    next_msgs = 0;
    next_wakes = 0;

    // Delivery-path tallies are schedule-dependent (they vary with the
    // worker count), so they flush to rt/ metrics at the end of the pass
    // rather than into the trace stream.
    if (util::kTraceCompiled && trace_ != nullptr) {
      if (workers_ == 1) {
        ++trace_serial_rounds_;
      } else {
        ++trace_merge_rounds_;
        trace_merge_work_ += work;
      }
    }

    // The out-generation flights still hold the round delivered two rounds
    // ago (delivery is a read-only walk; clearing is deferred to here so
    // the in-generation stays intact while every shard reads it). Nobody
    // reads the out generation during this round, so each worker clears
    // its own flight before processing; the driver flight falls to the
    // main thread either way.
    if (workers_ == 1) {
      // Exactly one of the two flights carries this round (see
      // run_round_single); the drain clears it in place.
      Flight& f0 = flights_[cur_][0];
      Flight& f1 = flights_[cur_][1];
      const bool f0_live = !f0.arcs.empty() || !f0.wakes.empty();
      CPT_ASSERT(!f0_live || (f1.arcs.empty() && f1.wakes.empty()));
      run_round_single(program, f0_live ? f0 : f1);
    } else if (pool_ != nullptr && work >= parallel_grain_ * workers_) {
      clear_flight(flights_[cur_ ^ 1][0]);
      Program* prog = &program;
      if (util::kTraceCompiled && trace_ != nullptr) {
        // Traced pooled dispatch: sample each worker's wake latency
        // (dispatch to first instruction) into an rt/ histogram. The
        // extra timestamping lives only on this branch so untraced runs
        // keep the exact lambdas below.
        ++trace_pooled_rounds_;
        const std::uint64_t t0 = util::trace_now_ns();
        std::uint64_t wake_at[kMaxWorkers] = {};
        pool_->run([this, prog, &wake_at](unsigned w) {
          wake_at[w] = util::trace_now_ns();
          const std::uint32_t s = w + 1;
          clear_flight(flights_[cur_ ^ 1][s]);
          process_shard(*prog, s);
        });
        if (util::MetricsRegistry* m = trace_->metrics()) {
          for (unsigned w = 0; w < workers_; ++w) {
            m->record("rt/sim/pool_wake_ns", wake_at[w] - t0);
          }
        }
      } else {
        pool_->run([this, prog](unsigned w) {
          const std::uint32_t s = w + 1;
          clear_flight(flights_[cur_ ^ 1][s]);
          process_shard(*prog, s);
        });
      }
    } else {
      for (Flight& f : flights_[cur_ ^ 1]) clear_flight(f);
      for (std::uint32_t s = 1; s <= workers_; ++s) process_shard(program, s);
    }
    harvest_counters(next_msgs, next_wakes);
  }
  result.rounds = round_;
  if (util::kTraceCompiled && trace_ != nullptr) {
    if (util::MetricsRegistry* m = trace_->metrics()) {
      if (trace_serial_rounds_ != 0) {
        m->add_counter("rt/sim/serial_rounds", trace_serial_rounds_);
      }
      if (trace_merge_rounds_ != 0) {
        m->add_counter("rt/sim/merge_rounds", trace_merge_rounds_);
        m->add_counter("rt/sim/merge_delivered_work", trace_merge_work_);
      }
      if (trace_pooled_rounds_ != 0) {
        m->add_counter("rt/sim/pooled_rounds", trace_pooled_rounds_);
      }
    }
    trace_serial_rounds_ = 0;
    trace_merge_rounds_ = 0;
    trace_merge_work_ = 0;
    trace_pooled_rounds_ = 0;
  }
  return result;
}

}  // namespace cpt::congest
