#include "scenario/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "apps/bipartite.h"
#include "apps/cycle_free.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/tester.h"
#include "partition/random_partition.h"
#include "scenario/faultinject.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "util/contracts.h"
#include "util/parallel.h"

namespace cpt::scenario {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// BatchOptions::threads: 0 defers to the CPT_TEST_THREADS environment
// variable (the CI knob that runs whole test suites at a wider batch),
// else 1; the result is clamped to [1, kMaxBatchThreads].
unsigned resolve_batch_threads(unsigned requested) {
  long t = requested;
  if (t == 0) {
    const char* env = std::getenv("CPT_TEST_THREADS");
    t = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  }
  return static_cast<unsigned>(std::clamp<long>(t, 1, kMaxBatchThreads));
}

}  // namespace

JobResult run_job(const Job& job, const Graph& g, RunState* state,
                  util::TraceBuffer* trace, Stage1Record* stage1_record,
                  const Stage1Record* stage1_replay) {
  JobResult r;
  r.n = g.num_nodes();
  r.m = g.num_edges();
  congest::SimMemory* const mem =
      state != nullptr ? &state->sim_memory : nullptr;
  Stage1Scratch* const scratch = state != nullptr ? &state->stage1 : nullptr;
  std::size_t job_span = 0;
  if (trace != nullptr) job_span = trace->begin_span("job");
  const double t0 = now_seconds();
  try {
    if (fault_fires(job.job_index)) fault_exit();
    switch (job.tester) {
      case TesterKind::kPlanarity: {
        TesterOptions opt;
        opt.epsilon = job.epsilon;
        opt.seed = job.tester_seed;
        opt.max_rounds = job.max_rounds;
        opt.sim_memory = mem;
        opt.stage1.adaptive = job.adaptive;
        opt.stage1.pipelined_streams = job.pipelined;
        opt.stage1.scratch = scratch;
        opt.stage1.record = stage1_record;
        opt.stage1.replay = stage1_replay;
        opt.trace = trace;
        const TesterResult tr = test_planarity(g, opt);
        r.verdict = tr.verdict;
        r.rounds = tr.ledger.total_rounds();
        r.messages = tr.ledger.total_messages();
        r.num_parts = tr.partition.num_parts;
        r.cut_edges = tr.partition.cut_edges;
        r.max_part_ecc = tr.partition.max_part_ecc;
        r.max_tree_depth = tr.partition.max_tree_depth;
        r.stage1_phases = tr.stage1_phases_emulated;
        r.stage1_phases_total = tr.stage1_phases_total;
        break;
      }
      case TesterKind::kCycleFree:
      case TesterKind::kBipartite: {
        MinorFreeOptions opt;
        opt.epsilon = job.epsilon;
        opt.alpha = job.alpha;
        opt.randomized = job.randomized;
        opt.delta = job.delta;
        opt.seed = job.tester_seed;
        opt.adaptive_phases = job.adaptive;
        opt.pipelined_streams = job.pipelined;
        opt.max_rounds = job.max_rounds;
        opt.sim_memory = mem;
        opt.scratch = scratch;
        opt.stage1_record = stage1_record;
        opt.stage1_replay = stage1_replay;
        opt.trace = trace;
        const AppResult ar = job.tester == TesterKind::kCycleFree
                                 ? test_cycle_freeness(g, opt)
                                 : test_bipartiteness(g, opt);
        r.verdict = ar.verdict;
        r.rounds = ar.ledger.total_rounds();
        r.messages = ar.ledger.total_messages();
        r.num_parts = ar.partition.num_parts;
        r.cut_edges = ar.partition.cut_edges;
        r.max_part_ecc = ar.partition.max_part_ecc;
        r.max_tree_depth = ar.partition.max_tree_depth;
        break;
      }
      case TesterKind::kStage1Partition: {
        congest::Network net(g);
        congest::SimOptions sopt;
        sopt.max_rounds = job.max_rounds;
        sopt.memory = mem;
        sopt.trace = trace;
        congest::Simulator sim(net, sopt);
        congest::RoundLedger ledger;
        ledger.set_trace(trace);
        Stage1Options opt;
        opt.epsilon = job.epsilon;
        opt.alpha = job.alpha;
        opt.adaptive = job.adaptive;
        opt.pipelined_streams = job.pipelined;
        opt.scratch = scratch;
        opt.record = stage1_record;
        opt.replay = stage1_replay;
        const Stage1Result sr = run_stage1(sim, g, opt, ledger);
        r.verdict = sr.rejected ? Verdict::kReject : Verdict::kAccept;
        r.rounds = ledger.total_rounds();
        r.messages = ledger.total_messages();
        r.stage1_phases = sr.phases_emulated;
        r.stage1_phases_total = sr.phases_total;
        r.phase_stats = sr.phase_stats;
        const PartitionStats st = measure_partition(g, sr.forest);
        r.num_parts = st.num_parts;
        r.cut_edges = st.cut_edges;
        r.max_part_ecc = st.max_part_ecc;
        r.max_tree_depth = st.max_tree_depth;
        break;
      }
      case TesterKind::kRandomPartition: {
        CPT_EXPECTS(stage1_record == nullptr && stage1_replay == nullptr);
        congest::Network net(g);
        congest::SimOptions sopt;
        sopt.max_rounds = job.max_rounds;
        sopt.memory = mem;
        sopt.trace = trace;
        congest::Simulator sim(net, sopt);
        congest::RoundLedger ledger;
        ledger.set_trace(trace);
        RandomPartitionOptions opt;
        opt.epsilon = job.epsilon;
        opt.delta = job.delta;
        opt.alpha = job.alpha;
        opt.adaptive = job.adaptive;
        opt.seed = job.tester_seed;
        opt.scratch = scratch;
        const RandomPartitionResult rr =
            run_random_partition(sim, g, opt, ledger);
        r.verdict = Verdict::kAccept;  // Theorem 4 has no reject path
        r.rounds = ledger.total_rounds();
        r.messages = ledger.total_messages();
        r.stage1_phases = rr.phases_emulated;
        r.stage1_phases_total = rr.phases_total;
        r.trials_per_phase = rr.trials_per_phase;
        r.phase_stats = rr.phase_stats;
        const PartitionStats st = measure_partition(g, rr.forest);
        r.num_parts = st.num_parts;
        r.cut_edges = st.cut_edges;
        r.max_part_ecc = st.max_part_ecc;
        r.max_tree_depth = st.max_tree_depth;
        break;
      }
    }
  } catch (const congest::RoundBudgetExceeded& e) {
    // A refused job, not a failed one: deterministic (same instance, same
    // budget, same round count), so the result cache stores it, and it is
    // counted apart from failures so callers can render it distinctly.
    r = JobResult{};
    r.n = g.num_nodes();
    r.m = g.num_edges();
    r.timed_out = true;
    r.error = e.what();
  } catch (const std::exception& e) {
    r = JobResult{};
    r.n = g.num_nodes();
    r.m = g.num_edges();
    r.failed = true;
    r.error = e.what();
  }
  r.wall_seconds = now_seconds() - t0;
  if (trace != nullptr) {
    util::TraceArgs args;
    args.add_hex("instance", job.instance.hash())
        .add("tester", tester_name(job.tester))
        .add("epsilon", job.epsilon)
        .add("verdict", r.timed_out  ? "timed_out"
                        : r.failed   ? "failed"
                        : r.verdict == Verdict::kReject ? "reject"
                                                        : "accept")
        .add("rounds", r.rounds)
        .add("messages", r.messages)
        .add("n", static_cast<std::uint64_t>(r.n))
        .add("m", static_cast<std::uint64_t>(r.m));
    if (!r.error.empty()) args.add("error", r.error);
    trace->end_span(job_span, std::move(args));
  }
  return r;
}

namespace {

// Jobs whose Stage I is one computation (see Stage1Record): the graph
// slot, every input of the Stage1Options run_job builds, and the round
// budget. Planarity runs Stage I at the default (planar) alpha whatever
// the job's alpha. Jobs whose partition reads the tester seed --
// random_partition and the randomized testers -- have no key.
struct ShareKey {
  std::uint32_t slot = 0;
  double epsilon = 0;
  std::uint32_t alpha = 0;
  bool adaptive = false;
  bool pipelined = false;
  std::uint64_t max_rounds = 0;
  bool operator==(const ShareKey&) const = default;
};

std::optional<ShareKey> share_key(const Job& job, std::uint32_t slot) {
  std::uint32_t alpha = job.alpha;
  switch (job.tester) {
    case TesterKind::kPlanarity:
      alpha = Stage1Options{}.alpha;
      break;
    case TesterKind::kCycleFree:
    case TesterKind::kBipartite:
      if (job.randomized) return std::nullopt;
      break;
    case TesterKind::kStage1Partition:
      break;
    case TesterKind::kRandomPartition:
      return std::nullopt;
  }
  return ShareKey{slot,          job.epsilon,  alpha,
                  job.adaptive,  job.pipelined, job.max_rounds};
}

// Job claiming by unit, with Stage I sharing. A unit is a maximal run of
// consecutive jobs with one share key (a job without a key is a unit of
// its own). When a unit holds two or more jobs that the result cache does
// not serve, the first of them is its leader: it captures its Stage I and
// publishes the record once its result is in. The unit's other unserved
// jobs, its followers, replay that record -- or simulate Stage I
// themselves when the leader captured none (it failed before Stage I
// finished). Which jobs replay is therefore a function of the job list
// and the served set alone, never of the schedule.
//
// A worker claims a whole unit and runs its jobs in order, so it never
// waits for its own leader. Once every unit is claimed, idle workers help:
// they take the unclaimed jobs of units whose leader has published, and
// wait for a publication while a leader with unclaimed followers runs.
class ClaimUnits {
 public:
  ClaimUnits(const std::vector<Job>& jobs,
             const std::vector<std::uint32_t>& job_slot,
             const std::function<bool(std::uint32_t)>& served,
             unsigned workers, const std::atomic<bool>* cancel)
      : unit_of_(jobs.size()),
        role_(jobs.size(), Role::kPlain),
        owned_(workers),
        cancel_(cancel) {
    for (std::atomic<std::uint32_t>& o : owned_) o.store(kNone);
    std::optional<ShareKey> prev;
    for (std::uint32_t j = 0; j < jobs.size(); ++j) {
      const std::optional<ShareKey> key = share_key(jobs[j], job_slot[j]);
      if (units_.empty() || !key || key != prev) {
        if (!units_.empty()) units_.back().end = j;
        units_.emplace_back().next.store(j);
      }
      unit_of_[j] = static_cast<std::uint32_t>(units_.size() - 1);
      prev = key;
    }
    if (!units_.empty()) {
      units_.back().end = static_cast<std::uint32_t>(jobs.size());
    }
    for (Unit& u : units_) {
      std::uint32_t leader = kNone;
      std::uint32_t followers = 0;
      for (std::uint32_t j = u.next.load(); j < u.end; ++j) {
        if (served(j)) continue;
        if (leader == kNone) {
          leader = j;
        } else {
          role_[j] = Role::kFollower;
          ++followers;
        }
      }
      if (followers == 0) continue;
      role_[leader] = Role::kLeader;
      u.published.store(false);
      u.followers_left.store(followers);
    }
  }

  // The next job for worker w; false once nothing is left to claim (or the
  // batch was cancelled while waiting for a leader).
  bool claim(unsigned w, std::uint32_t* j) {
    std::atomic<std::uint32_t>& own = owned_[w];
    if (const std::uint32_t u = own.load(std::memory_order_relaxed);
        u != kNone && take(units_[u], j)) {
      return true;
    }
    for (;;) {
      const std::uint32_t u = next_unit_.fetch_add(1, std::memory_order_relaxed);
      if (u >= units_.size()) break;
      own.store(u, std::memory_order_relaxed);
      if (take(units_[u], j)) return true;
    }
    own.store(kNone, std::memory_order_relaxed);
    for (;;) {
      std::uint64_t seen = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        seen = publications_;
      }
      bool leader_running = false;
      for (const std::atomic<std::uint32_t>& o : owned_) {
        const std::uint32_t u = o.load(std::memory_order_relaxed);
        if (u == kNone) continue;
        Unit& unit = units_[u];
        if (unit.next.load(std::memory_order_relaxed) >= unit.end) continue;
        if (!unit.published.load(std::memory_order_acquire)) {
          leader_running = true;
        } else if (take(unit, j)) {
          return true;
        }
      }
      if (!leader_running ||
          (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed))) {
        return false;
      }
      // Polls the cancel flag: signal handlers cannot notify.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(20),
                   [&] { return publications_ != seen; });
    }
  }

  // Where job j captures its Stage I: its unit's record if it leads.
  Stage1Record* capture_into(std::uint32_t j) {
    return role_[j] == Role::kLeader ? &units_[unit_of_[j]].record : nullptr;
  }

  // What job j replays: its leader's published record if it follows one
  // that captured Stage I.
  const Stage1Record* replay_from(std::uint32_t j) const {
    const Unit& u = units_[unit_of_[j]];
    return role_[j] == Role::kFollower && u.record.captured ? &u.record
                                                            : nullptr;
  }

  // Job j's result is in: a leader publishes its record; the unit's last
  // follower frees it.
  void finish(std::uint32_t j) {
    Unit& u = units_[unit_of_[j]];
    if (role_[j] == Role::kLeader) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        u.published.store(true, std::memory_order_release);
        ++publications_;
      }
      cv_.notify_all();
    } else if (role_[j] == Role::kFollower) {
      if (u.record.captured) replayed_.fetch_add(1, std::memory_order_relaxed);
      if (u.followers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        u.record = Stage1Record{};
      }
    }
  }

  // Followers that were handed a captured record.
  std::uint32_t replayed() const { return replayed_.load(); }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};  // no unit / job
  enum class Role : std::uint8_t { kPlain, kLeader, kFollower };
  struct Unit {
    std::uint32_t end = 0;               // one past the unit's last job
    std::atomic<std::uint32_t> next{0};  // next unclaimed job
    std::atomic<bool> published{true};   // false while a leader is due
    std::atomic<std::uint32_t> followers_left{0};
    Stage1Record record;  // the leader's; read-only once published
  };

  static bool take(Unit& u, std::uint32_t* j) {
    const std::uint32_t k = u.next.fetch_add(1, std::memory_order_relaxed);
    if (k >= u.end) return false;
    *j = k;
    return true;
  }

  std::deque<Unit> units_;  // stable addresses: Unit holds atomics
  std::vector<std::uint32_t> unit_of_;
  std::vector<Role> role_;
  std::atomic<std::uint32_t> next_unit_{0};
  // Per worker: the unit it claimed last, kNone once it helps. A unit
  // with unclaimed jobs is always some worker's.
  std::vector<std::atomic<std::uint32_t>> owned_;
  const std::atomic<bool>* cancel_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t publications_ = 0;  // guarded by mu_
  std::atomic<std::uint32_t> replayed_{0};
};

// Materializes one instance into `*out`: a corpus hit, else
// build_instance (+ save). Returns true if the graph came off disk.
bool materialize_instance(const CorpusStore& store,
                          const ScenarioInstance& instance, bool cacheable,
                          Graph* out, bool* corrupt_file) {
  if (cacheable) {
    const CorpusStore::LoadStatus status = store.load(instance.hash(), out);
    if (status == CorpusStore::LoadStatus::kHit) return true;
    *corrupt_file = status == CorpusStore::LoadStatus::kCorrupt;
  }
  *out = build_instance(instance);
  if (cacheable) store.save(instance.hash(), *out);
  return false;
}

// Runs the execute-phase pool with a "batch/execute" span on the batch
// track when tracing. During the pool run nothing else writes track 0
// (workers write their own job tracks), so the span bracketing is safe.
template <typename Fn>
void run_execute_phase(util::TraceBuffer* batch_track, WorkerPool& pool,
                       Fn&& fn) {
  if (batch_track == nullptr) {
    pool.run(fn);
    return;
  }
  const std::uint64_t start = batch_track->now_ns();
  pool.run(fn);
  batch_track->complete_span("batch/execute", start);
}

}  // namespace

BatchResult run_batch(const Manifest& manifest, const BatchOptions& options) {
  BatchResult out;
  const double t0 = now_seconds();
  out.jobs = expand_manifest(manifest);
  util::TraceSession* const trace = options.trace;

  // Concurrent simulations: the resolved --threads value.
  const unsigned workers = resolve_batch_threads(options.threads);
  out.threads_used = workers;

  // Track 0 carries the batch phase spans. The resolved worker counts are
  // --threads dependent, so they go to runtime metrics, keeping the trace
  // stream byte-identical at every --threads value.
  util::TraceBuffer* batch_track = nullptr;
  if (trace != nullptr) {
    batch_track = trace->make_track(0, "batch");
    batch_track->instant("batch/start",
                         util::TraceArgs().add(
                             "jobs", static_cast<std::uint64_t>(out.jobs.size())));
    trace->metrics().set_gauge("rt/batch/workers",
                               static_cast<double>(workers));
  }

  // Unique instances (by hash), in first-job order, and the job -> slot map.
  struct Slot {
    ScenarioInstance instance;
    Graph graph;
    bool from_disk = false;
    bool corrupt_file = false;
    std::string error;  // materialization failure: all its jobs fail
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> job_slot(out.jobs.size());
  {
    std::unordered_map<std::uint64_t, std::uint32_t> by_hash;
    for (std::size_t j = 0; j < out.jobs.size(); ++j) {
      const std::uint64_t h = out.jobs[j].instance.hash();
      auto [it, fresh] =
          by_hash.emplace(h, static_cast<std::uint32_t>(slots.size()));
      if (fresh) slots.push_back({out.jobs[j].instance, Graph{}, false, false, {}});
      job_slot[j] = it->second;
    }
  }
  out.corpus.unique_instances = slots.size();

  const CorpusStore store(options.corpus_dir);
  WorkerPool pool(workers);

  const auto cancelled = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };
  // Phase 0: consult the persistent result cache. Lookups are per-job
  // file reads, parallel across the pool; the hit set is a pure function
  // of the cache directory's state and the job list, never the schedule.
  ResultCache* const cache =
      options.result_cache != nullptr && options.result_cache->enabled()
          ? options.result_cache
          : nullptr;
  std::vector<JobResult> cache_results;
  std::vector<char> cache_hit;
  if (cache != nullptr) {
    cache_results.resize(out.jobs.size());
    cache_hit.assign(out.jobs.size(), 0);
    std::atomic<std::uint32_t> cursor{0};
    pool.run([&](unsigned) {
      while (!cancelled()) {
        const std::uint32_t j =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= out.jobs.size()) return;
        JobResult r;
        if (cache->load(out.jobs[j], &r) == ResultCache::LoadStatus::kHit) {
          cache_results[j] = std::move(r);
          cache_hit[j] = 1;
        }
      }
    });
  }
  const auto cache_hit_job = [&](std::uint32_t j) {
    return !cache_hit.empty() && cache_hit[j] != 0;
  };

  // Instances whose every job the result cache serves never need their
  // graph: skip materialization entirely, the big win of a warm cache.
  // The skip set derives from phase 0, so it is schedule-deterministic
  // like everything else.
  std::vector<char> slot_needed(slots.size(), cache == nullptr ? 1 : 0);
  if (cache != nullptr) {
    for (std::size_t j = 0; j < out.jobs.size(); ++j) {
      if (cache_hit[j] == 0) slot_needed[job_slot[j]] = 1;
    }
  }

  // Phase 1: materialize every needed unique instance (corpus load or
  // generate), embarrassingly parallel, one slot per instance. Generation
  // failures are captured per slot -- worker callables must not throw --
  // and fail every job of the slot; a corrupt corpus file is not an error
  // at all (kCorrupt regenerates).
  {
    std::atomic<std::uint32_t> cursor{0};
    auto materialize = [&](unsigned) {
      while (!cancelled()) {
        const std::uint32_t i =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= slots.size()) return;
        if (slot_needed[i] == 0) {
          if (trace != nullptr) {
            trace
                ->make_track(1 + i,
                             "instance " + slots[i].instance.label_with_seed())
                ->instant("corpus/skipped");
          }
          continue;
        }
        Slot& slot = slots[i];
        util::TraceBuffer* slot_track = nullptr;
        std::size_t slot_span = 0;
        if (trace != nullptr) {
          slot_track = trace->make_track(
              1 + i, "instance " + slot.instance.label_with_seed());
          slot_span = slot_track->begin_span("materialize");
        }
        // The "file" family's identity is a path, not content: a cached
        // copy would silently survive edits to the edge-list file, so it
        // never touches the disk corpus (loading it is already cheap).
        const bool cacheable = slot.instance.family != "file";
        try {
          slot.from_disk = materialize_instance(store, slot.instance, cacheable,
                                                &slot.graph, &slot.corrupt_file);
        } catch (const std::exception& e) {
          slot.error = e.what();
        }
        if (slot_track != nullptr) {
          if (slot.corrupt_file) slot_track->instant("corpus/corrupt");
          util::TraceArgs args;
          args.add_hex("hash", slot.instance.hash());
          if (!slot.error.empty()) {
            slot_track->instant("corpus/failed");
            args.add("status", "failed").add("error", slot.error);
          } else {
            slot_track->instant(slot.from_disk ? "corpus/hit"
                                               : "corpus/generated");
            args.add("status", slot.from_disk ? "hit" : "generated")
                .add("n", static_cast<std::uint64_t>(slot.graph.num_nodes()))
                .add("m", static_cast<std::uint64_t>(slot.graph.num_edges()));
          }
          slot_track->end_span(slot_span, std::move(args));
        }
      }
    };
    if (batch_track != nullptr) {
      const std::uint64_t mstart = batch_track->now_ns();
      pool.run(materialize);
      batch_track->complete_span(
          "batch/materialize", mstart,
          util::TraceArgs().add(
              "unique_instances",
              static_cast<std::uint64_t>(slots.size())));
    } else {
      pool.run(materialize);
    }
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slot_needed[i] == 0) {
      ++out.corpus.skipped;
      continue;
    }
    if (slots[i].corrupt_file) ++out.corpus.corrupt_files;
    if (!slots[i].error.empty()) continue;  // failed: neither hit nor built
    if (slots[i].from_disk) {
      ++out.corpus.disk_hits;
    } else {
      ++out.corpus.generated;
    }
  }

  // Phase 2: run the jobs. Claiming order is racy; result placement is by
  // job slot, so the result array is schedule-independent. Jobs are claimed
  // by unit so each unit simulates Stage I once (see ClaimUnits).
  ClaimUnits claims(out.jobs, job_slot, cache_hit_job, workers,
                    options.cancel);
  // One job's outcome: the result cache (phase 0), a materialization
  // failure propagated to every dependent job, or an actual run.
  const auto produce = [&](std::uint32_t j, RunState* state) -> JobResult {
    // Job tracks follow the instance tracks in id space; the label is a
    // pure function of the expansion, so the layout is schedule-invariant.
    util::TraceBuffer* job_track = nullptr;
    if (trace != nullptr) {
      job_track = trace->make_track(
          1 + slots.size() + j,
          "job " + std::to_string(j) + " " + out.jobs[j].cell_key() + " i" +
              std::to_string(out.jobs[j].instance_index) + " t" +
              std::to_string(out.jobs[j].trial));
    }
    if (cache_hit_job(j)) {
      if (job_track != nullptr) job_track->instant("job/cache_hit");
      return std::move(cache_results[j]);
    }
    const Slot& slot = slots[job_slot[j]];
    if (!slot.error.empty()) {
      JobResult r;
      r.failed = true;
      r.error = slot.error;
      if (job_track != nullptr) {
        job_track->instant("job/slot_error",
                           util::TraceArgs().add("error", slot.error));
      }
      return r;
    }
    Stage1Record* const record = claims.capture_into(j);
    const Stage1Record* const replay = claims.replay_from(j);
    return run_job(out.jobs[j], slot.graph, state, job_track, record, replay);
  };
  // One pooled RunState per batch worker, reused across every job that
  // worker claims (never shared concurrently: worker w touches states[w]
  // only). Allocation reuse only -- results stay schedule-independent.
  std::vector<RunState> states(workers);
  // Per-worker busy nanoseconds (time inside produce), sampled only when
  // tracing; flushed to an rt/ histogram after the pool joins.
  std::vector<std::uint64_t> busy_ns(workers, 0);
  out.results.resize(out.jobs.size());
  // Per-index flag, written by the one worker that claimed the index and
  // read only after the pool joins -- no atomics needed.
  std::vector<char> executed(out.jobs.size(), 0);
  auto execute = [&](unsigned w) {
    std::uint32_t j = 0;
    while (!cancelled() && claims.claim(w, &j)) {
      const std::uint64_t b0 = trace != nullptr ? util::trace_now_ns() : 0;
      out.results[j] = produce(j, &states[w]);
      claims.finish(j);
      if (trace != nullptr) busy_ns[w] += util::trace_now_ns() - b0;
      // A fresh result populates the cache as soon as it is in (hits are
      // already there; failures are rejected by store()). A store failure
      // only costs the next run a re-execution, so it is not an error.
      if (cache != nullptr && !cache_hit_job(j) && !out.results[j].failed) {
        cache->store(out.jobs[j], out.results[j]);
      }
      executed[j] = 1;
    }
  };
  run_execute_phase(batch_track, pool, execute);
  if (trace != nullptr) {
    for (unsigned w = 0; w < workers; ++w) {
      trace->metrics().record("rt/batch/worker_busy_ns", busy_ns[w]);
    }
  }
  for (std::size_t j = 0; j < out.results.size(); ++j) {
    JobResult& r = out.results[j];
    if (executed[j] == 0) {
      // Cancelled before this job ran: a default JobResult would count as
      // an accept, so the slot is marked failed and joins no cell. Nothing
      // failed, though, so failed_jobs leaves it out.
      r.failed = true;
      r.error = "cancelled before execution";
      out.cancelled = true;
      continue;
    }
    ++out.completed_jobs;
    if (r.timed_out) {
      ++out.timed_out_jobs;
    } else if (r.failed) {
      ++out.failed_jobs;
    }
    if (cache_hit_job(j)) ++out.cache_hit_jobs;
  }

  out.stage1_replayed_jobs = claims.replayed();
  out.wall_seconds = now_seconds() - t0;
  if (trace != nullptr) {
    // Deterministic batch counters: pure functions of the manifest, the
    // corpus state and the result cache -- never of the schedule.
    util::MetricsRegistry& m = trace->metrics();
    m.add_counter("batch/jobs", out.jobs.size());
    m.add_counter("batch/completed_jobs", out.completed_jobs);
    m.add_counter("batch/failed_jobs", out.failed_jobs);
    m.add_counter("batch/timed_out_jobs", out.timed_out_jobs);
    m.add_counter("batch/cache_hit_jobs", out.cache_hit_jobs);
    m.add_counter("batch/stage1_replayed_jobs", out.stage1_replayed_jobs);
    m.add_counter("corpus/unique_instances", out.corpus.unique_instances);
    m.add_counter("corpus/disk_hits", out.corpus.disk_hits);
    m.add_counter("corpus/generated", out.corpus.generated);
    m.add_counter("corpus/corrupt_files", out.corpus.corrupt_files);
    m.add_counter("corpus/skipped", out.corpus.skipped);
  }
  return out;
}

MaterializeResult materialize_manifest(const Manifest& manifest,
                                       const BatchOptions& options) {
  MaterializeResult out;
  const std::vector<Job> jobs = expand_manifest(manifest);
  // Unique instances by hash, first-job order (mirrors run_batch's dedup).
  std::vector<ScenarioInstance> instances;
  {
    std::unordered_map<std::uint64_t, std::uint32_t> by_hash;
    for (const Job& job : jobs) {
      if (by_hash
              .emplace(job.instance.hash(),
                       static_cast<std::uint32_t>(instances.size()))
              .second) {
        instances.push_back(job.instance);
      }
    }
  }
  out.corpus.unique_instances = instances.size();

  const CorpusStore store(options.corpus_dir);
  const unsigned workers = resolve_batch_threads(options.threads);
  WorkerPool pool(workers);
  std::mutex mu;  // guards the result counters/errors only
  std::atomic<std::uint32_t> cursor{0};
  auto work = [&](unsigned) {
    while (true) {
      const std::uint32_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= instances.size()) return;
      const ScenarioInstance& instance = instances[i];
      const bool cacheable = instance.family != "file";
      std::string error;
      bool from_disk = false;
      bool corrupt = false;
      try {
        // The graph dies at scope exit: materialize-only never keeps an
        // instance resident.
        Graph g;
        from_disk =
            materialize_instance(store, instance, cacheable, &g, &corrupt);
      } catch (const std::exception& e) {
        error = e.what();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!error.empty()) {
        ++out.failed_instances;
        out.errors.push_back(instance.label_with_seed() + ": " + error);
      } else if (from_disk) {
        ++out.corpus.disk_hits;
      } else {
        ++out.corpus.generated;
      }
      if (corrupt) ++out.corpus.corrupt_files;
    }
  };
  pool.run(work);
  return out;
}

}  // namespace cpt::scenario
