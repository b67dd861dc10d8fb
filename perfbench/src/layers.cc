// The traced run (--trace 1): per-layer metrics, timed from outside each
// layer's entry points. Three sources:
//  1. traced run_batch calls (BatchOptions::trace), alternated with
//     untraced ones: pass-level spans, engine job timings, rt/ counters
//     and the tracing overhead;
//  2. a serial replay that calls the layer entry points one at a time and
//     must reproduce every job's verdict, rounds, messages and the
//     aggregate bytes of the untraced batch;
//  3. probes that drive Simulator::run and WorkerPool with the
//     benchmark's own programs.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "apps/bipartite.h"
#include "apps/cycle_free.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/stage2.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "perfbench.h"
#include "scenario/aggregate.h"
#include "scenario/corpus.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "util/parallel.h"

namespace perfbench {

namespace congest = cpt::congest;

namespace {

double ms_since(double t0) { return 1e3 * (wall_now() - t0); }
double us_since(double t0) { return 1e6 * (wall_now() - t0); }

// Track layout of a traced batch (scenario/engine.h): 0 = batch phases,
// 1 + slot = instance materialization, 1 + slots + job = jobs.
const cpt::util::TraceBuffer& job_track(cpt::util::TraceSession& session,
                                        const sc::BatchResult& batch,
                                        std::size_t job) {
  return *session.make_track(1 + batch.corpus.unique_instances + job, "");
}

bool is_span(const cpt::util::TraceEvent& e) {
  return e.kind == cpt::util::TraceEvent::kSpan;
}

// ---- 1. Traced batches ----------------------------------------------------

using Values = std::map<std::string, double>;

// Ledger pass spans, by name prefix, to the layer metric they feed. The
// first matching prefix wins; every pass span covers the wall time since
// the previous pass boundary, host-side work between passes included.
constexpr std::pair<const char*, const char*> kPassLayers[] = {
    {"stage1/peel", "partition.peel_ms"},
    {"stage1/", "partition.merge_ms"},
    {"stage2/sample-collect", "core.sample_collect_ms"},
    {"stage2/nontree-exchange", "core.nontree_exchange_ms"},
    {"stage2/labels", "core.labels_ms"},
    {"stage2/gh-embedding", "planar.embed_ms"},
};

std::uint64_t runtime_counter(const sc::JsonValue& metrics,
                              const char* name) {
  const sc::JsonValue* m = metrics.find("metrics");
  const sc::JsonValue* rt = m != nullptr ? m->find("runtime") : nullptr;
  const sc::JsonValue* c = rt != nullptr ? rt->find("counters") : nullptr;
  const sc::JsonValue* v = c != nullptr ? c->find(name) : nullptr;
  return v != nullptr && v->is_integer()
             ? static_cast<std::uint64_t>(v->as_int64())
             : 0;
}

Values rollup(const Iteration& it, cpt::util::TraceSession& session) {
  const sc::BatchResult& b = it.batch;
  Values v;
  for (const auto& [prefix, metric] : kPassLayers) v[metric] = 0;
  for (std::size_t j = 0; j < b.jobs.size(); ++j) {
    for (const cpt::util::TraceEvent& e : job_track(session, b, j).events()) {
      if (!is_span(e)) continue;
      for (const auto& [prefix, metric] : kPassLayers) {
        if (e.name.rfind(prefix, 0) == 0) {
          v[metric] += 1e-6 * static_cast<double>(e.dur_ns);
          break;
        }
      }
    }
  }
  const std::vector<double> fresh = fresh_job_seconds(b, session);
  double busy = 0;
  for (const double s : fresh) busy += s;
  const double workers = b.threads_used;
  v["engine.busy_frac"] = busy / (workers * b.wall_seconds);
  v["engine.tail_s"] = b.wall_seconds - busy / workers;
  v["engine.job_ms_p50"] = 1e3 * quantile(fresh, 0.5);
  v["engine.job_ms_p95"] = 1e3 * quantile(fresh, 0.95);
  v["engine.retries"] = b.total_retries;
  v["corpus.hit_frac"] =
      b.corpus.unique_instances == 0
          ? 0
          : static_cast<double>(b.corpus.disk_hits) /
                static_cast<double>(b.corpus.unique_instances);
  v["result_cache.hit_frac"] =
      b.jobs.empty() ? 0
                     : static_cast<double>(b.cache_hit_jobs) /
                           static_cast<double>(b.jobs.size());
  sc::JsonValue metrics;
  std::string error;
  if (!sc::JsonValue::parse(session.metrics().render_json("perfbench"),
                            &metrics, &error)) {
    throw std::runtime_error("metrics registry: " + error);
  }
  v["congest.sim_rounds"] = static_cast<double>(
      runtime_counter(metrics, "rt/sim/serial_rounds") +
      runtime_counter(metrics, "rt/sim/union_rounds") +
      runtime_counter(metrics, "rt/sim/merge_rounds"));
  return v;
}

// ---- 2. Serial replay ----------------------------------------------------

struct Replay {
  double generate_s = 0, save_ms = 0, load_ms = 0, sim_build_ms = 0;
  double stage1_s = 0, measure_ms = 0, stage2_s = 0, apps_s = 0;
  double stage1_messages = 0, stage1_sim_rounds = 0, stage2_messages = 0;
  double aggregate_ms = 0;
  std::vector<double> store_us, load_us;  // per operation
};

// run_job (scenario/engine.cc) for one job, split at the layer entry
// points so each is timed on its own.
sc::JobResult replay_job(const sc::Job& job, const cpt::Graph& g,
                         sc::RunState* state, Replay* rp) {
  sc::JobResult r;
  r.n = g.num_nodes();
  r.m = g.num_edges();
  const double start = wall_now();
  switch (job.tester) {
    case sc::TesterKind::kPlanarity: {
      double t0 = wall_now();
      const congest::Network net(g);
      congest::SimOptions sopt;
      sopt.num_threads = job.sim_threads;
      sopt.max_rounds = job.max_rounds;
      sopt.memory = &state->sim_memory;
      congest::Simulator sim(net, sopt);
      rp->sim_build_ms += ms_since(t0);
      congest::RoundLedger ledger;
      cpt::Stage1Options s1;
      s1.epsilon = job.epsilon;
      s1.adaptive = job.adaptive;
      s1.pipelined_streams = job.pipelined;
      s1.scratch = &state->stage1;
      t0 = wall_now();
      const cpt::Stage1Result stage1 = cpt::run_stage1(sim, g, s1, ledger);
      rp->stage1_s += wall_now() - t0;
      rp->stage1_messages += static_cast<double>(ledger.total_messages());
      rp->stage1_sim_rounds += static_cast<double>(sim.total_rounds());
      t0 = wall_now();
      const cpt::PartitionStats ps = cpt::measure_partition(g, stage1.forest);
      rp->measure_ms += ms_since(t0);
      r.verdict = cpt::Verdict::kReject;
      if (!stage1.rejected) {
        cpt::Stage2Options s2;
        s2.epsilon = job.epsilon;
        s2.seed = job.tester_seed;
        const std::uint64_t before = ledger.total_messages();
        t0 = wall_now();
        const cpt::Stage2Result stage2 =
            cpt::run_stage2(sim, g, stage1.forest, s2, ledger);
        rp->stage2_s += wall_now() - t0;
        rp->stage2_messages +=
            static_cast<double>(ledger.total_messages() - before);
        r.verdict = stage2.verdict;
      }
      r.rounds = ledger.total_rounds();
      r.messages = ledger.total_messages();
      r.num_parts = ps.num_parts;
      r.cut_edges = ps.cut_edges;
      r.max_part_ecc = ps.max_part_ecc;
      r.max_tree_depth = ps.max_tree_depth;
      r.stage1_phases = stage1.phases_emulated;
      r.stage1_phases_total = stage1.phases_total;
      break;
    }
    case sc::TesterKind::kCycleFree:
    case sc::TesterKind::kBipartite: {
      cpt::MinorFreeOptions opt;
      opt.epsilon = job.epsilon;
      opt.alpha = job.alpha;
      opt.randomized = job.randomized;
      opt.delta = job.delta;
      opt.seed = job.tester_seed;
      opt.adaptive_phases = job.adaptive;
      opt.pipelined_streams = job.pipelined;
      opt.num_threads = job.sim_threads;
      opt.max_rounds = job.max_rounds;
      opt.sim_memory = &state->sim_memory;
      opt.scratch = &state->stage1;
      const double t0 = wall_now();
      const cpt::AppResult ar = job.tester == sc::TesterKind::kCycleFree
                                    ? cpt::test_cycle_freeness(g, opt)
                                    : cpt::test_bipartiteness(g, opt);
      rp->apps_s += wall_now() - t0;
      r.verdict = ar.verdict;
      r.rounds = ar.ledger.total_rounds();
      r.messages = ar.ledger.total_messages();
      r.num_parts = ar.partition.num_parts;
      r.cut_edges = ar.partition.cut_edges;
      r.max_part_ecc = ar.partition.max_part_ecc;
      r.max_tree_depth = ar.partition.max_tree_depth;
      break;
    }
    default:
      throw std::runtime_error(
          "the replay covers the planarity, cycle_free and bipartite "
          "testers only");
  }
  r.wall_seconds = wall_now() - start;
  return r;
}

// Materializes every unique instance from outside: generate, save, then
// load back (mmap plus checksum), as a corpus miss followed by a hit does.
std::unordered_map<std::uint64_t, cpt::Graph> replay_materialize(
    const Run& run, const std::vector<sc::Job>& jobs, Replay* rp) {
  const sc::CorpusStore store(fresh_dir(run.work + "/replay-corpus"));
  std::unordered_map<std::uint64_t, cpt::Graph> graphs;
  for (const sc::Job& job : jobs) {
    const std::uint64_t hash = job.instance.hash();
    if (graphs.count(hash) != 0) continue;
    double t0 = wall_now();
    const cpt::Graph built = sc::build_instance(job.instance);
    rp->generate_s += wall_now() - t0;
    t0 = wall_now();
    const bool saved = store.save(hash, built);
    rp->save_ms += ms_since(t0);
    cpt::Graph mapped;
    t0 = wall_now();
    const sc::CorpusStore::LoadStatus status = store.load(hash, &mapped);
    rp->load_ms += ms_since(t0);
    if (!saved || status != sc::CorpusStore::LoadStatus::kHit) {
      throw std::runtime_error("replay corpus round trip failed for " +
                               job.instance.label_with_seed());
    }
    graphs.emplace(hash, std::move(mapped));
  }
  return graphs;
}

// Replays the untraced batch `plain` one layer call at a time and counts
// every job whose verdict, rounds or messages differ in run->failed.
Replay replay(Run* run, const Iteration& plain) {
  Replay rp;
  const std::vector<sc::Job>& jobs = plain.batch.jobs;
  sc::BatchResult batch;
  batch.jobs = jobs;
  batch.results.resize(jobs.size());
  batch.corpus = plain.batch.corpus;
  batch.completed_jobs = static_cast<std::uint32_t>(jobs.size());
  std::uint64_t mismatches = 0;
  if (run->wl.cache == CacheMode::kWarm) {
    // resweep serves every job from the cache: time each hit.
    const sc::ResultCache cache(run->cache_dir);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const double t0 = wall_now();
      const sc::ResultCache::LoadStatus status =
          cache.load(jobs[j], &batch.results[j]);
      rp.load_us.push_back(us_since(t0));
      if (status != sc::ResultCache::LoadStatus::kHit) ++mismatches;
    }
  } else {
    const auto graphs = replay_materialize(*run, jobs, &rp);
    sc::RunState state;  // pooled across jobs, like one batch worker's
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      batch.results[j] = replay_job(
          jobs[j], graphs.at(jobs[j].instance.hash()), &state, &rp);
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sc::JobResult& a = batch.results[j];
    const sc::JobResult& b = plain.batch.results[j];
    if (a.verdict != b.verdict || a.rounds != b.rounds ||
        a.messages != b.messages) {
      ++mismatches;
      std::fprintf(stderr,
                   "perfbench: replay of job %zu (%s) differs: rounds %llu "
                   "vs %llu, messages %llu vs %llu\n",
                   j, jobs[j].cell_key().c_str(),
                   static_cast<unsigned long long>(a.rounds),
                   static_cast<unsigned long long>(b.rounds),
                   static_cast<unsigned long long>(a.messages),
                   static_cast<unsigned long long>(b.messages));
    }
  }

  // The result cache's store path (and, where the workload did not already
  // time hits, its load path) through an empty directory.
  const sc::ResultCache scratch(fresh_dir(run->work + "/replay-cache"));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const double t0 = wall_now();
    if (!scratch.store(jobs[j], batch.results[j])) ++mismatches;
    rp.store_us.push_back(us_since(t0));
  }
  if (run->wl.cache != CacheMode::kWarm) {
    for (const sc::Job& job : jobs) {
      sc::JobResult back;
      const double t0 = wall_now();
      if (scratch.load(job, &back) != sc::ResultCache::LoadStatus::kHit) {
        ++mismatches;
      }
      rp.load_us.push_back(us_since(t0));
    }
  }

  const double t0 = wall_now();
  const std::vector<sc::CellAggregate> cells = sc::aggregate_cells(batch);
  const std::string json = sc::render_aggregate_json(run->manifest, batch, cells);
  const std::string csv = sc::render_aggregate_csv(cells);
  rp.aggregate_ms = ms_since(t0);
  if (json != plain.aggregate || csv != plain.csv) {
    ++mismatches;
    std::fprintf(stderr, "perfbench: replayed aggregate differs\n");
  }
  run->attempted += jobs.size();
  run->failed += std::min<std::uint64_t>(mismatches, jobs.size());
  return rp;
}

// ---- 3. Probes -----------------------------------------------------------

// One wake-up and no message per round.
class WakeChain final : public congest::Program {
 public:
  explicit WakeChain(std::uint64_t rounds) : rounds_(rounds) {}
  void begin(congest::Exec& ex) override { ex.wake_next_round(0); }
  void on_wake(congest::Exec& ex, cpt::NodeId v,
               std::span<const congest::Inbound>) override {
    if (ex.current_round() < rounds_) ex.wake_next_round(v);
  }

 private:
  std::uint64_t rounds_;
};

// Exactly one message per round, bounced back over the port it came in on.
class PingPong final : public congest::Program {
 public:
  explicit PingPong(std::uint64_t rounds) : rounds_(rounds) {}
  void begin(congest::Exec& ex) override {
    ex.send(0, 0, congest::Msg::make(1));
  }
  void on_wake(congest::Exec& ex, cpt::NodeId v,
               std::span<const congest::Inbound> inbox) override {
    if (ex.current_round() < rounds_) ex.send(v, inbox[0].port, inbox[0].msg);
  }

 private:
  std::uint64_t rounds_;
};

// Every node sends on every port every round: one message per directed
// edge per round, the densest CONGEST-legal load.
class Saturate final : public congest::Program {
 public:
  explicit Saturate(std::uint64_t rounds) : rounds_(rounds) {}
  void begin(congest::Exec& ex) override {
    for (cpt::NodeId v = 0; v < ex.network().num_nodes(); ++v) {
      for (std::uint32_t p = 0; p < ex.network().port_count(v); ++p) {
        ex.send(v, p, congest::Msg::make(p));
      }
    }
  }
  void on_wake(congest::Exec& ex, cpt::NodeId v,
               std::span<const congest::Inbound> inbox) override {
    if (ex.current_round() >= rounds_) return;
    for (const congest::Inbound& in : inbox) ex.send(v, in.port, in.msg);
  }

 private:
  std::uint64_t rounds_;
};

// Nothing to send: run() returns after its fixed per-pass work.
class Idle final : public congest::Program {
 public:
  void begin(congest::Exec&) override {}
  void on_wake(congest::Exec&, cpt::NodeId,
               std::span<const congest::Inbound>) override {}
};

template <typename Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(std::move(v));
}

struct Probes {
  double network_build_ms = 0, saturate_ns_per_msg = 0, empty_round_ns = 0;
  double one_msg_round_ns = 0, empty_pass_us = 0;
  double pool_create_us = 0, dispatch_us = 0;
  bool counts_ok = true;  // every probe pass cost what its program implies
};

Probes probe(unsigned side, unsigned pool_width) {
  Probes p;
  const cpt::Graph g = cpt::gen::triangulated_grid(side, side);
  p.network_build_ms = median_of(5, [&] {
    const double t0 = wall_now();
    const congest::Network net(g);
    const congest::Simulator sim(net);
    return ms_since(t0);
  });
  const congest::Network net(g);
  congest::Simulator sim(net);
  const auto seconds_of = [&](congest::Program& program,
                              std::uint64_t rounds, std::uint64_t messages) {
    const double t0 = wall_now();
    const congest::PassResult r = sim.run(program);
    const double s = wall_now() - t0;
    p.counts_ok = p.counts_ok && r.rounds == rounds && r.messages == messages;
    return s;
  };
  constexpr std::uint64_t kSaturateRounds = 16;
  constexpr std::uint64_t kChainRounds = 20000;
  constexpr int kPasses = 2000;
  const std::uint64_t arcs = 2ULL * g.num_edges();
  p.saturate_ns_per_msg = median_of(3, [&] {
    Saturate program(kSaturateRounds);
    return 1e9 *
           seconds_of(program, kSaturateRounds, kSaturateRounds * arcs) /
           static_cast<double>(kSaturateRounds * arcs);
  });
  p.empty_round_ns = median_of(3, [&] {
    WakeChain program(kChainRounds);
    return 1e9 * seconds_of(program, kChainRounds, 0) / kChainRounds;
  });
  p.one_msg_round_ns = median_of(3, [&] {
    PingPong program(kChainRounds);
    return 1e9 * seconds_of(program, kChainRounds, kChainRounds) /
           kChainRounds;
  });
  p.empty_pass_us = median_of(3, [&] {
    Idle program;
    double s = 0;
    for (int i = 0; i < kPasses; ++i) s += seconds_of(program, 0, 0);
    return 1e6 * s / kPasses;
  });
  p.pool_create_us = median_of(21, [&] {
    const double t0 = wall_now();
    const cpt::WorkerPool pool(pool_width);
    return us_since(t0);
  });
  cpt::WorkerPool pool(pool_width);
  p.dispatch_us = median_of(5, [&] {
    constexpr int kRuns = 200;
    const double t0 = wall_now();
    for (int i = 0; i < kRuns; ++i) pool.run([](unsigned) {});
    return us_since(t0) / kRuns;
  });
  return p;
}

}  // namespace

std::vector<double> fresh_job_seconds(const sc::BatchResult& batch,
                                      cpt::util::TraceSession& session) {
  std::vector<double> out;
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    for (const cpt::util::TraceEvent& e :
         job_track(session, batch, j).events()) {
      if (is_span(e) && e.depth == 0 && e.name == "job") {
        out.push_back(1e-9 * static_cast<double>(e.dur_ns));
      }
    }
  }
  return out;
}

void traced_run(Run* run, double seconds, std::vector<Metric>* out) {
  std::vector<double> plain_wall, traced_wall;
  std::vector<Values> traced;
  Iteration plain;
  const double start = wall_now();
  do {
    plain = run_iteration(run, nullptr);
    plain_wall.push_back(plain.wall_s);
    cpt::util::TraceSession session;
    const Iteration it = run_iteration(run, &session);
    traced_wall.push_back(it.wall_s);
    traced.push_back(rollup(it, session));
  } while (wall_now() - start < seconds);
  std::printf("# %zu untraced and %zu traced batches\n", plain_wall.size(),
              traced_wall.size());

  const Replay rp = replay(run, plain);
  // The pool probes use sweep's batch width whatever the workload.
  const Probes pr = probe(run->wl.probe_side, workloads()[0].threads);
  if (!pr.counts_ok) {
    std::fprintf(stderr, "perfbench: a congest probe pass miscounted\n");
    ++run->failed;
  }
  const auto traced_median = [&](const char* key) {
    std::vector<double> v;
    for (const Values& t : traced) v.push_back(t.at(key));
    return median(std::move(v));
  };
  // Share of Stage I wall time an empty round's fixed cost would explain
  // (the hypothesis that Stage I is bound by per-round cost).
  const double round_overhead_share =
      rp.stage1_s > 0
          ? 1e-9 * pr.empty_round_ns * rp.stage1_sim_rounds / rp.stage1_s
          : 0;
  *out = {
      {"congest.network_build_ms", pr.network_build_ms, "ms"},
      {"congest.sim_build_ms", rp.sim_build_ms, "ms"},
      {"congest.saturate_ns_per_msg", pr.saturate_ns_per_msg, "ns"},
      {"congest.empty_round_ns", pr.empty_round_ns, "ns"},
      {"congest.one_msg_round_ns", pr.one_msg_round_ns, "ns"},
      {"congest.empty_pass_us", pr.empty_pass_us, "us"},
      {"congest.sim_rounds", traced_median("congest.sim_rounds"), "count"},
      {"partition.stage1_s", rp.stage1_s, "s"},
      {"partition.stage1_messages", rp.stage1_messages, "count"},
      {"partition.stage1_sim_rounds", rp.stage1_sim_rounds, "count"},
      {"partition.round_overhead_share", round_overhead_share, "1"},
      {"partition.measure_ms", rp.measure_ms, "ms"},
      {"partition.peel_ms", traced_median("partition.peel_ms"), "ms"},
      {"partition.merge_ms", traced_median("partition.merge_ms"), "ms"},
      {"core.stage2_s", rp.stage2_s, "s"},
      {"core.stage2_messages", rp.stage2_messages, "count"},
      {"core.sample_collect_ms", traced_median("core.sample_collect_ms"),
       "ms"},
      {"core.nontree_exchange_ms",
       traced_median("core.nontree_exchange_ms"), "ms"},
      {"core.labels_ms", traced_median("core.labels_ms"), "ms"},
      {"planar.embed_ms", traced_median("planar.embed_ms"), "ms"},
      {"apps.s", rp.apps_s, "s"},
      {"registry.generate_s", rp.generate_s, "s"},
      {"corpus.save_ms", rp.save_ms, "ms"},
      {"corpus.load_ms", rp.load_ms, "ms"},
      {"corpus.hit_frac", traced_median("corpus.hit_frac"), "1"},
      {"result_cache.load_us", median(rp.load_us), "us"},
      {"result_cache.store_us", median(rp.store_us), "us"},
      {"result_cache.hit_frac", traced_median("result_cache.hit_frac"), "1"},
      {"engine.busy_frac", traced_median("engine.busy_frac"), "1"},
      {"engine.tail_s", traced_median("engine.tail_s"), "s"},
      {"engine.job_ms_p50", traced_median("engine.job_ms_p50"), "ms"},
      {"engine.job_ms_p95", traced_median("engine.job_ms_p95"), "ms"},
      {"engine.retries", traced_median("engine.retries"), "count"},
      {"parallel.pool_create_us", pr.pool_create_us, "us"},
      {"parallel.dispatch_us", pr.dispatch_us, "us"},
      {"aggregate.ms", rp.aggregate_ms, "ms"},
      {"trace.overhead_frac", median(traced_wall) / median(plain_wall) - 1,
       "1"},
  };
}

}  // namespace perfbench
