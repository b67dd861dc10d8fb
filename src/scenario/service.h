// cpt_serve's batch service: a long-lived daemon that accepts manifest
// runs over a local Unix-domain stream socket, queues them by priority
// onto one shared WorkerPool, and answers with the same byte streams the
// offline tools produce.
//
// Wire protocol (DESIGN.md section 10 is the normative spec): newline-
// delimited JSON both ways. Each request is one object with an "op":
//
//   {"op": "ping"}
//   {"op": "metrics"}
//   {"op": "shutdown"}
//   {"op": "run", "manifest_text": "<manifest JSON>", "priority": 0}
//
// A run request is acked with {"ok": true, "queued": true, ...}, then --
// once the executor picks it -- answered with the verbatim
// cpt_batch_aggregate_stream_v1 JSONL lines (header, one line per
// finalized cell, footer) followed by one terminal line
// {"done": true, "exit_code": ..., "aggregate": "<escaped>", ...}.
// Because cached and fresh results flow through the same streaming sink,
// those lines -- and the escaped aggregate document -- are byte-identical
// to an offline `cpt_batch run` of the same manifest at any --threads.
//
// Concurrency model: one reader thread per connection parses requests and
// enqueues them; a single executor thread pops the highest-priority
// request (ties FIFO by arrival) and runs it on the shared pool, so at
// most one batch executes at a time and every batch sees the pool's full
// width. Per-connection writes are serialized by a per-connection mutex
// (the ack comes from the reader thread, stream lines from the executor).
// A client that disconnects mid-run does not abort its batch: the
// executor keeps running it (results still populate the result cache) and
// just stops writing.
//
// stop() (signal handlers call request_stop(), which is async-signal-
// safe) closes the listener and wakes the executor; queued requests are
// drained, not dropped, so a shutdown racing a client's enqueue never
// loses an acked request.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "scenario/engine.h"
#include "scenario/result_cache.h"
#include "util/trace.h"

namespace cpt::scenario {

struct ServiceOptions {
  std::string socket_path;
  std::string corpus_dir;       // "" = no graph corpus
  std::string cache_dir;        // "" = result cache disabled
  std::uint64_t cache_max_entries = 0;  // 0 = unbounded
  unsigned threads = 0;         // shared pool width; 0 = resolve from env
  unsigned max_retries = 2;
};

class Service {
 public:
  explicit Service(ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Binds and listens on options.socket_path (unlinking a stale socket
  // left by a dead server). Returns false with *error set on failure.
  bool start(std::string* error);

  // Accept/serve loop; blocks until a shutdown request or request_stop(),
  // then drains the queue, joins connection threads and unlinks the
  // socket.
  void serve();

  // Async-signal-safe stop: flips an atomic and nudges the listener via
  // shutdown(2) so the accept loop wakes. Safe to call from any thread or
  // a signal handler, any number of times.
  void request_stop();

  // serve/ counters and gauges (plus the engine's per-run batch/ and
  // corpus/ counters for runs executed here). Snapshot with
  // metrics().render_json("cpt_serve").
  util::MetricsRegistry& metrics() { return metrics_; }

 private:
  // Folds the result cache's atomic counters into serve/cache_* registry
  // counters (delta-synced, so repeated snapshots never double count).
  void sync_cache_counters();

  struct Impl;
  util::MetricsRegistry metrics_;
  Impl* impl_;  // socket/queue/thread state (keeps <sys/socket.h> out of
                // this header)
};

}  // namespace cpt::scenario
