#include "scenario/service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "congest/simulator.h"
#include "scenario/aggregate.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "util/parallel.h"

namespace cpt::scenario {

namespace {

// Writes the whole buffer with MSG_NOSIGNAL (a disconnected client must
// surface as an error return, never SIGPIPE). Returns false on any error.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// One connected client. Writes are serialized by `write_mu` (the reader
// thread acks, the executor streams results); once a write fails the
// connection is marked broken and later writes are silently dropped --
// the batch itself still runs to completion.
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> broken{false};

  bool write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (broken.load(std::memory_order_relaxed)) return false;
    if (!send_all(fd, line)) {
      broken.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

std::string error_line(const std::string& message) {
  std::string out = "{\"ok\": false, \"error\": ";
  json_append_escaped(out, message);
  out += "}\n";
  return out;
}

}  // namespace

struct Service::Impl {
  ServiceOptions options;
  ResultCache cache;
  WorkerPool pool;

  int listen_fd = -1;
  std::atomic<bool> stop{false};

  // Request queue: priority desc, then arrival seq asc. The executor pops
  // under `mu`; readers push under `mu`.
  struct Request {
    std::int64_t priority = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
    Manifest manifest;
    std::shared_ptr<Connection> conn;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Request> queue;
  std::uint64_t next_seq = 0;
  bool executor_done = false;

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> conn_threads;

  // Last cache counter values already exported to the registry; the
  // snapshot path adds deltas so serve/cache_* counters track the atomic
  // totals without double counting. Guarded by `mu`.
  std::uint64_t exported_hits = 0, exported_misses = 0, exported_corrupt = 0,
                exported_stores = 0, exported_evictions = 0;

  explicit Impl(ServiceOptions opts)
      : options(std::move(opts)),
        cache(options.cache_dir, options.cache_max_entries),
        pool(congest::resolve_sim_threads(options.threads)) {}
};

Service::Service(ServiceOptions options)
    : impl_(new Impl(std::move(options))) {}

Service::~Service() {
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  delete impl_;
}

bool Service::start(std::string* error) {
  const std::string& path = impl_->options.socket_path;
  if (path.empty()) {
    if (error != nullptr) *error = "empty socket path";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket(): " + std::string(strerror(errno));
    return false;
  }
  // A stale socket file from a killed server blocks bind(); a live server
  // holds the listening socket open, so connect() distinguishes the two.
  int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      ::close(probe);
      ::close(fd);
      if (error != nullptr) {
        *error = "another server is already listening on " + path;
      }
      return false;
    }
    ::close(probe);
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on " + path + ": " + strerror(errno);
    }
    ::close(fd);
    return false;
  }
  impl_->listen_fd = fd;
  return true;
}

void Service::request_stop() {
  impl_->stop.store(true, std::memory_order_relaxed);
  // shutdown(2) is async-signal-safe and wakes a blocked accept(2) with
  // EINVAL/ECONNABORTED; close() here would race the accept loop's fd use.
  if (impl_->listen_fd >= 0) ::shutdown(impl_->listen_fd, SHUT_RDWR);
}

namespace {

// Reads one '\n'-terminated line from fd into *line (newline stripped).
// Returns false on EOF or error. `buf` carries bytes across calls.
bool read_line(int fd, std::string* buf, std::string* line) {
  while (true) {
    const std::size_t pos = buf->find('\n');
    if (pos != std::string::npos) {
      line->assign(*buf, 0, pos);
      buf->erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

void Service::serve() {
  Impl& im = *impl_;

  // Executor: pops the best queued request and runs it on the shared
  // pool. Exactly one batch runs at a time -- requests multiplex the
  // machine by queueing, not by splitting the pool.
  std::thread executor([&] {
    while (true) {
      Impl::Request req;
      {
        std::unique_lock<std::mutex> lock(im.mu);
        im.cv.wait(lock, [&] {
          return !im.queue.empty() ||
                 im.stop.load(std::memory_order_relaxed);
        });
        if (im.queue.empty()) {
          if (im.stop.load(std::memory_order_relaxed)) break;
          continue;
        }
        const auto best = std::min_element(
            im.queue.begin(), im.queue.end(),
            [](const Impl::Request& a, const Impl::Request& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.seq < b.seq;
            });
        req = std::move(*best);
        im.queue.erase(best);
        metrics_.set_gauge("serve/queue_depth",
                           static_cast<double>(im.queue.size()));
      }

      BatchOptions options;
      options.threads = im.pool.num_workers();
      options.pool = &im.pool;
      options.corpus_dir = im.options.corpus_dir;
      options.result_cache = im.cache.enabled() ? &im.cache : nullptr;
      options.max_retries = im.options.max_retries;

      const std::vector<Job> jobs = expand_manifest(req.manifest);
      req.conn->write_line(render_stream_header(req.manifest, jobs.size()));
      StreamingAggregator agg(jobs);
      agg.set_cell_sink([&](const CellAggregate& cell) {
        req.conn->write_line(render_stream_cell(cell));
      });
      const BatchResult batch = run_batch(
          req.manifest, options,
          [&](const Job& job, const JobResult& result) {
            agg.consume(job, result);
          });
      const std::vector<CellAggregate> cells = agg.finish();
      req.conn->write_line(render_stream_footer(batch, cells.size()));

      // The terminal line carries the full aggregate/CSV documents as
      // escaped strings so a thin client can write --out/--csv files
      // byte-identical to an offline run without re-deriving them.
      std::string done = "{\"done\": true, \"request_id\": " +
                         json_render_uint(req.id);
      done += ", \"exit_code\": " +
              json_render_int(batch.failed_jobs > 0 ? 1 : 0);
      done += ", \"jobs\": " + json_render_uint(batch.jobs.size());
      done += ", \"failed_jobs\": " + json_render_uint(batch.failed_jobs);
      done +=
          ", \"timed_out_jobs\": " + json_render_uint(batch.timed_out_jobs);
      done +=
          ", \"cache_hit_jobs\": " + json_render_uint(batch.cache_hit_jobs);
      done += ", \"aggregate\": ";
      json_append_escaped(done,
                          render_aggregate_json(req.manifest, batch, cells));
      done += ", \"csv\": ";
      json_append_escaped(done, render_aggregate_csv(cells));
      done += "}\n";
      req.conn->write_line(done);

      metrics_.add_counter("serve/runs", 1);
      metrics_.add_counter("serve/jobs", batch.jobs.size());
      metrics_.add_counter("serve/cache_hit_jobs", batch.cache_hit_jobs);
      metrics_.add_counter("serve/failed_jobs", batch.failed_jobs);
      metrics_.add_counter("serve/timed_out_jobs", batch.timed_out_jobs);
    }
    std::lock_guard<std::mutex> lock(im.mu);
    im.executor_done = true;
  });

  // Accept loop. One reader thread per connection; threads are collected
  // (not detached) so serve() returns only after every reader exited.
  while (!im.stop.load(std::memory_order_relaxed)) {
    const int cfd = ::accept(im.listen_fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (request_stop) or hard error
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = cfd;
    metrics_.add_counter("serve/connections", 1);
    {
      std::lock_guard<std::mutex> lock(im.conns_mu);
      im.conns.push_back(conn);
      im.conn_threads.emplace_back([this, &im, conn] {
        std::string buf, line;
        while (read_line(conn->fd, &buf, &line)) {
          metrics_.add_counter("serve/requests", 1);
          JsonValue req;
          std::string jerr;
          if (!JsonValue::parse(line, &req, &jerr) || !req.is_object()) {
            metrics_.add_counter("serve/bad_requests", 1);
            conn->write_line(error_line("bad request: " + jerr));
            continue;
          }
          const JsonValue* op = req.find("op");
          const std::string op_name =
              op != nullptr && op->is_string() ? op->as_string() : "";
          if (op_name == "ping") {
            conn->write_line("{\"ok\": true, \"pong\": true}\n");
          } else if (op_name == "metrics") {
            sync_cache_counters();
            std::string out = "{\"ok\": true, \"metrics\": ";
            json_append_escaped(out, metrics_.render_json("cpt_serve"));
            out += "}\n";
            conn->write_line(out);
          } else if (op_name == "shutdown") {
            conn->write_line("{\"ok\": true, \"stopping\": true}\n");
            request_stop();
            std::lock_guard<std::mutex> qlock(im.mu);
            im.cv.notify_all();
          } else if (op_name == "run") {
            metrics_.add_counter("serve/run_requests", 1);
            Impl::Request r;
            std::string merr;
            const JsonValue* text = req.find("manifest_text");
            const JsonValue* path = req.find("manifest_path");
            bool ok = false;
            if (text != nullptr && text->is_string()) {
              ok = parse_manifest(text->as_string(), &r.manifest, &merr);
            } else if (path != nullptr && path->is_string()) {
              ok = load_manifest_file(path->as_string(), &r.manifest, &merr);
            } else {
              merr = "run request needs manifest_text or manifest_path";
            }
            if (!ok) {
              metrics_.add_counter("serve/bad_requests", 1);
              conn->write_line(error_line(merr));
              continue;
            }
            const JsonValue* prio = req.find("priority");
            if (prio != nullptr && prio->is_integer()) {
              r.priority = prio->as_int64();
            }
            r.conn = conn;
            std::size_t depth = 0;
            std::uint64_t id = 0;
            bool queued = false;
            {
              std::lock_guard<std::mutex> qlock(im.mu);
              if (!im.stop.load(std::memory_order_relaxed) &&
                  !im.executor_done) {
                r.seq = im.next_seq++;
                r.id = id = r.seq;
                im.queue.push_back(std::move(r));
                depth = im.queue.size();
                queued = true;
              }
            }
            if (!queued) {
              conn->write_line(error_line("server is shutting down"));
              continue;
            }
            metrics_.max_gauge("serve/queue_depth_peak",
                               static_cast<double>(depth));
            std::string ack =
                "{\"ok\": true, \"queued\": true, \"request_id\": ";
            ack += json_render_uint(id);
            ack += "}\n";
            conn->write_line(ack);
            im.cv.notify_all();
          } else {
            metrics_.add_counter("serve/bad_requests", 1);
            conn->write_line(error_line("unknown op \"" + op_name + "\""));
          }
        }
        ::shutdown(conn->fd, SHUT_RDWR);
      });
    }
  }

  // Shutdown: wake the executor (it drains the queue -- acked requests
  // are never dropped), join it, then unblock and join the readers.
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.stop.store(true, std::memory_order_relaxed);
  }
  im.cv.notify_all();
  executor.join();
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    for (const auto& conn : im.conns) ::shutdown(conn->fd, SHUT_RDWR);
    for (std::thread& t : im.conn_threads) t.join();
    for (const auto& conn : im.conns) ::close(conn->fd);
    im.conns.clear();
    im.conn_threads.clear();
  }
  sync_cache_counters();
  ::unlink(im.options.socket_path.c_str());
}

void Service::sync_cache_counters() {
  Impl& im = *impl_;
  const ResultCache::Counters& c = im.cache.counters();
  std::lock_guard<std::mutex> lock(im.mu);
  const auto sync = [&](const char* name, const std::atomic<std::uint64_t>& v,
                        std::uint64_t* exported) {
    const std::uint64_t now = v.load(std::memory_order_relaxed);
    if (now > *exported) {
      metrics_.add_counter(name, now - *exported);
      *exported = now;
    }
  };
  sync("serve/cache_hits", c.hits, &im.exported_hits);
  sync("serve/cache_misses", c.misses, &im.exported_misses);
  sync("serve/cache_corrupt", c.corrupt, &im.exported_corrupt);
  sync("serve/cache_stores", c.stores, &im.exported_stores);
  sync("serve/cache_evictions", c.evictions, &im.exported_evictions);
}

}  // namespace cpt::scenario
