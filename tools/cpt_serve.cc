// Batch service daemon: run manifests on request over a local Unix-domain
// socket, with a shared worker pool and a persistent content-addressed
// result cache (DESIGN.md section 10 has the wire protocol).
//
//   cpt_serve --socket=PATH                  listen on PATH (required)
//       [--corpus=DIR]                       binary graph cache directory
//       [--cache=DIR]                        persistent result cache; repeat
//                                            sweeps are served without
//                                            re-simulating (aggregates stay
//                                            byte-identical)
//       [--cache-max-entries=N]              FIFO-evict the oldest entries
//                                            past N (0 = unbounded)
//       [--threads=N]                        shared pool width (0 = env)
//       [--max-retries=N]                    transient retry budget per job
//       [--metrics-out=FILE]                 write the serve/ metrics
//                                            snapshot (cpt_metrics_v1) on
//                                            shutdown
//       [--quiet]                            no startup/shutdown banner
//
// Clients: `cpt_batch run manifest.json --server=PATH` (thin client), or
// any program speaking the line protocol. SIGINT/SIGTERM (or a client's
// shutdown op) stop the daemon: queued runs drain, the socket is
// unlinked, the metrics snapshot is written.
//
// Exit status: 0 clean shutdown, 1 startup/write failure, 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/engine.h"
#include "scenario/json.h"
#include "scenario/service.h"

using namespace cpt;
using namespace cpt::scenario;

namespace {

Service* g_service = nullptr;

extern "C" void on_stop_signal(int) {
  // request_stop only flips an atomic and shutdown(2)s the listener --
  // both async-signal-safe.
  if (g_service != nullptr) g_service->request_stop();
}

int usage() {
  std::fprintf(stderr,
               "usage: cpt_serve --socket=PATH [--corpus=DIR] [--cache=DIR]\n"
               "                 [--cache-max-entries=N] [--threads=N]\n"
               "                 [--max-retries=N] [--metrics-out=FILE]"
               " [--quiet]\n");
  return 2;
}

bool parse_uint(const char* flag, const char* text, std::uint64_t* out) {
  char* end = nullptr;
  if (*text == '\0' || *text == '-') {
    std::fprintf(stderr, "error: %s expects an unsigned integer\n", flag);
    return false;
  }
  *out = std::strtoull(text, &end, 10);
  if (*end != '\0') {
    std::fprintf(stderr, "error: %s expects an unsigned integer, got \"%s\"\n",
                 flag, text);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceOptions options;
  std::string metrics_path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::uint64_t parsed = 0;
    if (std::strncmp(a, "--socket=", 9) == 0) {
      options.socket_path = a + 9;
    } else if (std::strncmp(a, "--corpus=", 9) == 0) {
      options.corpus_dir = a + 9;
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      options.cache_dir = a + 8;
    } else if (std::strncmp(a, "--cache-max-entries=", 20) == 0) {
      if (!parse_uint("--cache-max-entries", a + 20, &parsed)) return 2;
      options.cache_max_entries = parsed;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      if (!parse_uint("--threads", a + 10, &parsed) || parsed > (1u << 16)) {
        return 2;
      }
      options.threads = static_cast<unsigned>(parsed);
    } else if (std::strncmp(a, "--max-retries=", 14) == 0) {
      if (!parse_uint("--max-retries", a + 14, &parsed) || parsed > 1000) {
        return 2;
      }
      options.max_retries = static_cast<unsigned>(parsed);
    } else if (std::strncmp(a, "--metrics-out=", 14) == 0) {
      metrics_path = a + 14;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return usage();
    }
  }
  if (options.socket_path.empty()) return usage();

  Service service(std::move(options));
  std::string error;
  if (!service.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_service = &service;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!quiet) {
    std::fprintf(stderr, "# cpt_serve: listening\n");
    std::fflush(stderr);
  }
  service.serve();
  g_service = nullptr;

  if (!metrics_path.empty() &&
      !write_text_file(metrics_path,
                       service.metrics().render_json("cpt_serve"))) {
    std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  if (!quiet) std::fprintf(stderr, "# cpt_serve: stopped\n");
  return 0;
}
