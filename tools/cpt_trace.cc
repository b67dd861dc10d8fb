// cpt_trace: analyzer for the observability artifacts cpt_batch emits.
//
//   cpt_trace summary [--no-wall] TRACE.jsonl
//       Per-name span/instant rollup. --no-wall drops the wall-
//       clock columns, leaving a pure function of the deterministic
//       trace fields (what the golden test pins).
//   cpt_trace flame TRACE.jsonl
//       Wall-clock rollup by span name (total and self time).
//   cpt_trace diff FILE_A FILE_B
//       Compares the deterministic views of two traces (timestamps
//       stripped) or two metrics snapshots ("runtime" section dropped).
//       Exit 0 when identical, 1 with a divergence report otherwise.
//
// Exit codes: 0 ok / match, 1 runtime failure or diff divergence,
// 2 usage error.
#include <cstdio>
#include <cstring>
#include <string>

#include "scenario/trace_analysis.h"

namespace {

using cpt::scenario::TraceFile;

int usage() {
  std::fprintf(stderr,
               "usage: cpt_trace summary [--no-wall] TRACE.jsonl\n"
               "       cpt_trace flame TRACE.jsonl\n"
               "       cpt_trace diff FILE_A FILE_B\n");
  return 2;
}

int load_or_fail(const std::string& path, TraceFile* t) {
  std::string error;
  if (!cpt::scenario::load_trace_file(path, t, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "summary") {
    bool include_wall = true;
    std::string path;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--no-wall") == 0) {
        include_wall = false;
      } else if (argv[i][0] == '-') {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
        return 2;
      } else if (path.empty()) {
        path = argv[i];
      } else {
        return usage();
      }
    }
    if (path.empty()) return usage();
    TraceFile t;
    if (int rc = load_or_fail(path, &t)) return rc;
    std::fputs(cpt::scenario::trace_summary(t, include_wall).c_str(), stdout);
    return 0;
  }

  if (cmd == "flame") {
    if (argc != 3) return usage();
    TraceFile t;
    if (int rc = load_or_fail(argv[2], &t)) return rc;
    std::fputs(cpt::scenario::trace_flame(t).c_str(), stdout);
    return 0;
  }

  if (cmd == "diff") {
    if (argc != 4) return usage();
    std::string report;
    if (cpt::scenario::trace_diff_files(argv[2], argv[3], &report)) {
      std::printf("identical deterministic views\n");
      return 0;
    }
    std::fprintf(stderr, "%s\n", report.c_str());
    return 1;
  }

  return usage();
}
