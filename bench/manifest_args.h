// Shared argv handling for the manifest-driven experiment binaries
// (E1/E2/E3/E4/E6/E7): the --manifest=PATH / --threads=N flags plus
// manifest loading, identical across the harnesses.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "scenario/engine.h"
#include "scenario/manifest.h"

namespace cpt::bench {

// Returns 0 on success; otherwise the exit code the caller should return
// (2 = bad usage, 1 = manifest load failure), with the message printed.
// --threads takes what cpt_batch does: a decimal in [0, kMaxBatchThreads],
// 0 meaning the CPT_TEST_THREADS environment value.
inline int parse_manifest_args(int argc, char** argv,
                               const char* default_manifest,
                               scenario::Manifest* manifest,
                               scenario::BatchOptions* options,
                               std::string* manifest_path) {
  *manifest_path = default_manifest;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
      *manifest_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      unsigned long threads = 0;
      if (!parse_count_flag("--threads", argv[i] + 10, 0,
                            scenario::kMaxBatchThreads, &threads)) {
        return 2;
      }
      options->threads = static_cast<unsigned>(threads);
    } else {
      std::fprintf(stderr, "usage: %s [--manifest=PATH] [--threads=N]\n",
                   argv[0]);
      return 2;
    }
  }
  std::string error;
  if (!scenario::load_manifest_file(*manifest_path, manifest, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace cpt::bench
