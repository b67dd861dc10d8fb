// Input and output checks for the bench binaries: E0 and E11 reject a bad
// --reps, --grid or --threads with exit 2 instead of running zero
// repetitions (which made every count 0 and E11's determinism check
// vacuous), the manifest-driven E3 rejects a --threads cpt_batch would
// refuse instead of running anyway, and BenchJson refuses to write a
// metric JSON cannot spell.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.h"

#if !defined(CPT_E0_BIN) || !defined(CPT_E3_BIN) || !defined(CPT_E11_BIN)
#error "CPT_E0_BIN, CPT_E3_BIN and CPT_E11_BIN must name the bench binaries"
#endif

namespace cpt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string bench_command(const char* bin,
                          const std::vector<std::string>& flags,
                          const std::string& out) {
  std::string cmd = bin;
  for (const std::string& f : flags) cmd += " " + f;
  return cmd + " --out=" + out + " >/dev/null 2>&1";
}

// Each binary has one known-good flag set, run first as a positive
// control. Every bad case replaces exactly one of its flags, so exit 2 can
// only come from that flag's value.
TEST(BenchCli, BadFlagValuesExitTwo) {
  const std::string out = temp_path("bench_cli.json");
  const std::map<std::string, std::vector<std::string>> bad_values = {
      {"--reps", {"0", "abc", "", "-1", "2x"}},
      {"--grid", {"abc", "0", "99999999999999999999"}},
      {"--threads", {"", "0", "abc", "1,,2", "1,33"}},
  };
  struct Bench {
    const char* bin;
    std::vector<std::string> good;
  };
  for (const Bench& b : {Bench{CPT_E0_BIN, {"--grid=4", "--reps=1"}},
                         Bench{CPT_E11_BIN, {"--reps=1", "--threads=1"}}}) {
    std::remove(out.c_str());
    EXPECT_EQ(run_command(bench_command(b.bin, b.good, out)), 0) << b.bin;
    EXPECT_TRUE(file_exists(out)) << b.bin;
    std::remove(out.c_str());
    for (std::size_t i = 0; i < b.good.size(); ++i) {
      const std::string name = b.good[i].substr(0, b.good[i].find('='));
      for (const std::string& value : bad_values.at(name)) {
        std::vector<std::string> flags = b.good;
        flags[i] = name + "=" + value;
        EXPECT_EQ(run_command(bench_command(b.bin, flags, out)), 2)
            << b.bin << ' ' << flags[i];
      }
    }
    EXPECT_FALSE(file_exists(out)) << b.bin;
  }

  // E3 writes no BENCH_*.json. Its --threads is a batch width, as in
  // cpt_batch: 0 means the environment's, and 33 and up are refused.
  const std::string e3 =
      std::string(CPT_E3_BIN) + " --manifest=" CPT_MANIFEST_DIR "/ci_smoke.json";
  EXPECT_EQ(run_command(e3 + " --threads=1 >/dev/null 2>&1"), 0);
  for (const char* value : {"abc", "-1", "40"}) {
    EXPECT_EQ(run_command(e3 + " --threads=" + value + " >/dev/null 2>&1"), 2)
        << value;
  }
}

TEST(BenchJson, NonFiniteMetricFailsToWrite) {
  const std::string path = temp_path("bench_inf.json");
  std::remove(path.c_str());
  bench::BenchJson finite("t");
  finite.metric("cross/t1/jobs_per_sec", 12.5, "1/s");
  ASSERT_TRUE(finite.write(path));
  std::remove(path.c_str());

  bench::BenchJson inf("t");
  inf.metric("cross/t1/wall", 0, "s");
  inf.metric("cross/t1/jobs_per_sec", std::numeric_limits<double>::infinity(),
             "1/s");
  EXPECT_FALSE(inf.write(path));
  EXPECT_FALSE(file_exists(path));

  bench::BenchJson nan("t");
  nan.metric("x", std::nan(""), "1");
  EXPECT_FALSE(nan.write(path));
  EXPECT_FALSE(file_exists(path));
}

}  // namespace
}  // namespace cpt
