// Input and output checks for the BENCH_*.json emitters: E0 and E11
// reject a bad --reps or --grid with exit 2 instead of running zero
// repetitions (which made every count 0 and E11's determinism check
// vacuous), and BenchJson refuses to write a metric JSON cannot spell.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench/bench_json.h"

#if !defined(CPT_E0_BIN) || !defined(CPT_E11_BIN)
#error "CPT_E0_BIN and CPT_E11_BIN must name the E0 and E11 binaries"
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

TEST(BenchCli, BadRepsOrGridExitsTwo) {
  const std::string out = temp_path("bench_cli.json");
  std::remove(out.c_str());
  for (const char* bin : {CPT_E0_BIN, CPT_E11_BIN}) {
    for (const char* flags :
         {"--grid=16 --reps=0", "--grid=16 --reps=abc", "--grid=16 --reps=",
          "--grid=16 --reps=-1", "--grid=16 --reps=2x", "--grid=abc --reps=1",
          "--grid=0 --reps=1", "--grid=99999999999999999999 --reps=1"}) {
      EXPECT_EQ(run_command(std::string(bin) + " " + flags +
                            " --threads=1 --out=" + out +
                            " >/dev/null 2>&1"),
                2)
          << bin << ' ' << flags;
    }
  }
  EXPECT_FALSE(file_exists(out));
  // The smallest valid run still works.
  EXPECT_EQ(run_command(std::string(CPT_E0_BIN) +
                        " --grid=4 --reps=1 --threads=1 --out=" + out +
                        " >/dev/null 2>&1"),
            0);
  EXPECT_TRUE(file_exists(out));
  std::remove(out.c_str());
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
