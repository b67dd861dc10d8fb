// Observability layer tests: the trace/metrics renderers, the
// determinism contract (non-timestamp trace bytes identical at every
// --threads value), the
// tracing-disabled fast path (zero allocations), and the cpt_trace
// analyses (golden summary, diff divergence detection, refusal of inputs
// that are not traces).
//
// Regenerating the summary golden: run with CPT_PRINT_GOLDENS=1 and
// paste the printed hash over kSummaryGolden below.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/trace_analysis.h"
#include "util/trace.h"

#ifndef CPT_MANIFEST_DIR
#error "CPT_MANIFEST_DIR must point at bench/manifests"
#endif

// Global allocation counter backing the disabled-path test: the
// tracing-off fast path (null buffer pointer) must not touch the heap.
// The deletes stay out of line: inlined, GCC would see free() applied to
// an operator new result and warn (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cpt {
namespace {

using scenario::BatchOptions;
using scenario::Manifest;
using scenario::TraceFile;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Per-line deterministic view of a rendered trace stream.
std::string stripped(const std::string& jsonl) {
  std::string out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    out += scenario::strip_trace_timestamps(
        std::string_view(jsonl).substr(pos, nl - pos));
    out += '\n';
    pos = nl + 1;
  }
  return out;
}

TEST(TraceArgsTest, RendersTypedValuesAsJson) {
  util::TraceArgs a;
  a.add("u", std::uint64_t{7})
      .add("i", std::int64_t{-3})
      .add("b", true)
      .add("s", "x\"y")
      .add_hex("h", 0xabcULL);
  ASSERT_EQ(a.entries().size(), 5u);
  EXPECT_EQ(a.entries()[0].second, "7");
  EXPECT_EQ(a.entries()[1].second, "-3");
  EXPECT_EQ(a.entries()[2].second, "true");
  EXPECT_EQ(a.entries()[3].second, "\"x\\\"y\"");
  EXPECT_EQ(a.entries()[4].second, "\"0x0000000000000abc\"");
}

TEST(TraceSessionTest, RendersDeterministicJsonl) {
  util::TraceSession session;
  util::TraceBuffer* t = session.make_track(3, "lane");
  const std::size_t outer = t->begin_span("outer");
  t->instant("tick", util::TraceArgs().add("n", 2u));
  const std::size_t inner = t->begin_span("inner");
  t->end_span(inner);
  t->end_span(outer, util::TraceArgs().add("rounds", std::uint64_t{9}));

  const std::string det = stripped(session.render_jsonl("demo"));
  const std::string expect =
      "{\"schema\":\"cpt_trace_v1\",\"name\":\"demo\",\"tracks\":1}\n"
      "{\"track\":3,\"label\":\"lane\"}\n"
      "{\"track\":3,\"seq\":0,\"kind\":\"span\",\"name\":\"outer\","
      "\"depth\":0,\"args\":{\"rounds\":9}}\n"
      "{\"track\":3,\"seq\":1,\"kind\":\"instant\",\"name\":\"tick\","
      "\"depth\":1,\"args\":{\"n\":2}}\n"
      "{\"track\":3,\"seq\":2,\"kind\":\"span\",\"name\":\"inner\","
      "\"depth\":1}\n";
  EXPECT_EQ(det, expect);

  // Same session, same track id: the buffer is reused, not duplicated.
  EXPECT_EQ(session.make_track(3, "other"), t);
}

TEST(MetricsRegistryTest, SplitsRuntimeSectionAndComputesQuartiles) {
  util::MetricsRegistry m;
  m.add_counter("batch/jobs", 3);
  m.add_counter("batch/jobs", 1);
  m.set_gauge("corpus/ratio", 0.5);
  m.add_counter("rt/sim/serial_rounds", 8);
  m.set_gauge("rt/batch/peak", 7);
  for (const std::uint64_t v : {4, 1, 3, 2}) m.record("rt/wake", v);

  const std::string doc = m.render_json("t");
  // Deterministic section: plain names only.
  EXPECT_NE(doc.find("\"batch/jobs\": 4"), std::string::npos);
  EXPECT_NE(doc.find("\"corpus/ratio\": 0.5"), std::string::npos);
  // rt/ names land under "runtime" and nowhere else.
  const std::size_t runtime_pos = doc.find("\"runtime\"");
  ASSERT_NE(runtime_pos, std::string::npos);
  EXPECT_GT(doc.find("\"rt/sim/serial_rounds\": 8"), runtime_pos);
  EXPECT_GT(doc.find("\"rt/batch/peak\": 7"), runtime_pos);
  // Nearest-rank quartiles over {1,2,3,4} (aggregate.h's rule).
  EXPECT_NE(doc.find("\"count\": 4, \"min\": 1, \"p25\": 2, \"p50\": 3, "
                     "\"p75\": 3, \"max\": 4, \"sum\": 10"),
            std::string::npos);

  // The deterministic view drops the whole runtime section.
  std::string det, err;
  ASSERT_TRUE(scenario::metrics_deterministic_view(doc, &det, &err)) << err;
  EXPECT_EQ(det.find("rt/"), std::string::npos);
  EXPECT_NE(det.find("\"batch/jobs\": 4"), std::string::npos);
}

TEST(TraceAnalysisTest, StripTraceTimestampsIsASuffixStrip) {
  EXPECT_EQ(scenario::strip_trace_timestamps(
                "{\"track\":1,\"seq\":0,\"kind\":\"span\",\"name\":\"x\","
                "\"depth\":0,\"ts_ns\":123,\"dur_ns\":456}"),
            "{\"track\":1,\"seq\":0,\"kind\":\"span\",\"name\":\"x\","
            "\"depth\":0}");
  // Header and track lines carry no timestamps and pass through.
  EXPECT_EQ(scenario::strip_trace_timestamps("{\"track\":1,\"label\":\"a\"}"),
            "{\"track\":1,\"label\":\"a\"}");
}

TEST(TraceDisabledPathTest, NullBufferGuardAllocatesNothing) {
  util::TraceBuffer* t = nullptr;
  util::TraceSession* session = nullptr;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    // The instrumentation-site pattern: one branch, no work when off.
    if (t != nullptr) {
      t->instant("ev");
    }
    if (session != nullptr) {
      session->metrics().add_counter("x", 1);
    }
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// The tentpole's acceptance bar: every non-timestamp byte of the trace
// and the deterministic metrics sections are identical between a
// 1-thread and a 4-thread batch run of the CI smoke manifest.
TEST(TraceDeterminismTest, BatchTraceInvariantAcrossThreadCounts) {
  Manifest m;
  std::string error;
  ASSERT_TRUE(scenario::load_manifest_file(CPT_MANIFEST_DIR "/ci_smoke.json",
                                           &m, &error))
      << error;
  auto traced_run = [&m](unsigned threads, std::string* trace_out,
                         std::string* metrics_out) {
    util::TraceSession session;
    BatchOptions o;
    o.threads = threads;
    o.trace = &session;
    const scenario::BatchResult r = scenario::run_batch(m, o);
    EXPECT_EQ(r.failed_jobs, 0u);
    *trace_out = stripped(session.render_jsonl(m.name));
    std::string err;
    EXPECT_TRUE(scenario::metrics_deterministic_view(
        session.metrics().render_json(m.name), metrics_out, &err))
        << err;
  };
  std::string t1, m1, t4, m4;
  traced_run(1, &t1, &m1);
  traced_run(4, &t4, &m4);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(m1, m4);
}

// Golden cpt_trace summary over the ci_smoke trace (wall columns off:
// a pure function of the deterministic fields). Pins the trace content
// -- span names, counts, rounds/messages sums -- across refactors.
// Regenerate with CPT_PRINT_GOLDENS=1.
constexpr std::uint64_t kSummaryGolden = 0xe9c5d107e77040d5ULL;

TEST(TraceAnalysisTest, GoldenSummaryAndDiffOnCiSmoke) {
  Manifest m;
  std::string error;
  ASSERT_TRUE(scenario::load_manifest_file(CPT_MANIFEST_DIR "/ci_smoke.json",
                                           &m, &error))
      << error;
  util::TraceSession session;
  BatchOptions o;
  o.threads = 1;
  o.trace = &session;
  const scenario::BatchResult r = scenario::run_batch(m, o);
  ASSERT_EQ(r.failed_jobs, 0u);

  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/trace_a.jsonl";
  ASSERT_TRUE(
      scenario::write_text_file(path_a, session.render_jsonl(m.name)));
  TraceFile t;
  ASSERT_TRUE(scenario::load_trace_file(path_a, &t, &error)) << error;
  EXPECT_EQ(t.name, m.name);
  // 1 batch track + 6 instance slots + 24 job tracks.
  EXPECT_EQ(t.tracks.size(), 31u);
  const std::string summary = scenario::trace_summary(t, false);
  const std::uint64_t hash = fnv1a64(summary);
  if (std::getenv("CPT_PRINT_GOLDENS") != nullptr) {
    std::printf("constexpr std::uint64_t kSummaryGolden = 0x%llxULL;\n",
                static_cast<unsigned long long>(hash));
  } else {
    EXPECT_EQ(hash, kSummaryGolden)
        << "summary drift; regenerate with CPT_PRINT_GOLDENS=1\n"
        << summary;
  }

  // diff: a trace matches itself, and a mutated copy is caught with a
  // line-accurate report.
  std::string report;
  EXPECT_TRUE(scenario::trace_diff_files(path_a, path_a, &report)) << report;
  std::string body = session.render_jsonl(m.name);
  const std::string needle = "\"kind\":\"span\",\"name\":\"job\"";
  const std::size_t at = body.find(needle);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, needle.size(), "\"kind\":\"span\",\"name\":\"JOB\"");
  const std::string path_b = dir + "/trace_b.jsonl";
  ASSERT_TRUE(scenario::write_text_file(path_b, body));
  EXPECT_FALSE(scenario::trace_diff_files(path_a, path_b, &report));
  EXPECT_NE(report.find("first divergence"), std::string::npos);
}

// What is not a trace is an error, never "identical": an empty file, a
// garbage file, and a trace whose line 1 is not its header. Otherwise a
// --trace that wrote nothing would pass the determinism diff.
TEST(TraceAnalysisTest, RejectsInputsThatAreNotTraces) {
  const std::string dir = ::testing::TempDir();
  const auto write = [&dir](const std::string& name, const std::string& body) {
    const std::string path = dir + "/" + name;
    EXPECT_TRUE(scenario::write_text_file(path, body));
    return path;
  };
  const std::string minimal_trace =
      "{\"schema\":\"cpt_trace_v1\",\"name\":\"t\",\"tracks\":1}\n"
      "{\"track\":0,\"label\":\"batch\"}\n";
  const std::string valid = write("valid.jsonl", minimal_trace);
  std::string error, report;
  TraceFile t;
  ASSERT_TRUE(scenario::load_trace_file(valid, &t, &error)) << error;
  EXPECT_TRUE(scenario::trace_diff_files(valid, valid, &report)) << report;

  for (const std::string& bad :
       {write("empty.jsonl", ""), write("garbage.jsonl", "not a trace\n"),
        write("blank_first.jsonl", "\n" + minimal_trace)}) {
    EXPECT_FALSE(scenario::load_trace_file(bad, &t, &error)) << bad;
    EXPECT_FALSE(scenario::trace_diff_files(bad, bad, &report)) << bad;
    EXPECT_NE(report.find(bad), std::string::npos) << report;
  }

  // An event line whose field is missing or of the wrong type is refused
  // by name, instead of loading as 0 or as a wrapped huge number.
  const struct {
    const char* file;
    const char* event;
    const char* field;
  } bad_fields[] = {
      {"neg_dur.jsonl",
       R"({"track":0,"seq":0,"kind":"span","name":"s","depth":0,)"
       R"("ts_ns":1,"dur_ns":-5})",
       "dur_ns"},
      {"neg_track.jsonl",
       R"({"track":-1,"seq":0,"kind":"instant","name":"i","depth":0,)"
       R"("ts_ns":1})",
       "track"},
      {"frac_depth.jsonl",
       R"({"track":0,"seq":0,"kind":"instant","name":"i","depth":1.5,)"
       R"("ts_ns":1})",
       "depth"},
      {"no_ts.jsonl",
       R"({"track":0,"seq":0,"kind":"instant","name":"i","depth":0})",
       "ts_ns"},
      {"num_name.jsonl",
       R"({"track":0,"seq":0,"kind":"instant","name":7,"depth":0,)"
       R"("ts_ns":1})",
       "name"},
  };
  for (const auto& c : bad_fields) {
    const std::string bad =
        write(c.file, minimal_trace + std::string(c.event) + "\n");
    const std::string why = bad + ":3: bad " + c.field;
    EXPECT_FALSE(scenario::load_trace_file(bad, &t, &error)) << bad;
    EXPECT_EQ(error, why);
    EXPECT_FALSE(scenario::trace_diff_files(bad, valid, &report)) << bad;
    EXPECT_EQ(report, why);
  }
}

// A trace written while the "count" event kind existed still loads, and
// summary rolls up its spans and instants without the count lines.
TEST(TraceAnalysisTest, SummaryIgnoresRetiredCountEvents) {
  const std::string path = ::testing::TempDir() + "/old_count.jsonl";
  ASSERT_TRUE(scenario::write_text_file(
      path,
      "{\"schema\":\"cpt_trace_v1\",\"name\":\"old\",\"tracks\":1}\n"
      "{\"track\":0,\"label\":\"batch\"}\n"
      "{\"track\":0,\"seq\":0,\"kind\":\"instant\",\"name\":\"tick\","
      "\"depth\":0,\"ts_ns\":1}\n"
      "{\"track\":0,\"seq\":1,\"kind\":\"count\",\"name\":\"bytes\","
      "\"depth\":0,\"value\":40,\"ts_ns\":2}\n"));
  TraceFile t;
  std::string error;
  ASSERT_TRUE(scenario::load_trace_file(path, &t, &error)) << error;
  EXPECT_EQ(t.events.size(), 2u);
  EXPECT_EQ(scenario::trace_summary(t, false),
            "trace old: 1 tracks, 2 events\ninstants:\n  tick  count=1\n");
}

}  // namespace
}  // namespace cpt
