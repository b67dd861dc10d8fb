// Reader + analyses for the observability artifacts cpt_batch writes:
// `cpt_trace_v1` JSONL span streams (--trace) and `cpt_metrics_v1`
// registry snapshots (--metrics). Backs the cpt_trace CLI and the trace
// determinism tests.
//
// The determinism contract (util/trace.h) says `ts_ns`/`dur_ns` are the
// only schedule-dependent trace fields and that they render LAST on each
// event line; strip_trace_timestamps exploits that -- the deterministic
// view of a trace is a per-line suffix strip, no JSON parse needed. For
// metrics documents the schedule-dependent state is the "runtime"
// section (`rt/`-prefixed names), so the deterministic view is a
// re-render with that member dropped. trace_diff_files picks the right
// view by schema and reports the first divergence.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/json.h"

namespace cpt::scenario {

struct TraceTrack {
  std::uint64_t id = 0;
  std::string label;
};

struct TraceEventRec {
  std::uint64_t track = 0;
  std::uint64_t seq = 0;
  std::string kind;   // "span" | "instant" (older traces: also "count")
  std::string name;
  std::uint32_t depth = 0;
  JsonValue args;           // object; kNull when absent
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  // span events
  bool has_dur = false;
};

struct TraceFile {
  std::string name;
  std::vector<TraceTrack> tracks;
  std::vector<TraceEventRec> events;  // file order = (track, seq) order
};

// Parses a cpt_trace_v1 JSONL document, whose line 1 must be the header.
// Returns false and fills *error (with a line number) on malformed input,
// a missing header, a wrong schema tag, or a track or event line whose
// field is missing or of the wrong type ("<path>:<line>: bad <field>").
bool load_trace_file(const std::string& path, TraceFile* out,
                     std::string* error);

// Per-name span/instant rollup; other event kinds (the retired "count"
// of older traces) are ignored. With include_wall the span rows carry
// total wall milliseconds; without it the output is a pure function of
// the deterministic trace fields (golden-testable). Spans also sum their
// numeric "rounds"/"messages" args when present.
std::string trace_summary(const TraceFile& t, bool include_wall);

// Flame rollup: per span name, call count, total and self wall time
// (self = total minus enclosed child spans), sorted by total descending.
// Inherently wall-clock: two runs flame differently.
std::string trace_flame(const TraceFile& t);

// Deterministic view of one JSONL line: truncates at the `,"ts_ns":`
// suffix (timestamps render last by contract) and recloses the object.
// Lines without timestamps (header, track decls) pass through.
std::string strip_trace_timestamps(std::string_view line);

// Deterministic view of a cpt_metrics_v1 document: re-rendered with the
// "runtime" section removed. Returns false on parse failure.
bool metrics_deterministic_view(const std::string& text, std::string* out,
                                std::string* error);

// Compares the deterministic views of two artifacts (both cpt_trace_v1
// or both cpt_metrics_v1, detected from the content). Returns true when
// they match; otherwise fills *report with the first divergence, or with
// why a file is not a valid artifact of its kind.
bool trace_diff_files(const std::string& path_a, const std::string& path_b,
                      std::string* report);

}  // namespace cpt::scenario
