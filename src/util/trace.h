// Structured tracing + metrics registry.
//
// Two event kinds flow through a TraceBuffer: spans (named intervals
// with nesting depth) and instants (point events). Every event may carry
// pre-rendered JSON args. A TraceSession owns one buffer ("track") per
// logical lane — batch driver, instance materialization slot, job — and
// renders them as a `cpt_trace_v1` JSONL stream in deterministic
// (track id, seq) order.
//
// Determinism contract: `ts_ns` and `dur_ns` are the ONLY fields that
// may differ between two runs of the same workload; every other byte
// of the rendered trace is schedule-invariant, so traces diff like
// aggregates once timestamps are stripped (see cpt_trace diff).
// Schedule-dependent quantities (delivery-path choices, wake
// latencies, worker utilization) go to the MetricsRegistry under an
// `rt/` name prefix, which the renderer segregates into a "runtime"
// section that diffing ignores.
//
// Overhead: every instrumentation site is guarded by a null check on
// the buffer/session pointer (a single predictable branch when tracing
// is off).
//
// Threading: a TraceBuffer is single-writer; concurrency comes from
// giving each lane its own track. TraceSession::make_track and the
// MetricsRegistry are mutex-guarded and safe from any thread.
#ifndef CPT_UTIL_TRACE_H_
#define CPT_UTIL_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpt {
namespace util {

// Monotonic wall clock, ns. Absolute value is meaningless; only
// differences matter.
std::uint64_t trace_now_ns();

// Ordered key/value args attached to an event. Values are rendered to
// JSON immediately so the event stores plain strings.
class TraceArgs {
 public:
  TraceArgs& add(std::string key, std::uint64_t v);
  TraceArgs& add(std::string key, std::int64_t v);
  TraceArgs& add(std::string key, int v);
  TraceArgs& add(std::string key, unsigned v);
  TraceArgs& add(std::string key, double v);
  TraceArgs& add(std::string key, bool v);
  TraceArgs& add(std::string key, std::string_view v);
  TraceArgs& add(std::string key, const char* v);
  // 0x-prefixed lower-case hex, for instance hashes.
  TraceArgs& add_hex(std::string key, std::uint64_t v);

  bool empty() const { return kv_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return kv_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;  // value is JSON
};

struct TraceEvent {
  enum Kind : std::uint8_t { kSpan, kInstant };
  Kind kind = kInstant;
  std::uint32_t depth = 0;       // span nesting depth within the track
  std::string name;
  TraceArgs args;
  std::uint64_t ts_ns = 0;       // relative to session epoch
  std::uint64_t dur_ns = 0;      // kSpan only
};

class MetricsRegistry;

// Single-writer event buffer for one track.
class TraceBuffer {
 public:
  TraceBuffer(std::uint64_t track_id, std::string label,
              std::uint64_t epoch_ns, MetricsRegistry* metrics)
      : track_id_(track_id),
        label_(std::move(label)),
        epoch_ns_(epoch_ns),
        metrics_(metrics) {}

  // Opens a span; returns its event index for end_span. Events render
  // in begin order.
  std::size_t begin_span(std::string name);
  void end_span(std::size_t index, TraceArgs args = TraceArgs());
  // A span whose interval was measured externally: starts at
  // start_rel_ns (relative ns, as returned by now_ns) and ends now.
  void complete_span(std::string name, std::uint64_t start_rel_ns,
                     TraceArgs args = TraceArgs());
  void instant(std::string name, TraceArgs args = TraceArgs());

  // Session-relative monotonic timestamp.
  std::uint64_t now_ns() const { return trace_now_ns() - epoch_ns_; }

  std::uint64_t track_id() const { return track_id_; }
  const std::string& label() const { return label_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  // Registry shared by all tracks of the owning session (may be
  // detached-null in tests).
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  std::uint64_t track_id_;
  std::string label_;
  std::uint64_t epoch_ns_;
  MetricsRegistry* metrics_;
  std::vector<TraceEvent> events_;
  std::vector<std::size_t> open_;  // indices of currently open spans
};

// Named counters, gauges, and u64 histograms with nearest-rank
// quantiles. Names with an `rt/` prefix are runtime-only (schedule
// dependent) and render under a separate "runtime" section that
// `cpt_trace diff` ignores; all other names must be deterministic.
class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::uint64_t delta);
  void set_gauge(const std::string& name, double value);
  void record(const std::string& name, std::uint64_t sample);

  // The `cpt_metrics_v1` document: the registry body (counters/gauges/
  // histograms and a nested "runtime" section) under "metrics".
  std::string render_json(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, std::vector<std::uint64_t>> hists_;
};

// Owns the track buffers and the shared registry for one traced run.
class TraceSession {
 public:
  TraceSession() : epoch_ns_(trace_now_ns()) {}

  // Returns the track with this id, creating it on first use (the
  // label of the first caller wins). Thread-safe; the returned buffer
  // is single-writer and stays valid for the session's lifetime.
  TraceBuffer* make_track(std::uint64_t id, std::string label);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  std::uint64_t epoch_ns() const { return epoch_ns_; }

  // `cpt_trace_v1` JSONL: header, then track declarations and events
  // sorted by (track id, seq). Timestamp fields render last on each
  // line so a deterministic view is a per-line suffix strip.
  std::string render_jsonl(const std::string& name) const;

 private:
  std::uint64_t epoch_ns_;
  MetricsRegistry metrics_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> tracks_;
};

}  // namespace util
}  // namespace cpt

#endif  // CPT_UTIL_TRACE_H_
