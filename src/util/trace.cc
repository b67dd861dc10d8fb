#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "util/contracts.h"

namespace cpt {
namespace util {

namespace {

// Local JSON helpers; util does not depend on scenario/json.h, but the
// formats match (%.17g doubles, same escape set) so documents compose.
void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string render_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string render_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string render_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_args_object(std::string& out, const TraceArgs& args) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : args.entries()) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, k);
    out += ':';
    out += v;
  }
  out += '}';
}

bool is_runtime_name(const std::string& name) {
  return name.size() >= 3 && name.compare(0, 3, "rt/") == 0;
}

// Nearest-rank quarter quantile over a sorted sample set; same
// convention as scenario/aggregate.h so doc consumers see one rule.
std::uint64_t quartile(const std::vector<std::uint64_t>& sorted, int k) {
  const std::size_t c = sorted.size();
  const std::size_t idx =
      (static_cast<std::size_t>(k) * (c - 1) + 2) / 4;
  return sorted[idx];
}

}  // namespace

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceArgs& TraceArgs::add(std::string key, std::uint64_t v) {
  kv_.emplace_back(std::move(key), render_u64(v));
  return *this;
}

TraceArgs& TraceArgs::add(std::string key, std::int64_t v) {
  kv_.emplace_back(std::move(key), render_i64(v));
  return *this;
}

TraceArgs& TraceArgs::add(std::string key, int v) {
  return add(std::move(key), static_cast<std::int64_t>(v));
}

TraceArgs& TraceArgs::add(std::string key, unsigned v) {
  return add(std::move(key), static_cast<std::uint64_t>(v));
}

TraceArgs& TraceArgs::add(std::string key, double v) {
  kv_.emplace_back(std::move(key), render_double(v));
  return *this;
}

TraceArgs& TraceArgs::add(std::string key, bool v) {
  kv_.emplace_back(std::move(key), v ? "true" : "false");
  return *this;
}

TraceArgs& TraceArgs::add(std::string key, std::string_view v) {
  std::string rendered;
  append_escaped(rendered, v);
  kv_.emplace_back(std::move(key), std::move(rendered));
  return *this;
}

TraceArgs& TraceArgs::add(std::string key, const char* v) {
  return add(std::move(key), std::string_view(v));
}

TraceArgs& TraceArgs::add_hex(std::string key, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", v);
  kv_.emplace_back(std::move(key), buf);
  return *this;
}

std::size_t TraceBuffer::begin_span(std::string name) {
  const std::size_t index = events_.size();
  TraceEvent e;
  e.kind = TraceEvent::kSpan;
  e.name = std::move(name);
  e.depth = static_cast<std::uint32_t>(open_.size());
  e.ts_ns = now_ns();
  events_.push_back(std::move(e));
  open_.push_back(index);
  return index;
}

void TraceBuffer::end_span(std::size_t index, TraceArgs args) {
  CPT_ASSERT(index < events_.size() &&
            events_[index].kind == TraceEvent::kSpan);
  CPT_ASSERT(!open_.empty() && open_.back() == index);
  open_.pop_back();
  TraceEvent& e = events_[index];
  e.dur_ns = now_ns() - e.ts_ns;
  e.args = std::move(args);
}

void TraceBuffer::complete_span(std::string name,
                                std::uint64_t start_rel_ns,
                                TraceArgs args) {
  TraceEvent e;
  e.kind = TraceEvent::kSpan;
  e.name = std::move(name);
  e.depth = static_cast<std::uint32_t>(open_.size());
  e.ts_ns = start_rel_ns;
  e.dur_ns = now_ns() - start_rel_ns;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceBuffer::instant(std::string name, TraceArgs args) {
  TraceEvent e;
  e.kind = TraceEvent::kInstant;
  e.name = std::move(name);
  e.depth = static_cast<std::uint32_t>(open_.size());
  e.ts_ns = now_ns();
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceBuffer::count(std::string name, std::uint64_t value) {
  TraceEvent e;
  e.kind = TraceEvent::kCount;
  e.name = std::move(name);
  e.depth = static_cast<std::uint32_t>(open_.size());
  e.value = value;
  e.ts_ns = now_ns();
  events_.push_back(std::move(e));
}

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::record(const std::string& name,
                             std::uint64_t sample) {
  std::lock_guard<std::mutex> lock(mu_);
  hists_[name].push_back(sample);
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && hists_.empty();
}

namespace {

template <typename Map, typename RenderValue>
void append_section(std::string& out, const std::string& pad,
                    const char* title, const Map& map, bool runtime,
                    bool& first_section, RenderValue&& render_value) {
  bool any = false;
  for (const auto& [name, value] : map) {
    if (is_runtime_name(name) != runtime) continue;
    any = true;
    break;
  }
  if (!any) return;
  if (!first_section) out += ",\n";
  first_section = false;
  out += pad + "  ";
  append_escaped(out, title);
  out += ": {\n";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (is_runtime_name(name) != runtime) continue;
    if (!first) out += ",\n";
    first = false;
    out += pad + "    ";
    append_escaped(out, name);
    out += ": ";
    out += render_value(value);
  }
  out += "\n" + pad + "  }";
}

std::string render_hist(const std::vector<std::uint64_t>& samples) {
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t sum = 0;
  for (const std::uint64_t s : sorted) sum += s;
  std::string out = "{\"count\": " + render_u64(sorted.size());
  out += ", \"min\": " + render_u64(sorted.front());
  out += ", \"p25\": " + render_u64(quartile(sorted, 1));
  out += ", \"p50\": " + render_u64(quartile(sorted, 2));
  out += ", \"p75\": " + render_u64(quartile(sorted, 3));
  out += ", \"max\": " + render_u64(sorted.back());
  out += ", \"sum\": " + render_u64(sum);
  out += "}";
  return out;
}

// Renders one determinism class (deterministic or runtime) of the
// registry maps into `out` as the body of an object.
void append_sections(std::string& out, const std::string& pad,
                     bool runtime,
                     const std::map<std::string, std::uint64_t>& counters,
                     const std::map<std::string, double>& gauges,
                     const std::map<std::string,
                                    std::vector<std::uint64_t>>& hists) {
  bool first_section = true;
  append_section(out, pad, "counters", counters, runtime, first_section,
                 [](std::uint64_t v) { return render_u64(v); });
  append_section(out, pad, "gauges", gauges, runtime, first_section,
                 [](double v) { return render_double(v); });
  append_section(out, pad, "histograms", hists, runtime, first_section,
                 [](const std::vector<std::uint64_t>& v) {
                   return render_hist(v);
                 });
}

bool has_runtime(const std::map<std::string, std::uint64_t>& counters,
                 const std::map<std::string, double>& gauges,
                 const std::map<std::string,
                                std::vector<std::uint64_t>>& hists) {
  for (const auto& [name, v] : counters) {
    if (is_runtime_name(name)) return true;
  }
  for (const auto& [name, v] : gauges) {
    if (is_runtime_name(name)) return true;
  }
  for (const auto& [name, v] : hists) {
    if (is_runtime_name(name)) return true;
  }
  return false;
}

}  // namespace

std::string MetricsRegistry::render_object(int indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  append_sections(out, pad, /*runtime=*/false, counters_, gauges_,
                  hists_);
  if (has_runtime(counters_, gauges_, hists_)) {
    const bool had_deterministic = out.size() > 2;
    if (had_deterministic) out += ",\n";
    out += pad + "  \"runtime\": {\n";
    append_sections(out, pad + "  ", /*runtime=*/true, counters_,
                    gauges_, hists_);
    out += "\n" + pad + "  }";
  }
  out += "\n" + pad + "}";
  return out;
}

std::string MetricsRegistry::render_json(const std::string& name) const {
  std::string out = "{\n  \"schema\": \"cpt_metrics_v1\",\n  \"name\": ";
  append_escaped(out, name);
  out += ",\n  \"metrics\": ";
  out += render_object(2);
  out += "\n}\n";
  return out;
}

TraceBuffer* TraceSession::make_track(std::uint64_t id,
                                      std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tracks_) {
    if (t->track_id() == id) return t.get();
  }
  tracks_.push_back(std::make_unique<TraceBuffer>(
      id, std::move(label), epoch_ns_, &metrics_));
  return tracks_.back().get();
}

std::string TraceSession::render_jsonl(const std::string& name) const {
  std::vector<const TraceBuffer*> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    order.reserve(tracks_.size());
    for (const auto& t : tracks_) order.push_back(t.get());
  }
  std::sort(order.begin(), order.end(),
            [](const TraceBuffer* a, const TraceBuffer* b) {
              return a->track_id() < b->track_id();
            });
  std::string out = "{\"schema\":\"cpt_trace_v1\",\"name\":";
  append_escaped(out, name);
  out += ",\"tracks\":" + render_u64(order.size()) + "}\n";
  for (const TraceBuffer* t : order) {
    out += "{\"track\":" + render_u64(t->track_id()) + ",\"label\":";
    append_escaped(out, t->label());
    out += "}\n";
    std::uint64_t seq = 0;
    for (const TraceEvent& e : t->events()) {
      out += "{\"track\":" + render_u64(t->track_id());
      out += ",\"seq\":" + render_u64(seq++);
      out += ",\"kind\":";
      switch (e.kind) {
        case TraceEvent::kSpan: out += "\"span\""; break;
        case TraceEvent::kInstant: out += "\"instant\""; break;
        case TraceEvent::kCount: out += "\"count\""; break;
      }
      out += ",\"name\":";
      append_escaped(out, e.name);
      out += ",\"depth\":" + render_u64(e.depth);
      if (e.kind == TraceEvent::kCount) {
        out += ",\"value\":" + render_u64(e.value);
      }
      if (!e.args.empty()) {
        out += ",\"args\":";
        append_args_object(out, e.args);
      }
      // Timestamps last: the deterministic view of a line is a suffix
      // strip (see strip_trace_timestamps in scenario/trace_analysis).
      out += ",\"ts_ns\":" + render_u64(e.ts_ns);
      if (e.kind == TraceEvent::kSpan) {
        out += ",\"dur_ns\":" + render_u64(e.dur_ns);
      }
      out += "}\n";
    }
  }
  return out;
}

}  // namespace util
}  // namespace cpt
