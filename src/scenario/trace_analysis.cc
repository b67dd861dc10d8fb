#include "scenario/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace cpt::scenario {

namespace {

std::uint64_t member_u64(const JsonValue& obj, std::string_view key,
                         std::uint64_t fallback = 0) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_integer()) return fallback;
  return static_cast<std::uint64_t>(v->as_int64());
}

std::string member_str(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return std::string();
  return v->as_string();
}

std::string format_ms(std::uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

// Pretty-renders a JsonValue, dropping every object member named
// "runtime" (the schedule-dependent metrics section). Insertion order is
// preserved, matching the writer, so equal documents render equal text.
void render_deterministic(const JsonValue& v, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad_in(static_cast<std::size_t>(indent) + 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      if (v.is_integer()) {
        out += json_render_int(v.as_int64());
      } else {
        out += json_render_double(v.as_double());
      }
      return;
    case JsonValue::Kind::kString:
      json_append_escaped(out, v.as_string());
      return;
    case JsonValue::Kind::kArray: {
      if (v.items().empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        out += pad_in;
        render_deterministic(v.items()[i], indent + 2, out);
        if (i + 1 < v.items().size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      return;
    }
    case JsonValue::Kind::kObject: {
      std::vector<const std::pair<std::string, JsonValue>*> kept;
      for (const auto& m : v.members()) {
        if (m.first != "runtime") kept.push_back(&m);
      }
      if (kept.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < kept.size(); ++i) {
        out += pad_in;
        json_append_escaped(out, kept[i]->first);
        out += ": ";
        render_deterministic(kept[i]->second, indent + 2, out);
        if (i + 1 < kept.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      return;
    }
  }
}

void split_lines(const std::string& text, std::vector<std::string>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    out->push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
}

// Parses a cpt_trace_v1 document: the header on line 1, then one JSON
// object per line (blank lines after the header are skipped). `path`
// only labels the error.
bool parse_trace_text(const std::string& text, const std::string& path,
                      TraceFile* out, std::string* error) {
  std::vector<std::string> lines;
  split_lines(text, &lines);
  if (lines.empty()) {
    *error = path + ": empty trace";
    return false;
  }
  *out = TraceFile();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0 && lines[i].empty()) continue;
    JsonValue v;
    std::string perr;
    const bool parsed = JsonValue::parse(lines[i], &v, &perr);
    if (i == 0) {
      if (!parsed || member_str(v, "schema") != "cpt_trace_v1") {
        *error = path + ": not a cpt_trace_v1 stream (line 1 is not its "
                        "header)";
        return false;
      }
      out->name = member_str(v, "name");
      continue;
    }
    if (!parsed) {
      *error = path + ":" + std::to_string(i + 1) + ": " + perr;
      return false;
    }
    if (v.find("label") != nullptr && v.find("seq") == nullptr) {
      TraceTrack t;
      t.id = member_u64(v, "track");
      t.label = member_str(v, "label");
      out->tracks.push_back(std::move(t));
      continue;
    }
    TraceEventRec e;
    e.track = member_u64(v, "track");
    e.seq = member_u64(v, "seq");
    e.kind = member_str(v, "kind");
    e.name = member_str(v, "name");
    e.depth = static_cast<std::uint32_t>(member_u64(v, "depth"));
    if (const JsonValue* a = v.find("args")) e.args = *a;
    e.ts_ns = member_u64(v, "ts_ns");
    e.dur_ns = member_u64(v, "dur_ns");
    e.has_dur = v.find("dur_ns") != nullptr;
    out->events.push_back(std::move(e));
  }
  return true;
}

}  // namespace

bool load_trace_file(const std::string& path, TraceFile* out,
                     std::string* error) {
  std::string text;
  if (!read_text_file(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  return parse_trace_text(text, path, out, error);
}

std::string trace_summary(const TraceFile& t, bool include_wall) {
  struct SpanRow {
    std::uint64_t count = 0, wall_ns = 0, rounds = 0, messages = 0;
    bool has_rounds = false, has_messages = false;
  };
  std::map<std::string, SpanRow> spans;
  std::map<std::string, std::uint64_t> instants;
  for (const TraceEventRec& e : t.events) {
    if (e.kind == "span") {
      SpanRow& row = spans[e.name];
      ++row.count;
      row.wall_ns += e.dur_ns;
      if (const JsonValue* r = e.args.find("rounds");
          r != nullptr && r->is_integer()) {
        row.rounds += static_cast<std::uint64_t>(r->as_int64());
        row.has_rounds = true;
      }
      if (const JsonValue* m = e.args.find("messages");
          m != nullptr && m->is_integer()) {
        row.messages += static_cast<std::uint64_t>(m->as_int64());
        row.has_messages = true;
      }
    } else if (e.kind == "instant") {
      ++instants[e.name];
    }
  }
  std::string out = "trace " + t.name + ": " +
                    std::to_string(t.tracks.size()) + " tracks, " +
                    std::to_string(t.events.size()) + " events\n";
  if (!spans.empty()) {
    out += "spans:\n";
    for (const auto& [name, row] : spans) {
      out += "  " + name + "  count=" + std::to_string(row.count);
      if (row.has_rounds) out += "  rounds=" + std::to_string(row.rounds);
      if (row.has_messages) {
        out += "  messages=" + std::to_string(row.messages);
      }
      if (include_wall) out += "  wall_ms=" + format_ms(row.wall_ns);
      out += '\n';
    }
  }
  if (!instants.empty()) {
    out += "instants:\n";
    for (const auto& [name, n] : instants) {
      out += "  " + name + "  count=" + std::to_string(n) + '\n';
    }
  }
  return out;
}

std::string trace_flame(const TraceFile& t) {
  struct Frame {
    std::uint32_t depth;
    std::uint64_t dur_ns;
    std::uint64_t child_ns = 0;
    const std::string* name;
  };
  struct Row {
    std::uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> rows;
  // Events arrive in (track, seq) order; spans within a track appear in
  // begin order with explicit depth, so a depth-indexed stack recovers
  // the nesting: a new span at depth d closes everything at depth >= d.
  std::uint64_t cur_track = 0;
  bool have_track = false;
  std::vector<Frame> stack;
  auto pop_to = [&](std::size_t depth) {
    while (stack.size() > depth) {
      const Frame f = stack.back();
      stack.pop_back();
      Row& r = rows[*f.name];
      ++r.count;
      r.total_ns += f.dur_ns;
      r.self_ns += f.dur_ns > f.child_ns ? f.dur_ns - f.child_ns : 0;
      if (!stack.empty()) stack.back().child_ns += f.dur_ns;
    }
  };
  for (const TraceEventRec& e : t.events) {
    if (!have_track || e.track != cur_track) {
      pop_to(0);
      cur_track = e.track;
      have_track = true;
    }
    if (e.kind != "span") continue;
    pop_to(e.depth);
    stack.push_back(Frame{e.depth, e.dur_ns, 0, &e.name});
  }
  pop_to(0);

  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second.total_ns != b.second.total_ns) {
      return a.second.total_ns > b.second.total_ns;
    }
    return a.first < b.first;
  });
  std::string out = "flame " + t.name + ": wall-clock by span name\n";
  for (const auto& [name, r] : sorted) {
    out += "  " + name + "  count=" + std::to_string(r.count) +
           "  total_ms=" + format_ms(r.total_ns) +
           "  self_ms=" + format_ms(r.self_ns) + '\n';
  }
  return out;
}

std::string strip_trace_timestamps(std::string_view line) {
  const std::size_t pos = line.rfind(",\"ts_ns\":");
  if (pos == std::string_view::npos) return std::string(line);
  return std::string(line.substr(0, pos)) + "}";
}

bool metrics_deterministic_view(const std::string& text, std::string* out,
                                std::string* error) {
  JsonValue v;
  if (!JsonValue::parse(text, &v, error)) return false;
  if (member_str(v, "schema") != "cpt_metrics_v1") {
    *error = "not a cpt_metrics_v1 document";
    return false;
  }
  out->clear();
  render_deterministic(v, 0, *out);
  *out += '\n';
  return true;
}

bool trace_diff_files(const std::string& path_a, const std::string& path_b,
                      std::string* report) {
  std::string a, b;
  if (!read_text_file(path_a, &a)) {
    *report = "cannot read " + path_a;
    return false;
  }
  if (!read_text_file(path_b, &b)) {
    *report = "cannot read " + path_b;
    return false;
  }
  const bool a_metrics = a.find("\"cpt_metrics_v1\"") != std::string::npos &&
                         a.find("\"cpt_trace_v1\"") == std::string::npos;
  const bool b_metrics = b.find("\"cpt_metrics_v1\"") != std::string::npos &&
                         b.find("\"cpt_trace_v1\"") == std::string::npos;
  if (a_metrics != b_metrics) {
    *report = "schema mismatch: " + path_a + " and " + path_b +
              " are different artifact kinds";
    return false;
  }
  std::string da, db;
  if (a_metrics) {
    std::string err;
    if (!metrics_deterministic_view(a, &da, &err)) {
      *report = path_a + ": " + err;
      return false;
    }
    if (!metrics_deterministic_view(b, &db, &err)) {
      *report = path_b + ": " + err;
      return false;
    }
  } else {
    // Both sides must be traces, as the metrics side must be metrics:
    // two empty or garbage files would otherwise compare "identical".
    TraceFile parsed;
    std::string err;
    if (!parse_trace_text(a, path_a, &parsed, &err) ||
        !parse_trace_text(b, path_b, &parsed, &err)) {
      *report = err;
      return false;
    }
    std::vector<std::string> la, lb;
    split_lines(a, &la);
    split_lines(b, &lb);
    for (const std::string& l : la) da += strip_trace_timestamps(l) + '\n';
    for (const std::string& l : lb) db += strip_trace_timestamps(l) + '\n';
  }
  if (da == db) return true;
  std::vector<std::string> la, lb;
  split_lines(da, &la);
  split_lines(db, &lb);
  const std::size_t n = std::min(la.size(), lb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (la[i] != lb[i]) {
      *report = "first divergence at deterministic line " +
                std::to_string(i + 1) + ":\n  " + path_a + ": " + la[i] +
                "\n  " + path_b + ": " + lb[i];
      return false;
    }
  }
  *report = "line count differs: " + path_a + " has " +
            std::to_string(la.size()) + " deterministic lines, " + path_b +
            " has " + std::to_string(lb.size());
  return false;
}

}  // namespace cpt::scenario
