#include "scenario/result_cache.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

#include "scenario/json.h"
#include "scenario/registry.h"
#include "util/fsio.h"

namespace cpt::scenario {

namespace {

// Entry filenames: <16hex key>.cpr ("cpt result"). The extension keeps
// the cache dir shareable with the corpus (.cpg) without the two sweeps
// or globs ever matching each other's files.
constexpr const char* kEntrySuffix = ".cpr";

// Entry line layout: {"sum": "<16hex>", "rec": <object>}\n, where sum is
// FNV-1a-64 over the exact byte text of <object>. The record text starts
// at byte kRecOffset and ends 2 bytes before the line's end, so
// validation never needs to re-render JSON.
constexpr std::size_t kRecOffset = 35;
constexpr const char* kLinePrefix = "{\"sum\": \"";   // 9 bytes
constexpr const char* kLineInfix = "\", \"rec\": ";   // 10 bytes, at 25

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Inverse of hex16: exactly 16 lowercase hex digits. Hex strings are how
// full-range u64 identities (hashes, seeds) round-trip through JSON
// records -- a bare integer above INT64_MAX falls back to double in the
// parser and silently loses low bits.
bool parse_hex16(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  *out = v;
  return true;
}

// Folds v's 8 bytes, least significant first.
std::uint64_t fnv_fold_u64(std::uint64_t h, std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  return fnv_fold(h, le, sizeof le);
}

std::string record_sum(std::string_view rec) {
  return hex16(fnv_fold(kFnvOffsetBasis, rec.data(), rec.size()));
}

// Wraps `rec`'s exact byte text as {"sum": "<16hex>", "rec": <rec>}\n.
std::string checksummed_record_line(const std::string& rec) {
  std::string line = kLinePrefix;
  line += record_sum(rec);
  line += kLineInfix;
  line += rec;
  line += "}\n";
  return line;
}

// Validates one line's shape and checksum (no trailing newline); on
// success points *rec_text at the record substring inside `line`.
bool split_checksummed_line(std::string_view line,
                            std::string_view* rec_text) {
  if (line.size() < kRecOffset + 2) return false;
  if (line.substr(0, 9) != kLinePrefix) return false;
  if (line.substr(25, 10) != kLineInfix) return false;
  if (line.back() != '}') return false;
  const std::string_view rec = line.substr(kRecOffset,
                                           line.size() - kRecOffset - 1);
  if (record_sum(rec) != line.substr(9, 16)) return false;
  *rec_text = rec;
  return true;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kAccept: return "accept";
    case Verdict::kReject: return "reject";
    case Verdict::kFail: return "fail";
  }
  return "?";
}

bool parse_verdict(const std::string& s, Verdict* out) {
  if (s == "accept") *out = Verdict::kAccept;
  else if (s == "reject") *out = Verdict::kReject;
  else if (s == "fail") *out = Verdict::kFail;
  else return false;
  return true;
}

// Reads obj[key] into *out only as a non-negative JSON integer that fits
// T. A missing key, a negative, fractional or non-numeric value, and one
// too wide for T all fail (integers above INT64_MAX parse as doubles, so
// they fail too; no stored count comes near that).
template <typename T>
bool get_uint(const JsonValue& obj, const char* key, T* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_integer() || v->as_int64() < 0) return false;
  const auto u = static_cast<std::uint64_t>(v->as_int64());
  if (u > std::numeric_limits<T>::max()) return false;
  *out = static_cast<T>(u);
  return true;
}

bool get_flag(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

// The JobResult body of an entry: every field the aggregate document is
// a function of (verdict, rounds, messages, n/m, timed-out state) plus
// wall_seconds for the timing report. Starts with ", "
// (store() opens the object and writes the identity first). Failed
// results are never stored, so there is no failure state to write.
void append_result_fields(std::string& rec, const JobResult& r) {
  rec += ", \"n\": " + json_render_uint(r.n);
  rec += ", \"m\": " + json_render_uint(r.m);
  if (r.timed_out) {
    rec += ", \"timed_out\": true, \"error\": ";
    json_append_escaped(rec, r.error);
  } else {
    rec += ", \"verdict\": \"";
    rec += verdict_name(r.verdict);
    rec += "\", \"rounds\": " + json_render_uint(r.rounds);
    rec += ", \"messages\": " + json_render_uint(r.messages);
    rec += ", \"num_parts\": " + json_render_uint(r.num_parts);
    rec += ", \"cut_edges\": " + json_render_uint(r.cut_edges);
    rec += ", \"max_part_ecc\": " + json_render_uint(r.max_part_ecc);
    rec += ", \"max_tree_depth\": " + json_render_uint(r.max_tree_depth);
    rec += ", \"stage1_phases\": " + json_render_uint(r.stage1_phases);
    rec += ", \"stage1_phases_total\": " +
           json_render_uint(r.stage1_phases_total);
    if (r.trials_per_phase > 0) {
      rec += ", \"trials_per_phase\": " +
             json_render_uint(r.trials_per_phase);
    }
  }
  rec += ", \"wall_seconds\": " + json_render_double(r.wall_seconds);
}

// Reads append_result_fields' fields back. Fails on a missing or unknown
// verdict, and on any written count that get_uint refuses; the optional
// trials_per_phase is checked when present. Keys the writer no longer
// writes (an old entry's "retries") are ignored.
bool parse_result_fields(const JsonValue& rec, JobResult* out) {
  JobResult r;
  if (!get_uint(rec, "n", &r.n) || !get_uint(rec, "m", &r.m)) return false;
  r.timed_out = get_flag(rec, "timed_out");
  if (r.timed_out) {
    if (const JsonValue* e = rec.find("error")) {
      if (e->is_string()) r.error = e->as_string();
    }
  } else {
    const JsonValue* verdict = rec.find("verdict");
    if (verdict == nullptr || !verdict->is_string() ||
        !parse_verdict(verdict->as_string(), &r.verdict)) {
      return false;
    }
    if (!get_uint(rec, "rounds", &r.rounds) ||
        !get_uint(rec, "messages", &r.messages) ||
        !get_uint(rec, "num_parts", &r.num_parts) ||
        !get_uint(rec, "cut_edges", &r.cut_edges) ||
        !get_uint(rec, "max_part_ecc", &r.max_part_ecc) ||
        !get_uint(rec, "max_tree_depth", &r.max_tree_depth) ||
        !get_uint(rec, "stage1_phases", &r.stage1_phases) ||
        !get_uint(rec, "stage1_phases_total", &r.stage1_phases_total)) {
      return false;
    }
    if (rec.find("trials_per_phase") != nullptr &&
        !get_uint(rec, "trials_per_phase", &r.trials_per_phase)) {
      return false;
    }
  }
  if (const JsonValue* w = rec.find("wall_seconds")) {
    if (w->is_number()) r.wall_seconds = w->as_double();
  }
  *out = std::move(r);
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  // Sweep orphaned publish temporaries, mirroring the corpus store: a
  // writer killed between open and rename leaks <key>.cpr.tmp.<pid>.<n>.
  // Live-pid temps are kept (sweepable_tmp): a concurrent cpt_batch
  // process may be mid-store in this very directory.
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;  // created later on first store
  while (const dirent* entry = ::readdir(d)) {
    if (!sweepable_tmp(entry->d_name, ".cpr.tmp")) continue;
    const std::string orphan = dir_ + "/" + entry->d_name;
    std::remove(orphan.c_str());
  }
  ::closedir(d);
}

std::uint64_t ResultCache::key_for(const Job& job) {
  std::uint64_t h = fnv1a64("cpt_result_v1");
  const std::string key = job.cell_key();
  h = fnv_fold(h, key.data(), key.size());
  h = fnv_fold_u64(h, job.instance.hash());
  h = fnv_fold_u64(h, job.tester_seed);
  return h;
}

std::string ResultCache::path_for(std::uint64_t key) const {
  return dir_ + "/" + hex16(key) + kEntrySuffix;
}

ResultCache::LoadStatus ResultCache::load(const Job& job,
                                          JobResult* out) const {
  if (!enabled()) return LoadStatus::kMiss;
  const std::string path = path_for(key_for(job));
  std::string text;
  if (!read_text_file(path, &text)) return LoadStatus::kMiss;
  const auto corrupt = [&] {
    // Self-heal: a removed entry is re-stored on this run's retire. A
    // concurrent writer may have already replaced it with a good entry;
    // removing that one too only costs the next run a re-execution.
    std::remove(path.c_str());
    return LoadStatus::kCorrupt;
  };
  if (text.empty() || text.back() != '\n') return corrupt();
  const std::string_view line(text.data(), text.size() - 1);
  std::string_view rec_text;
  JsonValue rec;
  std::string jerr;
  if (!split_checksummed_line(line, &rec_text) ||
      !JsonValue::parse(rec_text, &rec, &jerr) || !rec.is_object()) {
    return corrupt();
  }
  // Full identity check, not just the filename: the record's cell_key
  // text, instance hash and seed must all match the requesting job, so a
  // 64-bit key collision (or a renamed file) can never serve a wrong
  // result.
  const JsonValue* schema = rec.find("schema");
  const JsonValue* key = rec.find("key");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "cpt_result_v1" || key == nullptr ||
      !key->is_string()) {
    return corrupt();
  }
  const auto rec_hex_u64 = [&rec](const char* field, std::uint64_t* out) {
    const JsonValue* v = rec.find(field);
    return v != nullptr && v->is_string() && parse_hex16(v->as_string(), out);
  };
  std::uint64_t instance_hash = 0, seed = 0;
  if (!rec_hex_u64("instance", &instance_hash) || !rec_hex_u64("seed", &seed)) {
    return corrupt();
  }
  if (key->as_string() != job.cell_key() || instance_hash != job.instance.hash() ||
      seed != job.tester_seed) {
    // A valid entry for a different job (a key collision, or its bytes
    // left here by a crash): leave it for its owner, but a miss for us.
    return LoadStatus::kMiss;
  }
  JobResult r;
  if (!parse_result_fields(rec, &r)) return corrupt();
  *out = std::move(r);
  return LoadStatus::kHit;
}

bool ResultCache::store(const Job& job, const JobResult& result) const {
  if (!enabled() || result.failed) return false;
  std::string rec = "{\"schema\": \"cpt_result_v1\", \"key\": ";
  json_append_escaped(rec, job.cell_key());
  // Hex16, not bare integers: instance hashes and derived seeds use the
  // full u64 range, and the JSON parser demotes integers above INT64_MAX
  // to double -- the low bits the identity check depends on would vanish.
  rec += ", \"instance\": \"" + hex16(job.instance.hash()) + "\"";
  rec += ", \"seed\": \"" + hex16(job.tester_seed) + "\"";
  append_result_fields(rec, result);
  rec += "}";
  const std::string line = checksummed_record_line(rec);

  // EEXIST is fine. Any other failure makes the open below fail and the
  // store return false; cpt_batch checks its directories before any work.
  ::mkdir(dir_.c_str(), 0755);
  const std::string final_path = path_for(key_for(job));
  const std::string tmp_path = unique_tmp_path(final_path);
  // Unique tmp + rename, no fsync: see the file comment in result_cache.h.
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  ok = (std::fclose(f) == 0) && ok;
  if (ok) ok = std::rename(tmp_path.c_str(), final_path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace cpt::scenario
