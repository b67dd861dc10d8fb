#include "scenario/journal.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "scenario/faultinject.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "util/fsio.h"

namespace cpt::scenario {

std::uint64_t fnv_fold_bytes(std::uint64_t h, const char* data,
                             std::size_t n) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_fold_u64(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::string fnv_hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

// Line layout: {"sum": "<16hex>", "rec": <object>}\n -- the record text
// starts at byte kRecOffset and ends 2 bytes before the line's end.
constexpr std::size_t kRecOffset = 35;
constexpr const char* kLinePrefix = "{\"sum\": \"";   // 9 bytes
constexpr const char* kLineInfix = "\", \"rec\": ";   // 10 bytes, at 25

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

std::uint64_t get_u64(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return 0;
  if (v->is_integer()) return static_cast<std::uint64_t>(v->as_int64());
  return static_cast<std::uint64_t>(v->as_double());
}

bool get_flag(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

}  // namespace

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

std::string checksummed_record_line(const std::string& rec) {
  std::string line = kLinePrefix;
  line += fnv_hex16(fnv_fold_bytes(fnv1a64(""), rec.data(), rec.size()));
  line += kLineInfix;
  line += rec;
  line += "}\n";
  return line;
}

bool split_checksummed_line(std::string_view line,
                            std::string_view* rec_text) {
  if (line.size() < kRecOffset + 2) return false;
  if (line.substr(0, 9) != kLinePrefix) return false;
  if (line.substr(25, 10) != kLineInfix) return false;
  if (line.back() != '}') return false;
  for (std::size_t i = 9; i < 25; ++i) {
    const char c = line[i];
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  const std::string_view rec = line.substr(kRecOffset,
                                           line.size() - kRecOffset - 1);
  const std::uint64_t sum =
      fnv_fold_bytes(fnv1a64(""), rec.data(), rec.size());
  if (fnv_hex16(sum) != line.substr(9, 16)) return false;
  *rec_text = rec;
  return true;
}

void append_result_fields(std::string& rec, const JobResult& r) {
  rec += ", \"n\": " + json_render_uint(r.n);
  rec += ", \"m\": " + json_render_uint(r.m);
  if (r.failed) {
    rec += ", \"failed\": true, \"error\": ";
    json_append_escaped(rec, r.error);
  } else if (r.timed_out) {
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
  if (r.retries > 0) rec += ", \"retries\": " + json_render_uint(r.retries);
  rec += ", \"wall_seconds\": " + json_render_double(r.wall_seconds);
}

bool parse_result_fields(const JsonValue& rec, JobResult* out,
                         std::string* error) {
  JobResult r;
  r.n = static_cast<NodeId>(get_u64(rec, "n"));
  r.m = static_cast<EdgeId>(get_u64(rec, "m"));
  r.failed = get_flag(rec, "failed");
  r.timed_out = get_flag(rec, "timed_out");
  if (r.failed || r.timed_out) {
    if (const JsonValue* e = rec.find("error")) {
      if (e->is_string()) r.error = e->as_string();
    }
  } else {
    const JsonValue* verdict = rec.find("verdict");
    if (verdict == nullptr || !verdict->is_string() ||
        !parse_verdict(verdict->as_string(), &r.verdict)) {
      if (error != nullptr) *error = "record with bad verdict";
      return false;
    }
    r.rounds = get_u64(rec, "rounds");
    r.messages = get_u64(rec, "messages");
    r.num_parts = static_cast<NodeId>(get_u64(rec, "num_parts"));
    r.cut_edges = get_u64(rec, "cut_edges");
    r.max_part_ecc =
        static_cast<std::uint32_t>(get_u64(rec, "max_part_ecc"));
    r.max_tree_depth =
        static_cast<std::uint32_t>(get_u64(rec, "max_tree_depth"));
    r.stage1_phases =
        static_cast<std::uint32_t>(get_u64(rec, "stage1_phases"));
    r.stage1_phases_total =
        static_cast<std::uint32_t>(get_u64(rec, "stage1_phases_total"));
    r.trials_per_phase =
        static_cast<std::uint32_t>(get_u64(rec, "trials_per_phase"));
  }
  r.retries = static_cast<std::uint32_t>(get_u64(rec, "retries"));
  if (const JsonValue* w = rec.find("wall_seconds")) {
    if (w->is_number()) r.wall_seconds = w->as_double();
  }
  *out = std::move(r);
  return true;
}

std::uint64_t journal_fingerprint(const Manifest& manifest,
                                  const std::vector<Job>& jobs) {
  std::uint64_t h = fnv1a64(manifest.name);
  h = fnv_fold_u64(h, manifest.base_seed);
  h = fnv_fold_u64(h, jobs.size());
  for (const Job& job : jobs) {
    // cell_key covers label, tester, epsilon and every mode marker; the
    // hashes and seeds pin the exact instances and trial randomness.
    const std::string key = job.cell_key();
    h = fnv_fold_bytes(h, key.data(), key.size());
    h = fnv_fold_u64(h, job.instance.hash());
    h = fnv_fold_u64(h, job.tester_seed);
  }
  return h;
}

std::string render_journal_header(const Manifest& manifest,
                                  const std::vector<Job>& jobs) {
  std::string rec = "{\"schema\": \"cpt_batch_journal_v1\", \"manifest\": ";
  json_append_escaped(rec, manifest.name);
  rec += ", \"base_seed\": " + json_render_uint(manifest.base_seed);
  rec += ", \"jobs\": " + json_render_uint(jobs.size());
  rec += ", \"fingerprint\": \"" +
         fnv_hex16(journal_fingerprint(manifest, jobs));
  rec += "\"}";
  return checksummed_record_line(rec);
}

std::string render_journal_record(const Job& job, const JobResult& r) {
  std::string rec = "{\"job\": " + json_render_uint(job.job_index);
  rec += ", \"key\": ";
  json_append_escaped(rec, job.cell_key());
  rec += ", \"seed\": " + json_render_uint(job.tester_seed);
  append_result_fields(rec, r);
  rec += "}";
  return checksummed_record_line(rec);
}

bool load_journal(const std::string& path, JournalReplay* out,
                  std::string* error) {
  *out = JournalReplay{};
  std::string text;
  if (!read_text_file(path, &text)) {
    if (error != nullptr) *error = "cannot read journal " + path;
    return false;
  }
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = path + ": " + msg;
    return false;
  };

  std::size_t pos = 0;
  bool saw_header = false;
  std::size_t tail_start = std::string::npos;  // first invalid line
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // No newline: a torn final line (crash mid-append).
      tail_start = pos;
      break;
    }
    const std::string_view line(text.data() + pos, nl - pos);
    std::string_view rec_text;
    JsonValue rec;
    std::string jerr;
    if (!split_checksummed_line(line, &rec_text) ||
        !JsonValue::parse(rec_text, &rec, &jerr) || !rec.is_object()) {
      tail_start = pos;
      break;
    }
    if (!saw_header) {
      const JsonValue* schema = rec.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != "cpt_batch_journal_v1") {
        return fail("not a cpt_batch_journal_v1 journal");
      }
      if (const JsonValue* name = rec.find("manifest")) {
        if (name->is_string()) out->manifest_name = name->as_string();
      }
      out->base_seed = get_u64(rec, "base_seed");
      out->jobs = get_u64(rec, "jobs");
      const JsonValue* fp = rec.find("fingerprint");
      if (fp == nullptr || !fp->is_string() ||
          !parse_hex16(fp->as_string(), &out->fingerprint)) {
        return fail("journal header missing fingerprint");
      }
      saw_header = true;
    } else {
      const JsonValue* jv = rec.find("job");
      if (jv == nullptr || !jv->is_integer() || jv->as_int64() < 0 ||
          static_cast<std::uint64_t>(jv->as_int64()) >= out->jobs) {
        return fail("journal record with out-of-range job index");
      }
      const std::uint32_t j = static_cast<std::uint32_t>(jv->as_int64());
      JobResult r;
      std::string perr;
      if (!parse_result_fields(rec, &r, &perr)) {
        return fail("journal " + perr);
      }
      out->completed[j] = std::move(r);
    }
    pos = nl + 1;
  }
  if (!saw_header) return fail("missing or corrupt journal header");
  out->valid_bytes = tail_start == std::string::npos ? text.size()
                                                     : tail_start;
  out->dropped_bytes = text.size() - out->valid_bytes;
  // A torn tail is what crashes produce; valid records *after* damage are
  // not -- refuse rather than silently dropping acknowledged results.
  if (tail_start != std::string::npos) {
    std::size_t p = tail_start;
    while (true) {
      const std::size_t nl = text.find('\n', p);
      if (nl == std::string::npos) break;
      const std::string_view line(text.data() + p, nl - p);
      std::string_view rec_text;
      if (split_checksummed_line(line, &rec_text)) {
        return fail("corrupt record followed by valid data (not a torn "
                    "tail; refusing to resume)");
      }
      p = nl + 1;
    }
  }
  return true;
}

bool JournalWriter::write_all(const char* data, std::size_t size) {
  if (file_ == nullptr || failed_) return false;
  if (std::fwrite(data, 1, size, file_) != size) {
    failed_ = true;
    return false;
  }
  return true;
}

bool JournalWriter::create(const std::string& path, const Manifest& manifest,
                           const std::vector<Job>& jobs) {
  close();
  failed_ = false;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    failed_ = true;
    return false;
  }
  const std::string header = render_journal_header(manifest, jobs);
  if (!write_all(header.data(), header.size())) return false;
  // The header must survive any later crash for the file to be a journal
  // -- including its directory entry, which fsync(file) alone does not
  // cover for a freshly created file.
  if (!sync()) return false;
  if (!fsync_parent_dir(path)) {
    failed_ = true;
    return false;
  }
  return true;
}

bool JournalWriter::open_resume(const std::string& path,
                                std::size_t valid_bytes) {
  close();
  failed_ = false;
  // Cut the torn tail first: appending after it would splice the tear
  // into the next record.
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    failed_ = true;
    return false;
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    failed_ = true;
    return false;
  }
  return true;
}

bool JournalWriter::append(const Job& job, const JobResult& result) {
  if (file_ == nullptr || failed_) return false;
  const std::string line = render_journal_record(job, result);
  const FaultAction fault =
      fault_check(FaultSite::kJournalWrite, job.job_index);
  if (fault == FaultAction::kShortWrite || fault == FaultAction::kExit) {
    // Tear the line mid-record -- exactly what a crash mid-append leaves.
    write_all(line.data(), line.size() / 2);
    std::fflush(file_);
    if (fault == FaultAction::kExit) ::_exit(kFaultExitCode);
    failed_ = true;
    return false;
  }
  fault_raise(fault, FaultSite::kJournalWrite, job.job_index);
  if (!write_all(line.data(), line.size())) return false;
  if (++unsynced_ >= kSyncEvery) return sync();
  return true;
}

bool JournalWriter::sync() {
  if (file_ == nullptr || failed_) return false;
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    failed_ = true;
    return false;
  }
  unsynced_ = 0;
  return true;
}

bool JournalWriter::finish() {
  // No journal (or already closed) with no recorded failure is vacuously
  // durable -- cpt_batch calls finish() unconditionally after the sink
  // drains, journal or not.
  if (file_ == nullptr) return !failed_;
  return sync();
}

bool JournalWriter::close() {
  if (file_ == nullptr) return !failed_;
  const bool synced = finish();
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  return synced && closed && !failed_;
}

}  // namespace cpt::scenario
