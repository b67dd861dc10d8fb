#include "scenario/result_cache.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "scenario/journal.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "util/fsio.h"

namespace cpt::scenario {

namespace {

// Entry filenames: <16hex key>.cpr ("cpt result"). The extension keeps
// the cache dir shareable with the corpus (.cpg) without the two sweeps
// or globs ever matching each other's files.
constexpr const char* kEntrySuffix = ".cpr";

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
  h = fnv_fold_bytes(h, key.data(), key.size());
  h = fnv_fold_u64(h, job.instance.hash());
  h = fnv_fold_u64(h, job.tester_seed);
  return h;
}

std::string ResultCache::path_for(std::uint64_t key) const {
  return dir_ + "/" + fnv_hex16(key) + kEntrySuffix;
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
    // A valid entry for a different job: a key collision. Not corruption
    // of this file -- leave it for its owner -- but a miss for us.
    return LoadStatus::kMiss;
  }
  JobResult r;
  std::string perr;
  if (!parse_result_fields(rec, &r, &perr)) return corrupt();
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
  rec += ", \"instance\": \"" + fnv_hex16(job.instance.hash()) + "\"";
  rec += ", \"seed\": \"" + fnv_hex16(job.tester_seed) + "\"";
  append_result_fields(rec, result);
  rec += "}";
  const std::string line = checksummed_record_line(rec);

  // EEXIST is fine. Any other failure makes the open below fail and the
  // store return false; cpt_batch checks its directories before any work.
  ::mkdir(dir_.c_str(), 0755);
  const std::string final_path = path_for(key_for(job));
  const std::string tmp_path = unique_tmp_path(final_path);
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (ok) ok = durable_rename(tmp_path, final_path);
  if (!ok) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace cpt::scenario
