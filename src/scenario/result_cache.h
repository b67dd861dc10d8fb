// Persistent content-addressed result cache, living next to the corpus
// store: one file per cached JobResult, keyed by the job's content
// address. Repeated sweeps, from one cpt_batch process or several at
// once, re-simulate only what changed -- and a killed or interrupted run
// resumes by re-running the same command with the same cache directory.
//
// Key derivation is an FNV-1a-64 chain (scenario/registry.h's fnv_fold)
// over exactly the identity a result is a function of: the cell_key
// string (family, params, perturbation, epsilon, tester, mode flags), the
// instance hash (pins the exact graph incl. its seed chain) and the
// tester seed. Deliberately *not* folded: job_index (the same cell can
// appear at different indices across manifests and must still hit).
//
// Entries are single checksummed lines ({"sum": "<16hex>", "rec": {...}},
// FNV over the record bytes -- the same validate-before-trust discipline
// as corpus v3), written via unique-tmp + fsync + durable_rename so
// concurrent writers (threads or processes) can never publish a torn
// entry: a reader sees the old complete entry, the new complete entry, or
// a miss. The record carries the full identity (cell_key text, instance
// hash, seed), and load() verifies all three against the requesting job
// -- a 64-bit filename collision degrades to a miss, never to a wrong
// result.
//
// Corrupt entries (bit rot, torn by a mid-write power cut, or a record
// whose checksum holds but whose fields do not: a missing field, or a
// number that is negative, fractional or too wide for its JobResult
// field) are removed and reported as kCorrupt; the engine re-executes
// and re-stores, so the cache self-heals exactly like the corpus. Failed
// results are never stored, so a rerun re-executes them; timed-out
// results are (a round-budget refusal is deterministic). The directory
// has no size cap.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/engine.h"
#include "scenario/manifest.h"

namespace cpt::scenario {

class ResultCache {
 public:
  // dir = "" disables the cache (every load misses, every store no-ops).
  explicit ResultCache(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // The 64-bit content address (see file comment for what it folds).
  static std::uint64_t key_for(const Job& job);

  enum class LoadStatus { kMiss, kHit, kCorrupt };

  // kHit fills *out with a result byte-equivalent to re-running the job
  // (phase_stats aside: entries do not carry it). kCorrupt means an entry
  // existed but failed validation and was removed -- callers re-execute,
  // exactly like a miss. Thread- and process-safe against concurrent
  // store()s.
  LoadStatus load(const Job& job, JobResult* out) const;

  // Publishes the result under the job's key (atomic replace; last writer
  // wins -- both wrote equivalent results by the determinism contract).
  // Failed results are rejected (returns false without writing).
  bool store(const Job& job, const JobResult& result) const;

 private:
  std::string path_for(std::uint64_t key) const;

  std::string dir_;
};

}  // namespace cpt::scenario
