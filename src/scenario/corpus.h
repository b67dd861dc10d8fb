// Binary corpus store for generated scenario graphs, keyed by instance
// hash. Repeated sweeps over the same manifest skip regeneration: the batch
// engine materializes each unique instance once per run (in-memory dedup)
// and, when a corpus directory is configured, persists it as
// <dir>/<16-hex-hash>.cpg so later runs load instead of generating.
//
// On-disk format v3 (the full layout lives in DESIGN.md section 8): a
// 64-byte checksummed little-endian header (magic 'CPTC', version, n and m
// as u64, payload checksum, header checksum) followed by the in-memory CSR
// arrays verbatim, each section 64-byte aligned: node offsets ((n+1) x
// u32), arcs (2m x 12-byte Arc, peer_arc prefilled), endpoints (m x 8
// bytes). Format limits: n < 2^32 - 1, m < 2^31.
//
// A corpus hit reads the whole file, checks the header, the exact size and
// the full payload checksum, rebuilds the graph from the endpoint section
// through GraphBuilder, and accepts the file only when the rebuild's CSR
// arrays equal its three sections byte for byte. The loaded Graph owns
// only what the builder made: a checksum-valid file with a forged arc,
// offset or endpoint loads as kCorrupt, never as a graph that breaks a
// CSR invariant. The file size bounds every allocation.
//
// Legacy v2 files (u32 header + endpoint list) are no longer read: their
// version word fails the header check, so a stale v2 file loads as
// kCorrupt, is regenerated and is re-saved as v3.
//
// Robustness: load() distinguishes a missing file (kMiss) from a damaged
// one (kCorrupt: bad magic/version, truncated, size mismatch, checksum
// mismatch, trailing bytes, a section the rebuild does not reproduce).
// Corrupt files earn a stderr warning and the engine falls back to
// regeneration -- a half-written or garbled cache entry can slow a sweep
// down, never poison it. Saves are durable: tmp + fsync + rename +
// parent-directory fsync (util/fsio.h). The "file" family is exempt from
// the disk layer (see engine.cc): its hash names a path, not the file's
// content, and must not shadow later edits.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace cpt::scenario {

class CorpusStore {
 public:
  // dir == "" disables the disk layer (load always misses, save no-ops).
  // The directory is created on first save if missing. Opening an existing
  // directory sweeps orphaned *.tmp files (the residue of saves killed
  // between fopen and rename) so they cannot accumulate across crashes.
  explicit CorpusStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  enum class LoadStatus { kMiss, kHit, kCorrupt };

  // kHit fills *out with the graph rebuilt from <dir>/<hash>.cpg. kCorrupt
  // means the file exists but failed validation (warned on stderr; caller
  // should regenerate -- the subsequent save() replaces the damaged file).
  LoadStatus load(std::uint64_t hash, Graph* out) const;

  // Persists g under its hash as v3; returns false on I/O failure (the
  // batch engine treats that as non-fatal: the graph is still in memory).
  bool save(std::uint64_t hash, const Graph& g) const;

  std::string path_for(std::uint64_t hash) const;

 private:
  std::string dir_;
};

}  // namespace cpt::scenario
