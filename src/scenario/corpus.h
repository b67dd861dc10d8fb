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
// bytes). Because the file *is* the CSR, a corpus hit is a zero-copy mmap:
// load() returns a read-only Graph view backed by the mapping
// (Graph::from_csr) -- no GraphBuilder replay, no per-job O(m) allocation,
// and no node-count cap (v2 refused graphs above 2^27 nodes; v3 accepts
// anything within the format limits: n < 2^32 - 1, m < 2^31).
//
// Legacy v2 files (u32 header + endpoint list) are no longer read: their
// version word fails the header check, so a stale v2 file loads as
// kCorrupt, is regenerated and is re-saved as v3.
//
// Integrity policy: the header checksum and exact-size cross-check are
// always enforced. The payload checksum is verified in full for files up
// to 64 MiB -- and always when CPT_CORPUS_VERIFY=full -- while larger
// files are admitted on the header alone (CPT_CORPUS_VERIFY=size makes
// that unconditional), so a multi-gigabyte hit stays zero-copy instead of
// paying a full read. Every file written by the test suite is far below
// the threshold, so torn/bit-rot coverage always runs checksummed.
//
// Robustness: load() distinguishes a missing file (kMiss) from a damaged
// one (kCorrupt: bad magic/version, truncated, size mismatch, checksum
// mismatch, trailing bytes). Corrupt files earn a stderr warning and the
// engine falls back to regeneration -- a half-written or garbled cache
// entry can slow a sweep down, never poison it. Saves are durable: tmp +
// fsync + rename + parent-directory fsync (util/fsio.h). The "file"
// family is exempt from the disk layer (see engine.cc): its hash names a
// path, not the file's content, and must not shadow later edits.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_stream.h"
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

  // kHit fills *out from <dir>/<hash>.cpg as a zero-copy mmap-backed
  // view. kCorrupt means the file exists but failed validation (warned on
  // stderr; caller should regenerate -- the subsequent save() replaces the
  // damaged file).
  LoadStatus load(std::uint64_t hash, Graph* out) const;

  // Persists g under its hash as v3; returns false on I/O failure (the
  // batch engine treats that as non-fatal: the graph is still in memory).
  bool save(std::uint64_t hash, const Graph& g) const;

  // Streaming save: materializes the stream straight into a v3 file in
  // two passes (degree count, then sequential endpoint + scattered arc
  // writes through a mapping of the output), so no resident Graph ever
  // exists. Peak memory is O(n) cursor arrays plus a bounded mapping
  // window (completed regions are released as the write frontier
  // advances), not O(m). The resulting file is byte-identical to
  // save(build(...)) for the same edge set -- pinned by tests.
  bool save_stream(std::uint64_t hash, gen::EdgeStream& stream) const;

  std::string path_for(std::uint64_t hash) const;

 private:
  std::string dir_;
};

}  // namespace cpt::scenario
