#include "scenario/corpus.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <span>
#include <vector>

#include "scenario/registry.h"
#include "util/fsio.h"

namespace cpt::scenario {

namespace {

// The v3 sections are the in-memory arrays written verbatim; the format is
// little-endian by fiat (every platform this repo targets is).
static_assert(std::endian::native == std::endian::little,
              "corpus v3 serializes CSR arrays verbatim (little-endian)");
static_assert(sizeof(Arc) == 12 && alignof(Arc) == 4);
static_assert(sizeof(Endpoints) == 8 && alignof(Endpoints) == 4);

constexpr std::uint32_t kMagic = 0x43545043;  // 'CPTC'
constexpr std::uint32_t kVersionV3 = 3;

// ---- v3 layout ------------------------------------------------------------
//
// [ 0, 64)  header: magic u32, version u32, n u64, m u64, payload checksum
//           u64 (FNV-1a-64 over bytes [64, file_size)), header checksum
//           u64 (FNV-1a-64 over bytes [0, 32)), then zero padding.
// [64, ...) sections, each 64-byte aligned, gaps zero-filled:
//           offsets  (n+1) x u32
//           arcs     2m x 12-byte Arc (peer_arc prefilled)
//           edges    m x 8-byte Endpoints
constexpr std::uint64_t kHeaderBytes = 64;
constexpr std::uint64_t kHeaderChecksumOff = 32;
// n+1 must fit offsets entries and NodeId; 2m must fit the u32 arc indices
// CSR offsets and Arc::peer_arc hold.
constexpr std::uint64_t kMaxNodesV3 = 0xFFFFFFFEULL;
constexpr std::uint64_t kMaxEdgesV3 = 0x7FFFFFFFULL;

std::uint64_t align64(std::uint64_t off) { return (off + 63) & ~63ULL; }

struct LayoutV3 {
  std::uint64_t offsets_off = kHeaderBytes;
  std::uint64_t arcs_off = 0;
  std::uint64_t edges_off = 0;
  std::uint64_t file_size = 0;
};

// All arithmetic in u64 from untrusted counts; the limits bound every term
// far below wrap-around, so a forged header cannot alias a small file size.
bool compute_layout_v3(std::uint64_t n, std::uint64_t m, LayoutV3* out) {
  if (n > kMaxNodesV3 || m > kMaxEdgesV3) return false;
  out->arcs_off = align64(kHeaderBytes + 4 * (n + 1));
  out->edges_off = align64(out->arcs_off + 2 * m * sizeof(Arc));
  out->file_size = out->edges_off + m * sizeof(Endpoints);
  return true;
}

void store_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void store_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void fill_header_v3(unsigned char* h, std::uint64_t n, std::uint64_t m,
                    std::uint64_t payload_sum) {
  std::memset(h, 0, kHeaderBytes);
  store_u32(h + 0, kMagic);
  store_u32(h + 4, kVersionV3);
  store_u64(h + 8, n);
  store_u64(h + 16, m);
  store_u64(h + 24, payload_sum);
  store_u64(h + kHeaderChecksumOff,
            fnv_fold(kFnvOffsetBasis, h, kHeaderChecksumOff));
}

// ---- v3 loading ------------------------------------------------------------

// True when `array`'s bytes equal the file's section at `section`.
template <typename T>
bool same_bytes(std::span<const T> array, const unsigned char* section) {
  return array.empty() ||
         std::memcmp(array.data(), section, array.size_bytes()) == 0;
}

// Validates a whole v3 file and rebuilds its graph. n and m are trusted
// only after the exact-size check, so the rebuild allocates no more than
// the file's own size. The rebuild, not the file, becomes the Graph, and
// only when its CSR arrays equal the file's sections byte for byte.
bool load_v3(const std::vector<unsigned char>& file, Graph* out) {
  const std::uint64_t file_size = file.size();
  if (file_size < kHeaderBytes) return false;
  const unsigned char* bytes = file.data();
  if (load_u32(bytes) != kMagic || load_u32(bytes + 4) != kVersionV3 ||
      load_u64(bytes + kHeaderChecksumOff) !=
          fnv_fold(kFnvOffsetBasis, bytes, kHeaderChecksumOff)) {
    return false;
  }
  for (std::uint64_t i = kHeaderChecksumOff + 8; i < kHeaderBytes; ++i) {
    if (bytes[i] != 0) return false;
  }
  const std::uint64_t n = load_u64(bytes + 8);
  const std::uint64_t m = load_u64(bytes + 16);
  LayoutV3 layout;
  if (!compute_layout_v3(n, m, &layout) || layout.file_size != file_size ||
      fnv_fold(kFnvOffsetBasis, bytes + kHeaderBytes,
               file_size - kHeaderBytes) != load_u64(bytes + 24)) {
    return false;
  }

  GraphBuilder builder(static_cast<NodeId>(n));
  for (std::uint64_t e = 0; e < m; ++e) {
    const unsigned char* p = bytes + layout.edges_off + e * sizeof(Endpoints);
    const std::uint32_t u = load_u32(p);
    const std::uint32_t v = load_u32(p + 4);
    if (u >= v || v >= n) return false;
    builder.add_edge(u, v);
  }
  Graph g = std::move(builder).build();
  if (g.num_edges() != m ||
      !same_bytes(g.csr_offsets(), bytes + layout.offsets_off) ||
      !same_bytes(g.csr_arcs(), bytes + layout.arcs_off) ||
      !same_bytes(g.edges(), bytes + layout.edges_off)) {
    return false;
  }
  *out = std::move(g);
  return true;
}

}  // namespace

CorpusStore::CorpusStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  // Sweep orphaned save temporaries: a process killed between fopen and
  // rename leaves <hash>.cpg.tmp.<pid>.<n> behind (unique_tmp_path names;
  // the bare <hash>.cpg.tmp spelling predates it and is swept too). They
  // are never loaded (load() only opens final names), but without the
  // sweep every crash leaks one file into the corpus forever.
  // sweepable_tmp keeps temps whose owning pid is still alive -- another
  // process (or thread) may be mid-save in a shared directory, and
  // unlinking its temp out from under the rename would fail that save.
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;  // created later on first save
  while (const dirent* entry = ::readdir(d)) {
    if (!sweepable_tmp(entry->d_name, ".cpg.tmp")) continue;
    const std::string orphan = dir_ + "/" + entry->d_name;
    std::remove(orphan.c_str());
  }
  ::closedir(d);
}

std::string CorpusStore::path_for(std::uint64_t hash) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.cpg",
                static_cast<unsigned long long>(hash));
  return dir_ + "/" + name;
}

CorpusStore::LoadStatus CorpusStore::load(std::uint64_t hash,
                                          Graph* out) const {
  if (!enabled()) return LoadStatus::kMiss;
  const std::string path = path_for(hash);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return LoadStatus::kMiss;
  struct stat st {};
  std::vector<unsigned char> file;
  bool ok = ::fstat(fileno(f), &st) == 0;
  if (ok) {
    file.resize(static_cast<std::size_t>(st.st_size));
    ok = std::fread(file.data(), 1, file.size(), f) == file.size();
  }
  std::fclose(f);
  if (ok && load_v3(file, out)) return LoadStatus::kHit;
  // A short read, a legacy v2 file and a forged section alike are corrupt:
  // the engine regenerates the instance and re-saves it as v3.
  std::fprintf(stderr,
               "warning: corpus file %s is truncated or corrupt; "
               "regenerating the instance\n",
               path.c_str());
  return LoadStatus::kCorrupt;
}

bool CorpusStore::save(std::uint64_t hash, const Graph& g) const {
  if (!enabled()) return false;
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  LayoutV3 layout;
  if (!compute_layout_v3(n, m, &layout)) return false;
  // EEXIST is fine. Any other failure makes the open below fail and the
  // store return false; cpt_batch checks its directories before any work.
  ::mkdir(dir_.c_str(), 0755);
  // Write to a writer-unique temp name then rename: a batch killed
  // mid-save must not leave a truncated file a later run would trust, and
  // two concurrent writers of the same instance (two cpt_batch processes,
  // or two batch workers in one) must not share a temp file --
  // with a fixed name, one writer's rename can publish the other's
  // half-written bytes. Concurrent renames of complete files are fine:
  // both wrote identical bytes (saves are deterministic), last one wins.
  const std::string final_path = path_for(hash);
  const std::string tmp_path = unique_tmp_path(final_path);
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;

  // Sections are written sequentially with explicit alignment padding; the
  // payload checksum folds over exactly the bytes written (gaps included),
  // matching the loader's flat [64, size) fold.
  std::uint64_t pos = kHeaderBytes;
  std::uint64_t sum = kFnvOffsetBasis;
  const auto emit = [&](const void* data, std::uint64_t len) {
    if (len == 0) return true;
    sum = fnv_fold(sum, data, static_cast<std::size_t>(len));
    pos += len;
    return std::fwrite(data, 1, static_cast<std::size_t>(len), f) == len;
  };
  const auto pad_to = [&](std::uint64_t off) {
    static constexpr unsigned char kZeros[64] = {};
    while (pos < off) {
      const std::uint64_t chunk = std::min<std::uint64_t>(off - pos, 64);
      if (!emit(kZeros, chunk)) return false;
    }
    return true;
  };

  unsigned char header[kHeaderBytes] = {};
  bool ok = std::fwrite(header, 1, kHeaderBytes, f) == kHeaderBytes;
  const std::span<const std::uint32_t> offsets = g.csr_offsets();
  // An empty graph has no offsets array; the format still stores the
  // single sentinel entry.
  const std::uint32_t zero_offset = 0;
  ok = ok && (offsets.empty() ? emit(&zero_offset, 4)
                              : emit(offsets.data(), 4 * offsets.size()));
  ok = ok && pad_to(layout.arcs_off);
  ok = ok && emit(g.csr_arcs().data(), 2 * m * sizeof(Arc));
  ok = ok && pad_to(layout.edges_off);
  ok = ok && emit(g.edges().data(), m * sizeof(Endpoints));
  CPT_ASSERT(!ok || pos == layout.file_size);

  fill_header_v3(header, n, m, sum);
  ok = ok && std::fseek(f, 0, SEEK_SET) == 0 &&
       std::fwrite(header, 1, kHeaderBytes, f) == kHeaderBytes;
  // fsync before the rename: rename() orders metadata, not data -- without
  // it a power cut can leave a fully *named* file with unwritten contents,
  // which the checksum would then reject on every later run.
  ok = ok && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  // durable_rename also fsyncs the parent directory: without that, the
  // rename itself can be rolled back by a crash, resurrecting the miss.
  if (ok) ok = durable_rename(tmp_path, final_path);
  if (!ok) std::remove(tmp_path.c_str());
  return ok;
}

}  // namespace cpt::scenario
