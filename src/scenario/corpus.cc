#include "scenario/corpus.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <memory>
#include <vector>

#include "scenario/faultinject.h"
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
// Payload checksums are verified in full below this size (and always under
// CPT_CORPUS_VERIFY=full); larger files are admitted on the header +
// exact-size cross-check so a multi-GB hit stays zero-copy.
constexpr std::uint64_t kFullVerifyBytes = 64ULL << 20;

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

enum class VerifyMode { kAuto, kFull, kSizeOnly };

VerifyMode verify_mode() {
  const char* env = std::getenv("CPT_CORPUS_VERIFY");
  if (env == nullptr) return VerifyMode::kAuto;
  if (std::strcmp(env, "full") == 0) return VerifyMode::kFull;
  if (std::strcmp(env, "size") == 0) return VerifyMode::kSizeOnly;
  return VerifyMode::kAuto;
}

// Keep-alive handle a mapped Graph view carries: unmapping happens when
// the last copy of the view dies.
struct Mapping {
  void* base = MAP_FAILED;
  std::size_t len = 0;
  ~Mapping() {
    if (base != MAP_FAILED) ::munmap(base, len);
  }
};

// Folds the payload checksum over a mapped range in windows, releasing
// each window afterwards so verifying a large file never holds more than
// one window resident.
std::uint64_t checksum_range_windowed(unsigned char* base, std::uint64_t lo,
                                      std::uint64_t hi, bool release) {
  constexpr std::uint64_t kWindow = 8ULL << 20;
  std::uint64_t sum = kFnvOffsetBasis;
  for (std::uint64_t off = lo; off < hi; off += kWindow) {
    const std::uint64_t end = std::min(hi, off + kWindow);
    sum = fnv_fold(sum, base + off, end - off);
    if (release) {
      const std::uint64_t page_lo = off & ~4095ULL;
      const std::uint64_t page_hi = end & ~4095ULL;
      if (page_hi > page_lo) {
        ::madvise(base + page_lo, page_hi - page_lo, MADV_DONTNEED);
      }
    }
  }
  return sum;
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

bool write_u32_f(std::FILE* f, std::uint32_t v) {
  unsigned char b[4];
  store_u32(b, v);
  return std::fwrite(b, 1, 4, f) == 4;
}

// ---- v3 loading ------------------------------------------------------------

// Validates and maps a v3 file; the fd stays owned by the caller.
bool load_v3_mapped(int fd, std::uint64_t file_size, Graph* out) {
  if (file_size < kHeaderBytes) return false;
  auto mapping = std::make_shared<Mapping>();
  mapping->len = static_cast<std::size_t>(file_size);
  mapping->base =
      ::mmap(nullptr, mapping->len, PROT_READ, MAP_SHARED, fd, 0);
  if (mapping->base == MAP_FAILED) return false;
  auto* bytes = static_cast<unsigned char*>(mapping->base);

  if (load_u64(bytes + kHeaderChecksumOff) !=
      fnv_fold(kFnvOffsetBasis, bytes, kHeaderChecksumOff)) {
    return false;
  }
  for (std::uint64_t i = kHeaderChecksumOff + 8; i < kHeaderBytes; ++i) {
    if (bytes[i] != 0) return false;
  }
  const std::uint64_t n = load_u64(bytes + 8);
  const std::uint64_t m = load_u64(bytes + 16);
  LayoutV3 layout;
  if (!compute_layout_v3(n, m, &layout) || layout.file_size != file_size) {
    return false;
  }

  const VerifyMode mode = verify_mode();
  const bool verify_payload =
      mode == VerifyMode::kFull ||
      (mode == VerifyMode::kAuto && file_size <= kFullVerifyBytes);
  if (verify_payload) {
    const std::uint64_t sum = checksum_range_windowed(
        bytes, kHeaderBytes, file_size, file_size > kFullVerifyBytes);
    if (sum != load_u64(bytes + 24)) return false;
  }

  const auto* offsets =
      reinterpret_cast<const std::uint32_t*>(bytes + layout.offsets_off);
  const auto* arcs = reinterpret_cast<const Arc*>(bytes + layout.arcs_off);
  const auto* edges =
      reinterpret_cast<const Endpoints*>(bytes + layout.edges_off);
  // O(1) structural anchors (the checksum, when verified, vouches for the
  // rest; these also catch a header-only forgery in size-only mode).
  if (offsets[0] != 0 || offsets[n] != 2 * m) return false;

  *out = Graph::from_csr(
      {offsets, static_cast<std::size_t>(n) + 1},
      {arcs, static_cast<std::size_t>(2 * m)},
      {edges, static_cast<std::size_t>(m)}, std::move(mapping));
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
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return LoadStatus::kMiss;
  const auto corrupt = [&](bool close_fd) {
    if (close_fd) ::close(fd);
    std::fprintf(stderr,
                 "warning: corpus file %s is truncated or corrupt; "
                 "regenerating the instance\n",
                 path.c_str());
    return LoadStatus::kCorrupt;
  };
  // Injected read faults: corrupt-on-read exercises the regenerate path
  // without touching the file; throw/badalloc surface as transient
  // materialization failures.
  const FaultAction fault = fault_check(FaultSite::kCorpusLoad, hash);
  if (fault == FaultAction::kCorrupt) return corrupt(true);
  if (fault != FaultAction::kNone) {
    ::close(fd);
    fault_raise(fault, FaultSite::kCorpusLoad, hash);
  }

  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 8) return corrupt(true);
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  unsigned char head[8];
  if (::pread(fd, head, 8, 0) != 8) return corrupt(true);
  const std::uint32_t magic = load_u32(head);
  const std::uint32_t version = load_u32(head + 4);
  if (magic != kMagic) return corrupt(true);

  if (version == kVersionV3) {
    const bool ok = load_v3_mapped(fd, file_size, out);
    ::close(fd);  // the mapping survives the close
    return ok ? LoadStatus::kHit : corrupt(false);
  }
  // Any other version, legacy v2 included, is corrupt: the engine
  // regenerates the instance and re-saves it as v3.
  return corrupt(true);
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
  // Injected save faults: shortwrite abandons a half-written temp file
  // *without* cleaning it up (the constructor's orphan sweep is the test
  // subject); exit kills the process mid-save the same way.
  const FaultAction fault = fault_check(FaultSite::kCorpusSave, hash);
  if (fault == FaultAction::kShortWrite || fault == FaultAction::kExit) {
    write_u32_f(f, kMagic);
    write_u32_f(f, kVersionV3);
    std::fflush(f);
    if (fault == FaultAction::kExit) ::_exit(kFaultExitCode);
    std::fclose(f);
    return false;
  }
  if (fault != FaultAction::kNone) {
    std::fclose(f);
    std::remove(tmp_path.c_str());
    fault_raise(fault, FaultSite::kCorpusSave, hash);
  }

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

bool CorpusStore::save_stream(std::uint64_t hash,
                              gen::EdgeStream& stream) const {
  if (!enabled()) return false;
  const std::uint64_t n = stream.num_nodes();
  const std::uint64_t m = stream.num_edges();
  LayoutV3 layout;
  if (!compute_layout_v3(n, m, &layout)) return false;
  ::mkdir(dir_.c_str(), 0755);
  const std::string final_path = path_for(hash);
  const std::string tmp_path = unique_tmp_path(final_path);  // see save()
  const int fd = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  // Same injected-fault surface as save(): the streaming writer is just
  // another producer of corpus files.
  const FaultAction fault = fault_check(FaultSite::kCorpusSave, hash);
  if (fault == FaultAction::kShortWrite || fault == FaultAction::kExit) {
    unsigned char head[8];
    store_u32(head, kMagic);
    store_u32(head + 4, kVersionV3);
    [[maybe_unused]] const auto written = ::write(fd, head, 8);
    if (fault == FaultAction::kExit) ::_exit(kFaultExitCode);
    ::close(fd);
    return false;
  }
  if (fault != FaultAction::kNone) {
    ::close(fd);
    std::remove(tmp_path.c_str());
    fault_raise(fault, FaultSite::kCorpusSave, hash);
  }

  const auto fail = [&](void* base, std::size_t len) {
    if (base != MAP_FAILED) ::munmap(base, len);
    ::close(fd);
    std::remove(tmp_path.c_str());
    return false;
  };
  if (::ftruncate(fd, static_cast<off_t>(layout.file_size)) != 0) {
    return fail(MAP_FAILED, 0);
  }
  const auto len = static_cast<std::size_t>(layout.file_size);
  void* base = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) return fail(base, len);
  auto* bytes = static_cast<unsigned char*>(base);
  auto* offsets = reinterpret_cast<std::uint32_t*>(bytes + layout.offsets_off);
  auto* arcs = reinterpret_cast<Arc*>(bytes + layout.arcs_off);
  auto* edges = reinterpret_cast<Endpoints*>(bytes + layout.edges_off);

  // Pass 1: degree counts into the file's own offsets section, then an
  // in-place prefix sum -- the section is final before pass 2 begins.
  // ftruncate delivered zero pages, so no explicit clearing is needed.
  stream.rewind();
  Endpoints e{};
  std::uint64_t count = 0;
  Endpoints prev{kNoNode, kNoNode};
  while (stream.next(&e)) {
    CPT_ASSERT(e.u < e.v && e.v < n);
    CPT_ASSERT(prev.u == kNoNode || e.u > prev.u ||
               (e.u == prev.u && e.v > prev.v));
    prev = e;
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
    ++count;
  }
  CPT_ASSERT(count == m && "EdgeStream yielded a different edge count");
  for (std::uint64_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];
  CPT_ASSERT(n == 0 || offsets[n] == 2 * m);

  // Pass 2: endpoints sequentially, arcs scattered through per-node write
  // cursors (the only O(n) heap allocation). A release frontier walks the
  // completed prefix of the arc array and drops it from the mapping every
  // few million edges, so peak RSS tracks the write window, not 2m arcs.
  std::vector<std::uint32_t> cursor(offsets, offsets + n);
  stream.rewind();
  constexpr std::uint64_t kReleaseInterval = 1ULL << 22;
  std::uint64_t release_node = 0;
  std::uint64_t released_arc_byte = layout.arcs_off;
  std::uint64_t released_edge_byte = layout.edges_off;
  // Dropping completed MAP_SHARED pages hands their dirty contents to the
  // page cache (writeback preserves them); only this process's RSS shrinks.
  const auto release_range = [&](std::uint64_t* released, std::uint64_t hi) {
    const std::uint64_t page_hi = hi & ~4095ULL;
    if (page_hi > *released + (4096ULL << 4)) {
      const std::uint64_t page_lo = *released & ~4095ULL;
      ::madvise(bytes + page_lo, page_hi - page_lo, MADV_DONTNEED);
      *released = page_hi;
    }
  };
  const auto release_completed = [&](std::uint64_t eid) {
    // Arcs: every node whose cursor reached its next offset is fully
    // written, so the prefix of the arc array up to it is final.
    while (release_node < n &&
           cursor[release_node] == offsets[release_node + 1]) {
      ++release_node;
    }
    release_range(
        &released_arc_byte,
        layout.arcs_off +
            (release_node == 0
                 ? 0
                 : static_cast<std::uint64_t>(offsets[release_node]) *
                       sizeof(Arc)));
    // Endpoints: strictly sequential, everything before eid is final.
    release_range(&released_edge_byte,
                  layout.edges_off + eid * sizeof(Endpoints));
  };
  for (std::uint64_t eid = 0; eid < m; ++eid) {
    [[maybe_unused]] const bool have = stream.next(&e);
    CPT_ASSERT(have);
    edges[eid] = e;
    const std::uint32_t cu = cursor[e.u]++;
    const std::uint32_t cv = cursor[e.v]++;
    arcs[cu] = {e.v, static_cast<EdgeId>(eid), cv};
    arcs[cv] = {e.u, static_cast<EdgeId>(eid), cu};
    if ((eid + 1) % kReleaseInterval == 0) release_completed(eid + 1);
  }
  cursor.clear();
  cursor.shrink_to_fit();

  // Checksum sweep over the payload (windowed, self-releasing for large
  // files), then the header, then durability: msync + fsync + durable
  // rename.
  const bool release_windows = layout.file_size > kFullVerifyBytes;
  const std::uint64_t sum = checksum_range_windowed(
      bytes, kHeaderBytes, layout.file_size, release_windows);
  fill_header_v3(bytes, n, m, sum);
  bool ok = ::msync(base, len, MS_SYNC) == 0;
  ::munmap(base, len);
  ok = ok && ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (ok) ok = durable_rename(tmp_path, final_path);
  if (!ok) std::remove(tmp_path.c_str());
  return ok;
}

}  // namespace cpt::scenario
