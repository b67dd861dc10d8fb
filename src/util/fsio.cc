#include "util/fsio.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cpt {

namespace {

// fsync the directory containing `path` ("." when path has no slash).
bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool durable_rename(const std::string& tmp_path, const std::string& final_path) {
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) return false;
  return fsync_parent_dir(final_path);
}

std::string unique_tmp_path(const std::string& final_path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  char suffix[48];
  std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(n));
  return final_path + suffix;
}

bool sweepable_tmp(const char* name, const char* marker) {
  const char* at = std::strstr(name, marker);
  if (at == nullptr) return false;
  const char* rest = at + std::strlen(marker);
  if (*rest == '\0') return true;  // legacy fixed "<final>.tmp" name
  if (*rest != '.') return false;  // some other file, not a publish temp
  char* end = nullptr;
  const long pid = std::strtol(rest + 1, &end, 10);
  if (end == rest + 1 || end == nullptr || *end != '.' || pid <= 0) {
    return true;  // malformed suffix: nothing owns it
  }
  // kill(pid, 0) probes liveness without signalling. ESRCH means the
  // owner died mid-publish (a true orphan); EPERM means *some* live
  // process holds the pid -- possibly recycled, but deleting a live
  // writer's temp is the worse failure, so keep it for a later sweep.
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return false;
  return errno == ESRCH;
}

}  // namespace cpt
