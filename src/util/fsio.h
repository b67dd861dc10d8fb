// File-system plumbing for publishing a file via the tmp+rename pattern.
// Corpus saves and aggregate/CSV/timing outputs use durable_rename, so
// they survive a power cut; result-cache entries take only a unique temp
// name and a plain rename (scenario/result_cache.h says why). rename()
// moves the entry in the parent directory's metadata: without an fsync of
// the parent, a crash right after it can roll the directory back.
#pragma once

#include <string>

namespace cpt {

// rename(tmp_path, final_path) followed by an fsync of final_path's parent
// directory. The caller must have already flushed and fsync'd the file
// contents; this makes the *name* durable too. Returns false on a failed
// rename, or a failed open/fsync of the directory (callers treat it like
// any other I/O failure on the publish path).
bool durable_rename(const std::string& tmp_path, const std::string& final_path);

// A collision-free temporary name for publishing `final_path`:
// "<final_path>.tmp.<pid>.<counter>". The pid separates concurrent
// processes (two cpt_batch runs materializing the same instance or
// storing the same result); the process-wide atomic counter separates concurrent threads
// inside one. A fixed "<final>.tmp" name lets two writers open the same
// temp file: the second truncates the first mid-write and the first's
// rename() then publishes the second's half-written bytes under the final
// name.
std::string unique_tmp_path(const std::string& final_path);

// Orphan-sweep predicate for directory entries: true when `name` carries
// `marker` (e.g. ".cpg.tmp") and the temp file is safe to delete. Legacy
// bare-marker names (the fixed "<final>.tmp" spelling that predates
// unique_tmp_path) are always sweepable; pid-suffixed names only once the
// owning process is gone, so a store opening a directory shared by
// concurrent cpt_batch processes never deletes another live writer's
// in-flight bytes out from under its rename.
bool sweepable_tmp(const char* name, const char* marker);

}  // namespace cpt
