// A persistent fork-join worker pool for deterministic data-parallel
// stages. The pool owns `num_workers() - 1` threads; the caller of run()
// acts as the last worker, so a pool of size 1 never context-switches and
// a dispatch costs two mutex hand-offs per helper thread. Work is handed
// out as a single callable invoked once per worker id -- the caller is
// responsible for making results independent of which worker did what
// (the batch engine's workers claim jobs dynamically and write each
// result to its job's slot).
//
// Memory-ordering contract: everything written by the caller before run()
// happens-before every fn(w) invocation, and everything written inside
// fn(w) happens-before run()'s return (the dispatch mutex sequences both
// directions). Worker callables must not throw.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cpt {

class WorkerPool {
 public:
  // Spawns `num_workers - 1` helper threads. num_workers >= 1.
  explicit WorkerPool(unsigned num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_workers() const { return num_workers_; }

  // Invokes fn(w) for every w in [0, num_workers()) -- helpers run
  // w in [0, num_workers()-1), the calling thread runs the last id --
  // and returns once all invocations completed. Not reentrant.
  void run(void (*fn)(void*, unsigned), void* arg);

  // Convenience wrapper for lambdas (lvalue or rvalue).
  template <typename Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    auto thunk = [](void* a, unsigned w) { (*static_cast<F*>(a))(w); };
    run(+thunk, &fn);
  }

 private:
  void worker_loop(unsigned idx);

  unsigned num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;     // bumped per dispatch
  unsigned pending_ = 0;        // helpers still running the current epoch
  bool stopping_ = false;
  void (*fn_)(void*, unsigned) = nullptr;
  void* arg_ = nullptr;
};

}  // namespace cpt
